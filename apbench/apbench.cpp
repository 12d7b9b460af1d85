// apbench: closed-loop benchmark of the FlexCore access point, driven
// through the public serving API (api::Runtime, open_cell, submit,
// FrameTicket).
//
//   apbench --workload <coherent|mobile|multicell> --seed <n>
//           --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// --trace-out is required with --trace 1.
//
// Thread layout: one load-generating thread (this one), one runtime
// dispatcher and a pool of nproc - 1 threads whose worker 0 is the
// dispatcher itself, so nproc threads in all.  Each cell keeps `window`
// frames in flight: the generator resubmits a cell's next frame as soon as
// one of its tickets completes (a closed loop).
//
// --trace 0 measures the end-to-end metrics: the run is cut into fifteen
// segments and each metric is the median over the eight segments with the
// least CPU steal (a slow segment, such as the first after the host idled
// or one in which the hypervisor ran other machines, does not move it).
// --trace 1 measures the per-layer metrics instead, from spans the
// benchmark records around its own calls into each layer, and writes them
// as Chrome trace-event JSON to --trace-out.
//
// Both modes check the outputs (every ticket kDone, per-cell FIFO
// completion, SER well below the benchmark's own zero-forcing receiver,
// sampled runtime results equal to a synchronous detect_frame) and exit 1
// when a check fails.  Each cell's frames run in whole passes over its
// inputs, and every pass is followed by one decode of the cell's fixed
// very-high-SNR frame; a decode with a symbol error counts in `failed`, so
// `failed` is the same share of `attempted` in every run.  The last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fcntl.h>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "api/runtime.h"
#include "core/preprocessing.h"
#include "inputs.h"
#include "linalg/qr.h"
#include "obs/obs.h"
#include "spans.h"

namespace fa = flexcore::api;
using apbench::CellInputs;
using apbench::Clock;
using apbench::InputFrame;
using apbench::SpanRecorder;
using apbench::Workload;

namespace {

// ------------------------------------------------------------ utilities

/// Runtime SER must stay below this share of the zero-forcing SER.
constexpr double kSerRatioLimit = 0.5;
/// Segments per closed-loop run; metrics are medians over them.
constexpr std::size_t kSegments = 15;
/// Set-ups timed per --trace 0 run (setup_s is their median).
constexpr std::size_t kSetups = 31;
/// Latency samples kept per run (pre-touched before the memory baseline).
constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 21;
constexpr std::size_t kMaxSpans = std::size_t{1} << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "apbench: %s\nusage: apbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg.c_str(), apbench::workload_names().c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage("unknown argument " + a);
    }
    if (end != nullptr && *end != '\0') usage("bad number " + v);
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.trace && o.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return o;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Current resident set size in MiB (0 when /proc is unavailable).
double rss_mib() {
  const int fd = ::open("/proc/self/statm", O_RDONLY);
  if (fd < 0) return 0.0;
  char buf[128] = {};
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0.0;
  unsigned long long size = 0, resident = 0;
  if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// The machine's CPU ticks from the "cpu" line of /proc/stat: all of them
/// and those stolen (time the hypervisor ran something else on this
/// machine's vCPUs).  Zero when /proc is unavailable.
struct HostTicks {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};
HostTicks host_ticks() {
  const int fd = ::open("/proc/stat", O_RDONLY);
  if (fd < 0) return {};
  char buf[256] = {};
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return {};
  unsigned long long v[8] = {};
  if (std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) != 8) {
    return {};
  }
  HostTicks t;
  for (unsigned long long x : v) t.total += x;
  t.steal = v[7];
  return t;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// FNV-1a over a frame's detected symbols and metrics: two results hash
/// equal exactly when they are bit-identical (up to hash collisions).
std::uint64_t result_hash(const fa::FrameResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  const auto eat = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  for (const auto& d : r.results) {
    eat(d.symbols.data(), d.symbols.size() * sizeof(int));
    eat(&d.metric, sizeof d.metric);
  }
  return h;
}

/// Pool threads: the dispatcher (worker 0) plus nproc - 2 spawned workers,
/// so generator + dispatcher + workers == nproc.
std::size_t pool_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return hw >= 2 ? hw - 1 : 1;
}

fa::RuntimeConfig runtime_config(const Workload& w) {
  fa::RuntimeConfig r;
  r.threads = pool_threads();
  r.dispatchers = 1;
  // Never full: every in-flight frame fits, so submit never blocks.
  r.queue_capacity = w.cells.size() * w.window;
  r.policy = fa::QueuePolicy::kBlock;
  return r;
}

fa::CellConfig cell_config(const Workload& w, std::size_t c) {
  fa::CellConfig cfg;
  cfg.name = "cell" + std::to_string(c);
  cfg.detector = w.cells[c];
  cfg.qam_order = w.qam;
  cfg.reuse_preprocessing = !w.mobile;
  return cfg;
}

// ------------------------------------------------------------ checks

struct Sample {
  std::size_t cell;
  std::size_t input;
  std::uint64_t hash;
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t symbols = 0;
  std::uint64_t errors = 0;
  std::vector<Sample> samples;
  std::vector<std::string> problems;

  void fail(const std::string& msg) {
    if (problems.size() < 20) problems.push_back(msg);
  }
  bool ok() const { return problems.empty(); }
};

// ------------------------------------------------------------ serving

struct Completion {
  std::size_t cell;
  std::uint64_t seq;
  fa::TicketStatus status;
  Clock::time_point at;
};

/// Completion events pushed by ticket callbacks (on the dispatcher), taken
/// by the generator.  Callbacks only lock, append and notify.
class CompletionQueue {
 public:
  void push(const Completion& c) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(c);
    }
    cv_.notify_one();
  }
  /// Blocks until at least one event is queued; swaps all into *out.
  void take_all(std::vector<Completion>* out) {
    out->clear();
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !items_.empty(); });
    out->swap(items_);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completion> items_;
};

struct Served {
  std::unique_ptr<fa::Runtime> rt;
  std::vector<fa::Cell*> cells;
};

/// Runtime construction, open_cell for every cell and each cell's first
/// frame (where detector clones, plans and workspaces are built).
double set_up(const Workload& w, const std::vector<CellInputs>& in,
              Served* s, Checks* checks) {
  const auto t0 = Clock::now();
  s->rt = std::make_unique<fa::Runtime>(runtime_config(w));
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    s->cells.push_back(&s->rt->open_cell(cell_config(w, c)));
  }
  std::vector<fa::FrameTicket> first;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    first.push_back(s->rt->submit(*s->cells[c], in[c].frames[0].job(false)));
  }
  for (const fa::FrameTicket& t : first) t.wait();
  const double secs = seconds_between(t0, Clock::now());
  for (std::size_t c = 0; c < first.size(); ++c) {
    if (first[c].status() != fa::TicketStatus::kDone) {
      checks->fail("cell " + std::to_string(c) + " first frame: " +
                   fa::to_string(first[c].status()));
    }
  }
  return secs;
}

/// One measured stretch of the closed loop.
struct Segment {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t vectors = 0;
  std::size_t frames = 0;
  std::size_t lat_begin = 0;  ///< [lat_begin, lat_end) of the latency pool
  std::size_t lat_end = 0;
  double steal = 0.0;  ///< share of the machine's CPU ticks stolen
  std::vector<double> submit_us;  ///< traced segments only
  bool traced = false;
};

/// The closed-loop load generator: keeps `window` frames in flight per
/// cell, checks each completion, and records segments (and, in traced
/// segments, spans).
class LoadGenerator {
 public:
  LoadGenerator(const Workload& w, Served& served,
                const std::vector<CellInputs>& in, Checks* checks,
                SpanRecorder* rec)
      : w_(w), served_(served), in_(in), checks_(checks), rec_(rec),
        cells_(w.cells.size()) {
    for (Cell& c : cells_) c.ring.resize(w.window);
    latency_pool_.assign(kMaxLatencySamples, 0.0f);  // touched up front
    if (rec_ != nullptr) {
      gen_track_ = rec_->add_track("generator");
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        for (std::size_t k = 0; k < w.window; ++k) {
          cells_[c].ring[k].track = rec_->add_track(
              "cell" + std::to_string(c) + " slot" + std::to_string(k));
        }
      }
      single_track_ = rec_->add_track("one-in-flight");
    }
  }

  /// Runs warm-up, then `segments` segments of `segment_s` each; with
  /// `alternate_trace`, odd segments record spans.  Returns when every
  /// submitted frame completed.
  std::vector<Segment> run(double warmup_s, std::size_t segments,
                           double segment_s, bool alternate_trace) {
    std::vector<Segment> out;
    out.reserve(segments);
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      for (std::size_t k = 0; k < w_.window; ++k) submit_next(c);
    }
    enum class Phase { kWarmup, kMeasure, kStop } phase = Phase::kWarmup;
    const auto t_start = Clock::now();
    Clock::time_point seg_end = t_start + dur(warmup_s);
    Clock::time_point seg_start{};
    Clock::time_point next_rss = t_start;
    double cpu_start = 0.0;
    HostTicks ticks_start;
    std::vector<Completion> batch;
    while (in_flight() > 0) {
      queue_.take_all(&batch);
      for (const Completion& ev : batch) handle(ev, phase == Phase::kStop);
      const auto now = Clock::now();
      if (now >= next_rss) {
        peak_rss_ = std::max(peak_rss_, rss_mib());
        next_rss = now + std::chrono::milliseconds(20);
      }
      if (phase == Phase::kStop || now < seg_end) continue;
      if (phase == Phase::kMeasure) {
        Segment& s = out.back();
        s.wall_s = seconds_between(seg_start, now);
        s.cpu_s = process_cpu_s() - cpu_start;
        const HostTicks ticks = host_ticks();
        if (ticks.total > ticks_start.total) {
          s.steal = static_cast<double>(ticks.steal - ticks_start.steal) /
                    static_cast<double>(ticks.total - ticks_start.total);
        }
        s.lat_end = lat_used_;
        if (s.traced) {
          rec_->record(seg_span_, "bench.segment", gen_track_, 0, 0,
                       seg_start, now);
        }
        current_ = nullptr;
      }
      if (out.size() == segments) {
        phase = Phase::kStop;
        continue;
      }
      phase = Phase::kMeasure;
      out.emplace_back();
      current_ = &out.back();
      lat_segment_id_ = out.size();
      current_->traced = alternate_trace && out.size() % 2 == 0;
      current_->lat_begin = lat_used_;
      if (current_->traced) seg_span_ = rec_->reserve_id();
      seg_start = now;
      seg_end = now + dur(segment_s);
      cpu_start = process_cpu_s();
      ticks_start = host_ticks();
    }
    peak_rss_ = std::max(peak_rss_, rss_mib());
    return out;
  }

  /// Runs frames one in flight until each cell's frames since set-up make
  /// whole passes over its inputs; returns each cell's passes.
  std::vector<std::size_t> close_passes() {
    std::vector<std::size_t> passes;
    for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
      std::size_t input = 0;
      while (cells_[cell].next_input != 1) one_in_flight(cell, 0, &input);
      passes.push_back(static_cast<std::size_t>(cells_[cell].submitted - 1) /
                       w_.frames_per_cell);
    }
    return passes;
  }

  /// Submits the next frame of `cell` into an otherwise idle runtime and
  /// returns its submit -> completion latency in microseconds; *input_out
  /// is the input frame it used.
  double one_in_flight(std::size_t cell, std::uint64_t parent,
                       std::size_t* input_out) {
    Cell& c = cells_[cell];
    const std::size_t input = advance(c);
    *input_out = input;
    const std::uint64_t frame = next_frame_++;
    const std::uint64_t id = rec_ != nullptr ? rec_->reserve_id() : 0;
    const auto t0 = Clock::now();
    fa::FrameTicket t =
        served_.rt->submit(*served_.cells[cell], in_[cell].frames[input].job(false));
    const auto t1 = Clock::now();
    const std::uint64_t seq = t.sequence();
    watch(t, cell, seq);
    std::vector<Completion> batch;
    queue_.take_all(&batch);
    t.wait();  // published: the cell is free for the next measurement
    ++c.submitted;
    ++c.completed;
    ++checks_->attempted;
    if (batch.size() != 1 || batch[0].seq != seq ||
        batch[0].status != fa::TicketStatus::kDone) {
      ++checks_->failed;
      checks_->fail("one-in-flight frame did not complete kDone");
      return 0.0;
    }
    if (rec_ != nullptr) {
      rec_->record(id, "api.ticket", single_track_, parent, frame, t0,
                   batch[0].at);
      rec_->record("api.submit", single_track_, id, frame, t0, t1);
    }
    return us_between(t0, batch[0].at);
  }

  const std::vector<float>& latencies() const { return latency_pool_; }
  double peak_rss() const { return peak_rss_; }

 private:
  struct Slot {
    fa::FrameTicket ticket;
    Clock::time_point submitted;
    std::size_t input = 0;
    std::uint64_t seq = 0;
    std::uint64_t frame = 0;
    std::uint64_t span = 0;  ///< reserved api.ticket span id, 0 = untraced
    std::uint32_t track = 0;
  };
  struct Cell {
    std::vector<Slot> ring;
    std::uint64_t submitted = 1;  ///< frame 0 ran during set-up
    std::uint64_t completed = 1;
    std::size_t next_input = 1;
    std::size_t sampled_in_segment = static_cast<std::size_t>(-1);
  };

  static Clock::duration dur(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  std::size_t in_flight() const {
    std::size_t n = 0;
    for (const Cell& c : cells_) n += static_cast<std::size_t>(c.submitted - c.completed);
    return n;
  }

  std::size_t advance(Cell& c) {
    const std::size_t input = c.next_input;
    c.next_input = (c.next_input + 1) % w_.frames_per_cell;
    return input;
  }

  void watch(fa::FrameTicket& t, std::size_t cell, std::uint64_t seq) {
    CompletionQueue* q = &queue_;
    t.on_complete([q, cell, seq](fa::TicketStatus st, const fa::FrameResult*) {
      q->push({cell, seq, st, Clock::now()});
    });
  }

  void submit_next(std::size_t cell) {
    Cell& c = cells_[cell];
    Slot& s = c.ring[c.submitted % w_.window];
    s.input = advance(c);
    s.frame = next_frame_++;
    const fa::FrameJob job = in_[cell].frames[s.input].job(false);
    const auto t0 = Clock::now();
    s.ticket = served_.rt->submit(*served_.cells[cell], job);
    const auto t1 = Clock::now();
    s.submitted = t0;
    s.seq = s.ticket.sequence();
    if (s.seq != c.submitted) {
      checks_->fail("cell " + std::to_string(cell) + ": ticket sequence " +
                    std::to_string(s.seq) + ", expected " +
                    std::to_string(c.submitted));
    }
    ++c.submitted;
    ++checks_->attempted;
    s.span = 0;
    if (current_ != nullptr && current_->traced) {
      current_->submit_us.push_back(us_between(t0, t1));
      s.span = rec_->reserve_id();
      rec_->record("api.submit", s.track, s.span, s.frame, t0, t1);
    }
    watch(s.ticket, cell, s.seq);
  }

  void handle(const Completion& ev, bool stopping) {
    Cell& c = cells_[ev.cell];
    Slot& s = c.ring[ev.seq % w_.window];
    if (ev.seq != c.completed || s.seq != ev.seq) {
      checks_->fail("cell " + std::to_string(ev.cell) + ": completion of seq " +
                    std::to_string(ev.seq) + " out of order (expected " +
                    std::to_string(c.completed) + ")");
    }
    ++c.completed;
    const InputFrame& frame = in_[ev.cell].frames[s.input];
    std::size_t vectors = 0;
    // The callback fires before the ticket publishes its status; wait()
    // returns once it has.
    const fa::FrameResult* r = s.ticket.wait() == fa::TicketStatus::kDone
                                   ? s.ticket.try_get()
                                   : nullptr;
    if (r == nullptr) {
      ++checks_->failed;
      checks_->fail("cell " + std::to_string(ev.cell) + " seq " +
                    std::to_string(ev.seq) + ": " + fa::to_string(ev.status));
    } else {
      vectors = r->results.size();
      if (vectors != frame.vectors()) {
        checks_->fail("result holds " + std::to_string(vectors) +
                      " vectors, frame has " + std::to_string(frame.vectors()));
      }
      checks_->errors += apbench::symbol_errors(frame, r->results);
      checks_->symbols += vectors * w_.nt;
      // One bit-identity sample per cell and segment.
      if (current_ != nullptr && c.sampled_in_segment != lat_segment_id_) {
        c.sampled_in_segment = lat_segment_id_;
        checks_->samples.push_back({ev.cell, s.input, result_hash(*r)});
      }
    }
    if (current_ != nullptr) {
      if (lat_used_ < latency_pool_.size()) {
        latency_pool_[lat_used_++] =
            static_cast<float>(us_between(s.submitted, ev.at));
      } else if (!lat_full_) {
        lat_full_ = true;
        std::fprintf(stderr, "apbench: latency buffer full, later frames "
                     "carry no latency sample\n");
      }
      current_->vectors += vectors;
      ++current_->frames;
    }
    if (s.span != 0) {
      rec_->record(s.span, "api.ticket", s.track, seg_span_, s.frame,
                   s.submitted, ev.at);
    }
    s.ticket = fa::FrameTicket();
    if (!stopping) submit_next(ev.cell);
  }

  const Workload& w_;
  Served& served_;
  const std::vector<CellInputs>& in_;
  Checks* checks_;
  SpanRecorder* rec_;
  std::vector<Cell> cells_;
  CompletionQueue queue_;
  Segment* current_ = nullptr;
  std::size_t lat_segment_id_ = 0;
  std::vector<float> latency_pool_;
  std::size_t lat_used_ = 0;
  bool lat_full_ = false;
  std::uint64_t next_frame_ = 1;
  std::uint64_t seg_span_ = 0;
  double peak_rss_ = 0.0;
  std::uint32_t gen_track_ = 0;
  std::uint32_t single_track_ = 0;
};

// ------------------------------------------------------------ metrics

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Checks& checks,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "%s\n", title);
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name, m.value, m.unit);
  }
}

/// Closed-loop metrics, medians over segments.
struct LoopFigures {
  double vps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double cpu_us_per_vector = 0.0;
  double utilisation = 0.0;
  double submit_us = 0.0;
};

/// Medians over the segments of one kind (traced or not), taken over the
/// half of them with the least steal: a segment in which the hypervisor
/// ran another machine on this one's vCPUs measures the neighbours.
LoopFigures loop_figures(const std::vector<Segment>& segs,
                         const std::vector<float>& lat, bool traced) {
  std::vector<const Segment*> kept;
  std::fprintf(stderr, "segment vec/s@steal%% (%s):", traced ? "traced" : "untraced");
  for (const Segment& s : segs) {
    if (s.traced != traced || s.vectors == 0) continue;
    kept.push_back(&s);
    std::fprintf(stderr, " %.0f@%.1f", static_cast<double>(s.vectors) / s.wall_s,
                 100.0 * s.steal);
  }
  std::fprintf(stderr, "\n");
  std::stable_sort(kept.begin(), kept.end(), [](const Segment* a, const Segment* b) {
    return a->steal < b->steal;
  });
  kept.resize((kept.size() + 1) / 2);
  std::vector<double> vps, p50, p90, cpu, util, submit;
  for (const Segment* s : kept) {
    std::vector<double> l(lat.begin() + static_cast<std::ptrdiff_t>(s->lat_begin),
                          lat.begin() + static_cast<std::ptrdiff_t>(s->lat_end));
    const double v = static_cast<double>(s->vectors);
    vps.push_back(v / s->wall_s);
    p50.push_back(quantile(l, 0.5) / 1000.0);
    p90.push_back(quantile(l, 0.9) / 1000.0);
    cpu.push_back(s->cpu_s * 1e6 / v);
    util.push_back(s->cpu_s / (s->wall_s * static_cast<double>(pool_threads())));
    submit.insert(submit.end(), s->submit_us.begin(), s->submit_us.end());
  }
  return {median(vps), median(p50), median(p90), median(cpu), median(util),
          median(submit)};
}

// ------------------------------------------------------------ verification

/// Sampled runtime results against a synchronous detect_frame of the same
/// frame on a fresh single-thread pipeline.
void verify_samples(const Workload& w, const std::vector<CellInputs>& in,
                    Checks* checks) {
  std::vector<std::unique_ptr<fa::UplinkPipeline>> pipes;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    fa::PipelineConfig p;
    p.detector = w.cells[c];
    p.qam_order = w.qam;
    p.threads = 1;
    pipes.push_back(std::make_unique<fa::UplinkPipeline>(p));
  }
  for (const Sample& s : checks->samples) {
    const fa::FrameResult r =
        pipes[s.cell]->detect_frame(in[s.cell].frames[s.input].job(false));
    if (result_hash(r) != s.hash) {
      checks->fail("cell " + std::to_string(s.cell) + " input " +
                   std::to_string(s.input) +
                   ": runtime result differs from synchronous detect_frame");
    }
  }
}

/// Decodes each cell's very-high-SNR frame once per pass the cell made
/// over its inputs, on a fresh runtime whose cells run the workload's own
/// detectors.  A decode with a symbol error is a failed operation; a
/// ticket that does not complete kDone also fails the run.
void verify_high_snr(const Workload& w, const std::vector<CellInputs>& in,
                     const std::vector<std::size_t>& passes, Checks* checks) {
  fa::Runtime rt(runtime_config(w));
  std::vector<fa::Cell*> cells;
  for (std::size_t c = 0; c < w.cells.size(); ++c) {
    cells.push_back(&rt.open_cell(cell_config(w, c)));
  }
  std::vector<std::size_t> erred(cells.size(), 0), errors(cells.size(), 0);
  const std::size_t rounds = *std::max_element(passes.begin(), passes.end());
  std::vector<std::pair<std::size_t, fa::FrameTicket>> tickets;
  for (std::size_t k = 0; k < rounds && checks->ok(); ++k) {
    tickets.clear();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (k < passes[c]) {
        tickets.emplace_back(c, rt.submit(*cells[c], in[c].high_snr.job(false)));
      }
    }
    for (auto& [c, t] : tickets) {
      ++checks->attempted;
      const InputFrame& f = in[c].high_snr;
      const fa::FrameResult* r =
          t.wait() == fa::TicketStatus::kDone ? t.try_get() : nullptr;
      if (r == nullptr || r->results.size() != f.vectors()) {
        ++checks->failed;
        checks->fail("high-SNR frame of cell " + std::to_string(c) + ": " +
                     fa::to_string(t.status()));
        continue;
      }
      const std::size_t e = apbench::symbol_errors(f, r->results);
      if (e > 0) {
        ++checks->failed;
        ++erred[c];
        errors[c] = e;
      }
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (erred[c] > 0) {
      std::fprintf(stderr, "apbench: high-SNR frame of cell %zu (%s): %zu "
                   "symbol errors in %zu of %zu decodes (counted in failed)\n",
                   c, w.cells[c].c_str(), errors[c], erred[c], passes[c]);
    }
  }
}

// ------------------------------------------------------------ traced layers

/// The path count of a "flexcore-<paths>[:tier]" spec; 0 for other families.
std::size_t flexcore_paths(const std::string& spec) {
  const std::string prefix = "flexcore-";
  if (spec.rfind(prefix, 0) != 0) return 0;
  return std::strtoull(spec.c_str() + prefix.size(), nullptr, 10);
}

/// Runs `round(r)` until `seconds` passed, at least `min_rounds` and at
/// most `max_rounds` times.
template <typename F>
void for_budget(double seconds, std::size_t min_rounds, std::size_t max_rounds,
                F&& round) {
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  for (std::size_t r = 0;
       r < max_rounds && (r < min_rounds || Clock::now() < end); ++r) {
    round(r);
  }
}

struct LayerFigures {
  double ticket_us = 0.0;      ///< one frame in flight, submit -> completion
  double sync_us = 0.0;        ///< detect_frame as the workload submits it
  double reuse_us = 0.0;       ///< detect_frame with preprocessing reused
  double single_us = 0.0;      ///< as submitted, on a 1-thread pool
  double ns_per_path = 0.0;
  double qr_us = 0.0;          ///< sorted_qr_wubben per subcarrier
  double path_select_us = 0.0; ///< find_most_promising_paths per subcarrier
  /// Over one pass of every input frame: exact for a seed.
  double paths_per_vector = 0.0;
  double fallbacks_per_kvec = 0.0;
};

LayerFigures measure_layers(const Workload& w, const std::vector<CellInputs>& in,
                            LoadGenerator& gen, SpanRecorder& rec,
                            double seconds) {
  const std::size_t ncells = w.cells.size();
  const std::size_t frames = w.frames_per_cell;
  const std::uint32_t sync_track = rec.add_track("synchronous");
  const std::uint32_t layer_track = rec.add_track("linalg-core");
  std::uint64_t frame_id = 1u << 30;  // apart from the closed loop's ids
  std::vector<std::vector<double>> ticket(ncells), sync(ncells),
      reuse(ncells), single(ncells), ns_path(ncells);
  LayerFigures out;

  // api / core / detect / parallel, interleaved per round and cell so a
  // drift of the host's speed cancels out of the differences: one frame in
  // flight on the serving runtime, then the same frame through synchronous
  // detect_frame calls: on a pipeline of the workload's pool size as the
  // workload submits it, on a 1-thread pipeline, and on the first pipeline
  // again with the frame's preprocessing reused.
  std::vector<std::unique_ptr<fa::UplinkPipeline>> pool_pipes, one_pipes;
  for (std::size_t c = 0; c < ncells; ++c) {
    for (const std::size_t threads : {pool_threads(), std::size_t{1}}) {
      fa::PipelineConfig p;
      p.detector = w.cells[c];
      p.qam_order = w.qam;
      p.threads = threads;
      auto pipe = std::make_unique<fa::UplinkPipeline>(p);
      pipe->detect_frame(in[c].frames[0].job(false));  // builds the clones
      (threads == 1 ? one_pipes : pool_pipes).push_back(std::move(pipe));
    }
  }
  const auto timed = [&](fa::UplinkPipeline& pipe, const fa::FrameJob& job,
                         const char* name, std::uint64_t parent,
                         std::uint64_t* paths) {
    const auto t0 = Clock::now();
    const fa::FrameResult r = pipe.detect_frame(job);
    const auto t1 = Clock::now();
    rec.record(name, sync_track, parent, frame_id++, t0, t1);
    if (paths != nullptr) *paths = r.stats.paths_evaluated;
    return us_between(t0, t1);
  };
  {
    const auto p0 = Clock::now();
    const std::uint64_t phase = rec.reserve_id();
    for_budget(0.4 * seconds, 5, 100000, [&](std::size_t) {
      for (std::size_t c = 0; c < ncells; ++c) {
        std::size_t input = 0;
        ticket[c].push_back(gen.one_in_flight(c, phase, &input));
        const InputFrame& f = in[c].frames[input];
        std::uint64_t paths = 0;
        sync[c].push_back(timed(*pool_pipes[c], f.job(!w.mobile),
                                "core.detect_frame", phase, nullptr));
        single[c].push_back(timed(*one_pipes[c], f.job(!w.mobile),
                                  "parallel.detect_frame_1thread", phase,
                                  nullptr));
        // After another pipeline's call, like the as-submitted call: the
        // pool's workers have gone back to sleep in both.
        const double t = timed(*pool_pipes[c], f.job(true),
                               "detect.detect_frame_reused", phase, &paths);
        reuse[c].push_back(t);
        if (paths > 0) ns_path[c].push_back(t * 1000.0 / static_cast<double>(paths));
      }
    });
    rec.record(phase, "bench.layers", sync_track, 0, 0, p0, Clock::now());
  }

  {
    // Work counts over one pass of every input frame (untimed).
    std::uint64_t paths = 0, fallbacks = 0, vectors = 0;
    for (std::size_t c = 0; c < ncells; ++c) {
      for (const InputFrame& f : in[c].frames) {
        const fa::FrameResult r = pool_pipes[c]->detect_frame(f.job(!w.mobile));
        paths += r.stats.paths_evaluated;
        fallbacks += r.sic_fallbacks;
        vectors += r.results.size();
      }
    }
    const double v = static_cast<double>(std::max<std::uint64_t>(1, vectors));
    out.paths_per_vector = static_cast<double>(paths) / v;
    out.fallbacks_per_kvec = 1000.0 * static_cast<double>(fallbacks) / v;
  }

  // linalg / core primitives, one call per subcarrier.
  double sink = 0.0;
  std::vector<double> qr_rounds, ps_rounds;
  std::vector<std::vector<flexcore::linalg::QrResult>> qrs(ncells);
  for (std::size_t c = 0; c < ncells; ++c) {
    for (const auto& h : in[c].frames[0].channels) {
      qrs[c].push_back(flexcore::linalg::sorted_qr_wubben(h));
    }
  }
  {
    const auto p0 = Clock::now();
    const std::uint64_t phase = rec.reserve_id();
    for_budget(0.05 * seconds, 5, 2000, [&](std::size_t r) {
      const std::size_t c = r % ncells;
      const InputFrame& f = in[c].frames[(r / ncells) % frames];
      double total = 0.0;
      for (const auto& h : f.channels) {
        const auto t0 = Clock::now();
        const flexcore::linalg::QrResult q = flexcore::linalg::sorted_qr_wubben(h);
        const auto t1 = Clock::now();
        sink += std::abs(q.R(0, 0));
        rec.record("linalg.sorted_qr_wubben", layer_track, phase, frame_id, t0, t1);
        total += us_between(t0, t1);
      }
      ++frame_id;
      qr_rounds.push_back(total / static_cast<double>(f.channels.size()));
    });
    rec.record(phase, "bench.sorted_qr", layer_track, 0, 0, p0, Clock::now());
  }
  {
    const auto p0 = Clock::now();
    const std::uint64_t phase = rec.reserve_id();
    // The flexcore cells only: the other families select no paths.
    std::vector<std::size_t> ps_cells;
    for (std::size_t c = 0; c < ncells; ++c) {
      if (flexcore_paths(w.cells[c]) > 0) ps_cells.push_back(c);
    }
    const flexcore::modulation::Constellation cons(w.qam);
    for_budget(0.05 * seconds, 5, 2000, [&](std::size_t r) {
      const std::size_t c = ps_cells[r % ps_cells.size()];
      const double nv = in[c].frames[0].noise_var;
      flexcore::core::PreprocessingConfig cfg;
      cfg.num_paths = flexcore_paths(w.cells[c]);
      double total = 0.0;
      for (const auto& q : qrs[c]) {
        const auto t0 = Clock::now();
        const auto res = flexcore::core::find_most_promising_paths(
            flexcore::linalg::CMatView(q.R), nv, cons, cfg);
        const auto t1 = Clock::now();
        sink += res.pc_sum;
        rec.record("core.find_most_promising_paths", layer_track, phase,
                   frame_id, t0, t1);
        total += us_between(t0, t1);
      }
      ++frame_id;
      ps_rounds.push_back(total / static_cast<double>(qrs[c].size()));
    });
    rec.record(phase, "bench.path_select", layer_track, 0, 0, p0, Clock::now());
  }
  if (sink == -1.0) std::fprintf(stderr, "unreachable\n");

  // Per-cell medians, averaged over cells.
  const auto cell_mean = [](const std::vector<std::vector<double>>& v) {
    std::vector<double> m;
    for (const auto& x : v) m.push_back(median(x));
    return mean(m);
  };
  out.ticket_us = cell_mean(ticket);
  out.sync_us = cell_mean(sync);
  out.reuse_us = cell_mean(reuse);
  out.single_us = cell_mean(single);
  out.ns_per_path = cell_mean(ns_path);
  out.qr_us = median(qr_rounds);
  out.path_select_us = median(ps_rounds);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const Workload* wp = apbench::find_workload(opt.workload);
  if (wp == nullptr) usage("unknown workload '" + opt.workload + "'");
  const Workload& w = *wp;
  // The program's own span tracing stays off: only the benchmark traces.
  flexcore::obs::configure({.sample_every = 0});

  std::fprintf(stderr, "apbench: workload %s seed %llu, %.1f s, trace %d, "
               "pool %zu threads + 1 generator\n",
               w.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
               opt.trace ? 1 : 0, pool_threads());

  // ---- inputs and the zero-forcing reference (untimed)
  const std::vector<CellInputs> in = apbench::make_inputs(w, opt.seed);
  std::uint64_t zf_errors = 0, zf_symbols = 0;
  {
    const flexcore::modulation::Constellation cons(w.qam);
    for (const CellInputs& ci : in) {
      for (const InputFrame& f : ci.frames) {
        zf_errors += apbench::zf_symbol_errors(f, cons);
        zf_symbols += f.vectors() * w.nt;
      }
    }
  }

  Checks checks;
  std::unique_ptr<SpanRecorder> rec;
  if (opt.trace) rec = std::make_unique<SpanRecorder>(kMaxSpans, Clock::now());

  // ---- set-up and the closed loop
  Served served;
  malloc_trim(0);
  // The generator's buffers are part of the memory baseline.
  auto gen = std::make_unique<LoadGenerator>(w, served, in, &checks, rec.get());
  const double rss_base = rss_mib();
  std::vector<double> setups = {set_up(w, in, &served, &checks)};
  const double warmup = std::clamp(0.1 * opt.seconds, 0.5, 3.0);
  std::vector<Segment> segs;
  if (checks.ok()) {
    segs = gen->run(warmup, kSegments,
                    (opt.trace ? 0.5 : 1.0) * opt.seconds / kSegments, opt.trace);
  }
  const double mem_mb = gen->peak_rss() - rss_base;

  std::vector<Metric> metrics;
  std::vector<std::size_t> passes;
  if (!opt.trace) {
    const LoopFigures lf = loop_figures(segs, gen->latencies(), false);
    if (checks.ok()) passes = gen->close_passes();
    gen.reset();
    served = Served();
    while (setups.size() < kSetups && checks.ok()) {
      Served s;
      setups.push_back(set_up(w, in, &s, &checks));
    }
    metrics = {{"vps", lf.vps, "vec/s"},
               {"p50_ms", lf.p50_ms, "ms"},
               {"p90_ms", lf.p90_ms, "ms"},
               {"cpu_us_per_vector", lf.cpu_us_per_vector, "us"},
               {"setup_s", median(setups), "s"},
               {"mem_mb", mem_mb, "MiB"}};
  } else if (checks.ok()) {
    const LoopFigures plain = loop_figures(segs, gen->latencies(), false);
    const LoopFigures traced = loop_figures(segs, gen->latencies(), true);
    const LayerFigures lay = measure_layers(w, in, *gen, *rec, opt.seconds);
    passes = gen->close_passes();
    const double pool = static_cast<double>(pool_threads());
    const double pre_sc = w.mobile ? static_cast<double>(w.nsc) : 0.0;
    const double covered = traced.submit_us +
                           pre_sc * (lay.qr_us + lay.path_select_us) / pool +
                           lay.reuse_us;
    const double overhead_us = lay.ticket_us - lay.sync_us;
    const double preprocess_us = lay.sync_us - lay.reuse_us;
    const double unattributed = 1.0 - covered / lay.ticket_us;
    metrics = {
        {"api.submit_us", traced.submit_us, "us"},
        {"api.overhead_us", overhead_us, "us"},
        {"parallel.utilisation", traced.utilisation, "ratio"},
        {"parallel.speedup", lay.single_us / lay.sync_us, "ratio"},
        {"core.preprocess_ms", preprocess_us / 1000.0, "ms"},
        {"linalg.sorted_qr_us", lay.qr_us, "us"},
        {"core.path_select_us", lay.path_select_us, "us"},
        {"detect.grid_ms", lay.reuse_us / 1000.0, "ms"},
        {"detect.ns_per_path", lay.ns_per_path, "ns"},
        {"detect.paths_per_vector", lay.paths_per_vector, "count"},
        {"detect.sic_fallbacks_per_kvec", lay.fallbacks_per_kvec, "count"},
        {"bench.frame_us", lay.ticket_us, "us"},
        {"bench.unattributed_share", unattributed, "ratio"},
        {"bench.trace_overhead", plain.vps / traced.vps, "ratio"}};
    std::fprintf(stderr,
                 "shares of the one-in-flight frame (%.1f us): submit %.3f, "
                 "api overhead %.3f, preprocess %.3f, grid %.3f, "
                 "unattributed %.3f\n",
                 lay.ticket_us, traced.submit_us / lay.ticket_us,
                 overhead_us / lay.ticket_us, preprocess_us / lay.ticket_us,
                 lay.reuse_us / lay.ticket_us, unattributed);
  }

  // ---- output checks (untimed)
  gen.reset();
  served = Served();
  if (checks.ok()) verify_samples(w, in, &checks);
  if (checks.ok()) verify_high_snr(w, in, passes, &checks);
  const double ser = checks.symbols > 0
                         ? static_cast<double>(checks.errors) /
                               static_cast<double>(checks.symbols)
                         : 0.0;
  const double zf_ser = static_cast<double>(zf_errors) /
                        static_cast<double>(std::max<std::uint64_t>(1, zf_symbols));
  std::fprintf(stderr, "SER %.3e over %llu symbols; zero-forcing SER %.3e; "
               "%zu bit-identity samples\n", ser,
               static_cast<unsigned long long>(checks.symbols), zf_ser,
               checks.samples.size());
  if (zf_errors == 0) checks.fail("zero-forcing made no symbol error: SNR too high for the SER check");
  if (checks.symbols == 0) checks.fail("no symbols detected");
  if (!(ser <= kSerRatioLimit * zf_ser)) {
    checks.fail("SER " + std::to_string(ser) + " not below " +
                std::to_string(kSerRatioLimit) + " x zero-forcing SER " +
                std::to_string(zf_ser));
  }
  if (opt.trace) {
    if (rec->dropped() > 0) {
      std::fprintf(stderr, "apbench: %zu spans dropped (buffer full)\n", rec->dropped());
    }
    if (!rec->write_chrome_json(opt.trace_out)) {
      checks.fail("cannot write trace to " + opt.trace_out);
    } else {
      std::fprintf(stderr, "apbench: %zu spans written to %s\n", rec->size(),
                   opt.trace_out.c_str());
    }
  }

  for (const std::string& p : checks.problems) {
    std::fprintf(stderr, "apbench: CHECK FAILED: %s\n", p.c_str());
  }
  print_table(opt.trace ? "per-layer metrics:" : "end-to-end metrics:", metrics);
  print_result(checks.ok(), checks, metrics);
  return checks.ok() ? 0 : 1;
}
