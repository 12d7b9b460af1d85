#include "inputs.h"

#include <cmath>
#include <complex>
#include <limits>
#include <utility>

#include "channel/channel.h"
#include "channel/estimation.h"
#include "channel/rng.h"
#include "channel/trace.h"

namespace apbench {

namespace ch = flexcore::channel;
using flexcore::linalg::CMat;
using flexcore::linalg::CVec;
using flexcore::linalg::cplx;

namespace {

/// Pilot rounds per user of the LS channel estimate.
constexpr std::size_t kPilotRepeats = 4;
/// SNR of the one frame per cell that must decode without error.
constexpr double kHighSnrDb = 60.0;
/// Seed of the high-SNR frames: the same frames in every run, so whether
/// they decode without error does not depend on --seed.  On this seed's
/// frame flexcore-64:i16 misses one symbol that fp64 decodes (a fault of
/// the int16 tier, see README.md): it stays visible in `failed`.
constexpr std::uint64_t kHighSnrSeed = 10;
/// Gauss-Markov coefficient between frames of the mobile workload.
constexpr double kMobileRho = 0.9;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "coherent", .nr = 12, .nt = 12, .nsc = 64, .nsym = 14,
       .qam = 64, .snr_db = 24.0, .mobile = false,
       .cells = {"flexcore-64:i16"}, .frames_per_cell = 16, .window = 2},
      {.name = "mobile", .nr = 12, .nt = 12, .nsc = 64, .nsym = 14,
       .qam = 64, .snr_db = 24.0, .mobile = true,
       .cells = {"flexcore-64:i16"}, .frames_per_cell = 32, .window = 2},
      {.name = "multicell", .nr = 6, .nt = 6, .nsc = 16, .nsym = 4,
       .qam = 16, .snr_db = 17.0, .mobile = false,
       .cells = {"flexcore-16", "flexcore-16:i16", "fcsd-L1", "fcsd-L1:i16"},
       .frames_per_cell = 64, .window = 2},
  };
  return kWorkloads;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // splitmix64 over the combined words: decorrelates neighbouring seeds.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
                    b * 0x94D049BB133111EBull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// LS-estimates every subcarrier of `truth` from pilots at `noise_var`
/// into `fr` (channels and mean estimated noise variance).
void estimate(const ch::ChannelTrace& truth, double noise_var, ch::Rng& rng,
              InputFrame* fr) {
  fr->channels.clear();
  double nv_hat = 0.0;
  for (const CMat& h : truth.per_subcarrier) {
    ch::ChannelEstimate est =
        ch::estimate_channel(h, noise_var, kPilotRepeats, rng);
    nv_hat += est.noise_var_hat;
    fr->channels.push_back(std::move(est.h_hat));
  }
  fr->noise_var = nv_hat / static_cast<double>(truth.per_subcarrier.size());
}

/// Random payload vectors sent over the TRUE channels of `truth`.
void send_payload(const Workload& w, const ch::ChannelTrace& truth,
                  double noise_var,
                  const flexcore::modulation::Constellation& c, ch::Rng& rng,
                  InputFrame* fr) {
  fr->nsym = w.nsym;
  fr->ys.reserve(w.nsc * w.nsym);
  fr->tx.reserve(w.nsc * w.nsym * w.nt);
  CVec s(w.nt);
  for (const CMat& h : truth.per_subcarrier) {
    for (std::size_t t = 0; t < w.nsym; ++t) {
      for (std::size_t u = 0; u < w.nt; ++u) {
        const int x = static_cast<int>(
            rng.uniform_int(static_cast<std::uint64_t>(c.order())));
        fr->tx.push_back(x);
        s[u] = c.point(x);
      }
      fr->ys.push_back(ch::transmit(h, s, noise_var, rng));
    }
  }
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const Workload& w : workloads()) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

flexcore::api::FrameJob InputFrame::job(bool reuse_preprocessing) const {
  flexcore::api::FrameJob j;
  j.channels = channels;
  j.ys = ys;
  j.vectors_per_channel = nsym;
  j.noise_var = noise_var;
  j.reuse_preprocessing = reuse_preprocessing;
  return j;
}

std::vector<CellInputs> make_inputs(const Workload& w, std::uint64_t seed) {
  const flexcore::modulation::Constellation c(w.qam);
  const double nv = ch::noise_var_for_snr_db(w.snr_db);
  const double nv_high = ch::noise_var_for_snr_db(kHighSnrDb);
  ch::TraceConfig tcfg;
  tcfg.nr = w.nr;
  tcfg.nt = w.nt;
  tcfg.num_subcarriers = w.nsc;
  // A long delay spread (a tap per subcarrier, decaying over a quarter of
  // them) makes the subcarriers' channels nearly independent, so the
  // work of one static frame does not hinge on a few channel draws.
  tcfg.num_taps = w.nsc;
  tcfg.delay_spread_taps = static_cast<double>(w.nsc) / 4.0;

  std::vector<CellInputs> cells(w.cells.size());
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    ch::TraceGenerator gen(tcfg, mix_seed(seed, cell, 1));
    ch::Rng rng(mix_seed(seed, cell, 2));
    ch::ChannelTrace truth = gen.next();
    CellInputs& in = cells[cell];
    in.frames.resize(w.frames_per_cell);
    for (std::size_t k = 0; k < w.frames_per_cell; ++k) {
      InputFrame& fr = in.frames[k];
      if (w.mobile && k > 0) truth = ch::evolve_trace(truth, kMobileRho, rng);
      if (w.mobile || k == 0) {
        estimate(truth, nv, rng, &fr);
      } else {
        // Static channel: one coherence interval, one estimate; every
        // frame carries fresh payload and noise.
        fr.channels = in.frames.front().channels;
        fr.noise_var = in.frames.front().noise_var;
      }
      send_payload(w, truth, nv, c, rng, &fr);
    }
    ch::TraceGenerator high_gen(tcfg, mix_seed(kHighSnrSeed, cell, 1));
    ch::Rng high_rng(mix_seed(kHighSnrSeed, cell, 2));
    const ch::ChannelTrace high = high_gen.next();
    estimate(high, nv_high, high_rng, &in.high_snr);
    send_payload(w, high, nv_high, c, high_rng, &in.high_snr);
  }
  return cells;
}

std::size_t symbol_errors(
    const InputFrame& frame,
    std::span<const flexcore::detect::DetectionResult> results) {
  std::size_t errors = 0;
  for (std::size_t v = 0; v < results.size(); ++v) {
    const std::vector<int>& s = results[v].symbols;
    for (std::size_t u = 0; u < s.size(); ++u) {
      errors += s[u] != frame.tx[v * s.size() + u];
    }
  }
  return errors;
}

std::size_t zf_symbol_errors(const InputFrame& frame,
                             const flexcore::modulation::Constellation& c) {
  std::size_t errors = 0;
  const std::size_t nsc = frame.channels.size();
  if (nsc == 0) return 0;
  const std::size_t nr = frame.channels.front().rows();
  const std::size_t nt = frame.channels.front().cols();
  // Augmented normal equations [H^H H | H^H y], row-major, n x (n + 1).
  std::vector<cplx> a(nt * (nt + 1));
  std::vector<cplx> gram(nt * nt);
  for (std::size_t f = 0; f < nsc; ++f) {
    const CMat& h = frame.channels[f];
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::size_t j = 0; j < nt; ++j) {
        cplx acc = 0.0;
        for (std::size_t r = 0; r < nr; ++r) acc += std::conj(h(r, i)) * h(r, j);
        gram[i * nt + j] = acc;
      }
    }
    for (std::size_t t = 0; t < frame.nsym; ++t) {
      const std::size_t v = f * frame.nsym + t;
      const CVec& y = frame.ys[v];
      for (std::size_t i = 0; i < nt; ++i) {
        for (std::size_t j = 0; j < nt; ++j) a[i * (nt + 1) + j] = gram[i * nt + j];
        cplx acc = 0.0;
        for (std::size_t r = 0; r < nr; ++r) acc += std::conj(h(r, i)) * y[r];
        a[i * (nt + 1) + nt] = acc;
      }
      // Gaussian elimination with partial pivoting.
      for (std::size_t k = 0; k < nt; ++k) {
        std::size_t piv = k;
        for (std::size_t i = k + 1; i < nt; ++i) {
          if (std::abs(a[i * (nt + 1) + k]) > std::abs(a[piv * (nt + 1) + k])) {
            piv = i;
          }
        }
        if (piv != k) {
          for (std::size_t j = k; j <= nt; ++j) {
            std::swap(a[k * (nt + 1) + j], a[piv * (nt + 1) + j]);
          }
        }
        const cplx inv = 1.0 / a[k * (nt + 1) + k];
        for (std::size_t i = k + 1; i < nt; ++i) {
          const cplx m = a[i * (nt + 1) + k] * inv;
          for (std::size_t j = k; j <= nt; ++j) {
            a[i * (nt + 1) + j] -= m * a[k * (nt + 1) + j];
          }
        }
      }
      for (std::size_t ii = nt; ii-- > 0;) {
        cplx x = a[ii * (nt + 1) + nt];
        for (std::size_t j = ii + 1; j < nt; ++j) x -= a[ii * (nt + 1) + j] * a[j * (nt + 1) + nt];
        x /= a[ii * (nt + 1) + ii];
        a[ii * (nt + 1) + nt] = x;  // back-substituted solution
        int best = 0;
        double best_d = std::numeric_limits<double>::infinity();
        for (int p = 0; p < c.order(); ++p) {
          const double d = std::norm(x - c.point(p));
          if (d < best_d) {
            best_d = d;
            best = p;
          }
        }
        errors += best != frame.tx[v * nt + ii];
      }
    }
  }
  return errors;
}

}  // namespace apbench
