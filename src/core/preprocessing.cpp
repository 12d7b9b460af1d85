#include "core/preprocessing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace flexcore::core {

namespace {

/// Reused search state: a slot pool of position vectors plus the best-first
/// frontier of (pc, slot) entries.  A slot holds a position vector as uint16
/// ranks (a rank is at most |Q| <= 256) and the element whose increment
/// created it.  Kept per thread and reused across calls, so a warm search
/// allocates nothing.
class Frontier {
 public:
  using Slot = std::uint32_t;
  struct Entry {
    double pc;
    Slot slot;
  };

  /// Empties the pool and the frontier for a search over `nt` levels.
  void reset(std::size_t nt) {
    nt_ = nt;
    ranks_.clear();
    last_inc_.clear();
    free_.clear();
    order_.clear();
    round_.clear();
  }

  /// A free slot (its contents are stale until written).
  Slot acquire() {
    if (!free_.empty()) {
      const Slot s = free_.back();
      free_.pop_back();
      return s;
    }
    const Slot s = static_cast<Slot>(last_inc_.size());
    ranks_.resize(ranks_.size() + nt_);
    last_inc_.push_back(0);
    return s;
  }
  void release(Slot s) { free_.push_back(s); }

  std::uint16_t* ranks(Slot s) { return ranks_.data() + s * nt_; }
  int& last_inc(Slot s) { return last_inc_[s]; }

  /// True when the frontier already holds `cap` entries that beat pc — a
  /// child with this pc would be trimmed whatever its position vector.
  bool full_above(double pc, std::size_t cap) const {
    return order_.size() >= cap && pc < order_.back().pc;
  }

  /// Inserts slot `s` with probability `pc` in frontier order (pc
  /// descending, then position vector ascending), keeping only the best
  /// `cap` entries; what falls past `cap` is released.  Within a round the
  /// frontier only grows, so an entry with `cap` better entries now still
  /// has them at the round's end, where the search would trim it.
  void insert(Slot s, double pc, std::size_t cap) {
    auto pos = std::partition_point(order_.begin(), order_.end(),
                                    [pc](const Entry& e) { return e.pc > pc; });
    while (pos != order_.end() && pos->pc == pc && ranks_less(pos->slot, s)) {
      ++pos;
    }
    if (static_cast<std::size_t>(pos - order_.begin()) >= cap) {
      release(s);
      return;
    }
    order_.insert(pos, Entry{pc, s});
    if (order_.size() > cap) {
      release(order_.back().slot);
      order_.pop_back();
    }
  }

  /// Moves the best `n` frontier entries into round().
  void pop_round(std::size_t n) {
    const auto end = order_.begin() +
                     static_cast<std::ptrdiff_t>(std::min(n, order_.size()));
    round_.assign(order_.begin(), end);
    order_.erase(order_.begin(), end);
  }
  const std::vector<Entry>& round() const { return round_; }
  bool empty() const { return order_.empty(); }

 private:
  bool ranks_less(Slot a, Slot b) const {
    const std::uint16_t* pa = ranks_.data() + a * nt_;
    const std::uint16_t* pb = ranks_.data() + b * nt_;
    return std::lexicographical_compare(pa, pa + nt_, pb, pb + nt_);
  }

  std::size_t nt_ = 0;
  std::vector<std::uint16_t> ranks_;  // slot s at [s * nt_, (s + 1) * nt_)
  std::vector<int> last_inc_;
  std::vector<Slot> free_;
  std::vector<Entry> order_;  // best first, at most cap entries
  std::vector<Entry> round_;
};

/// The search of §3.1.1 over out->pe, which the caller has filled.
void search(int q, const PreprocessingConfig& cfg, PreprocessingResult* out) {
  if (cfg.num_paths == 0) {
    throw std::invalid_argument("find_most_promising_paths: num_paths == 0");
  }
  if (q > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "find_most_promising_paths: constellation order exceeds 65535");
  }
  const std::vector<double>& pe = out->pe;
  const std::size_t nt = pe.size();
  out->pc_sum = 0.0;
  out->real_mults = 0;
  out->nodes_expanded = 0;

  // Root probability prod_l (1 - Pe(l)): Nt-1 multiplications.
  double root_pc = 1.0;
  for (double pe_l : pe) root_pc *= (1.0 - pe_l);
  out->real_mults += nt >= 1 ? nt - 1 : 0;

  const std::size_t cap =
      cfg.candidate_list_cap == 0 ? cfg.num_paths : cfg.candidate_list_cap;
  const std::size_t batch = std::max<std::size_t>(1, cfg.batch_expand);

  thread_local Frontier frontier;
  frontier.reset(nt);
  const Frontier::Slot root = frontier.acquire();
  std::fill_n(frontier.ranks(root), nt, std::uint16_t{1});
  frontier.last_inc(root) = static_cast<int>(nt);
  frontier.insert(root, root_pc, cap);

  out->paths.reserve(cfg.num_paths);
  std::size_t emitted = 0;

  while (!frontier.empty() && emitted < cfg.num_paths &&
         out->pc_sum < cfg.stop_threshold) {
    frontier.pop_round(batch);
    for (const auto [node_pc, node] : frontier.round()) {
      if (emitted >= cfg.num_paths || out->pc_sum >= cfg.stop_threshold) {
        break;
      }
      out->pc_sum += node_pc;
      ++out->nodes_expanded;

      // Children: increment element w for w in [1, last_inc]; the dedup rule
      // of §3.1.1 means larger elements are never incremented again.
      const int last_inc = frontier.last_inc(node);
      for (int w = 1; w <= last_inc; ++w) {
        const std::size_t l = static_cast<std::size_t>(w - 1);
        if (frontier.ranks(node)[l] >= q) continue;  // rank cannot exceed |Q|
        const double child_pc = node_pc * pe[l];
        ++out->real_mults;
        if (frontier.full_above(child_pc, cap)) continue;
        const Frontier::Slot child = frontier.acquire();
        std::copy_n(frontier.ranks(node), nt, frontier.ranks(child));
        ++frontier.ranks(child)[l];
        frontier.last_inc(child) = w;
        frontier.insert(child, child_pc, cap);
      }

      // Emit into out->paths, reusing its elements' storage.
      if (emitted == out->paths.size()) out->paths.emplace_back();
      RankedPath& rp = out->paths[emitted++];
      rp.p.assign(frontier.ranks(node), frontier.ranks(node) + nt);
      rp.pc = node_pc;
      frontier.release(node);
    }
  }
  out->paths.resize(emitted);
}

/// Pe(l) from the diagonal of R, into `pe`.
void fill_level_error_probabilities(linalg::CMatView r, double noise_var,
                                    const Constellation& c,
                                    modulation::PeModel model,
                                    std::vector<double>* pe) {
  const std::size_t nt = r.cols();
  pe->resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    (*pe)[i] = modulation::level_error_probability(model, c, std::abs(r(i, i)),
                                                   noise_var);
  }
}

}  // namespace

std::vector<double> level_error_probabilities(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              modulation::PeModel model) {
  std::vector<double> pe;
  fill_level_error_probabilities(r, noise_var, c, model, &pe);
  return pe;
}

void find_most_promising_paths(linalg::CMatView r, double noise_var,
                               const Constellation& c,
                               const PreprocessingConfig& cfg,
                               PreprocessingResult* out) {
  fill_level_error_probabilities(r, noise_var, c, cfg.pe_model, &out->pe);
  search(c.order(), cfg, out);
}

void find_most_promising_paths(const std::vector<double>& pe,
                               int constellation_order,
                               const PreprocessingConfig& cfg,
                               PreprocessingResult* out) {
  if (&pe != &out->pe) out->pe.assign(pe.begin(), pe.end());
  search(constellation_order, cfg, out);
}

PreprocessingResult find_most_promising_paths(linalg::CMatView r,
                                              double noise_var,
                                              const Constellation& c,
                                              const PreprocessingConfig& cfg) {
  PreprocessingResult out;
  find_most_promising_paths(r, noise_var, c, cfg, &out);
  return out;
}

PreprocessingResult find_most_promising_paths(const std::vector<double>& pe,
                                              int constellation_order,
                                              const PreprocessingConfig& cfg) {
  PreprocessingResult out;
  find_most_promising_paths(pe, constellation_order, cfg, &out);
  return out;
}

std::vector<RankedPath> rank_paths_exhaustive(const std::vector<double>& pe,
                                              int constellation_order,
                                              std::size_t nt,
                                              std::size_t num_paths) {
  const std::uint64_t q = static_cast<std::uint64_t>(constellation_order);
  double total_d = static_cast<double>(nt) * std::log2(static_cast<double>(q));
  if (total_d > 24) {
    throw std::invalid_argument("rank_paths_exhaustive: search space too large");
  }
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < nt; ++i) total *= q;

  std::vector<RankedPath> all;
  all.reserve(total);
  for (std::uint64_t code = 0; code < total; ++code) {
    PositionVector p(nt);
    std::uint64_t v = code;
    double pc = 1.0;
    for (std::size_t i = 0; i < nt; ++i) {
      const int k = static_cast<int>(v % q) + 1;
      v /= q;
      p[i] = k;
      pc *= (1.0 - pe[i]) * std::pow(pe[i], k - 1);
    }
    all.push_back(RankedPath{std::move(p), pc});
  }
  std::sort(all.begin(), all.end(), [](const RankedPath& a, const RankedPath& b) {
    if (a.pc != b.pc) return a.pc > b.pc;
    return a.p < b.p;
  });
  if (all.size() > num_paths) all.resize(num_paths);
  return all;
}

}  // namespace flexcore::core
