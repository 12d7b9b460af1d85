#include "core/flexcore_detector.h"

#include "parallel/hot_path.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"

namespace flexcore::core {

FlexCoreDetector::FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg)
    : PathDetector(c, cfg.precision), cfg_(cfg), lut_(c, cfg.lut_source) {
  if (cfg_.num_pes == 0) {
    throw std::invalid_argument("FlexCoreDetector: num_pes must be >= 1");
  }
}

std::string FlexCoreDetector::name() const {
  std::string base = cfg_.adaptive_threshold > 0.0
                         ? "a-flexcore-" + std::to_string(cfg_.num_pes)
                         : "flexcore-" + std::to_string(cfg_.num_pes);
  base += detect::precision_suffix(cfg_.precision);
  return base;
}

void FlexCoreDetector::set_channel(const CMat& h, double noise_var) {
  noise_var_ = noise_var;
  install_qr(linalg::sorted_qr_wubben(h));

  PreprocessingConfig pcfg;
  pcfg.num_paths = cfg_.num_pes;
  pcfg.stop_threshold =
      cfg_.adaptive_threshold > 0.0 ? cfg_.adaptive_threshold : 1.0;
  pcfg.pe_model = cfg_.pe_model;
  pcfg.candidate_list_cap = cfg_.candidate_list_cap;
  pcfg.batch_expand = cfg_.batch_expand;
  find_most_promising_paths(qr_.R, noise_var, *constellation_, pcfg, &preproc_);
  active_paths_ = preproc_.paths.size();

  const std::size_t nt = qr_.R.cols();
  r_diag_inv_.resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    r_diag_inv_[i] = cplx{1.0, 0.0} / qr_.R(i, i);
  }

  // Compile the selected path set into the block kernel's plan.
  const bool exact = cfg_.ordering == OrderingMode::kExactSort;
  compile_plan([&](auto& plan) {
    plan.compile_flexcore(qr_.R, preproc_.paths, *constellation_, lut_, exact,
                          cfg_.invalid_policy);
  });
}

std::size_t FlexCoreDetector::active_paths() const { return active_paths_; }

double FlexCoreDetector::active_pc_sum() const { return preproc_.pc_sum; }

FlexCoreDetector::PathEval FlexCoreDetector::evaluate_path(
    const CVec& ybar, std::size_t path_index) const {
  detect::Workspace ws;
  PathEval ev;
  ev.valid = evaluate_path(ybar, path_index, ws, &ev.metric, &ev.stats);
  ev.symbols = ws.symbols;
  return ev;
}

FLEXCORE_HOT_PATH
bool FlexCoreDetector::evaluate_path(std::span<const cplx> ybar,
                                     std::size_t path_index,
                                     detect::Workspace& ws, double* metric,
                                     DetectionStats* stats) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const PositionVector& p = preproc_.paths[path_index].p;

  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.assign(nt, 0);
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.s.assign(nt, cplx{0.0, 0.0});
  *metric = 0.0;
  *stats = DetectionStats{};

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    // Interference cancellation (Eq. 5 numerator).
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) {
      b -= r(i, j) * ws.s[j];
      stats->real_mults += 4;
      stats->flops += 8;
    }
    // Effective received point and k-th closest symbol.
    const cplx eff = b * r_diag_inv_[i];
    int x;
    if (cfg_.ordering == OrderingMode::kLut) {
      x = lut_.kth_symbol(eff, p[i], cfg_.invalid_policy);
    } else {
      x = (p[i] <= constellation_->order())
              ? constellation_->kth_nearest_exact(eff, p[i])
              : -1;
    }
    if (x < 0) return false;  // deactivated processing element
    ws.symbols[i] = x;
    ws.s[i] = constellation_->point(x);
    *metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    // Table 2 accounting: 4 real mults per cancelled term + 4 per level for
    // the PED constant multiply (the FPGA design folds the divide into a
    // multiply by R(l,l), so no extra cost is counted for `eff`).
    stats->real_mults += 4;
    stats->flops += 11;
    ++stats->nodes_visited;
  }
  return true;
}

FLEXCORE_HOT_PATH
double FlexCoreDetector::path_metric(std::span<const cplx> ybar,
                                     std::size_t path_index) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  assert(nt <= 32);
  const PositionVector& p = preproc_.paths[path_index].p;

  std::array<cplx, 32> s;
  double metric = 0.0;
  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
    const cplx eff = b * r_diag_inv_[i];
    const int x = (cfg_.ordering == OrderingMode::kLut)
                      ? lut_.kth_symbol(eff, p[i], cfg_.invalid_policy)
                      : constellation_->kth_nearest_exact(eff, p[i]);
    if (x < 0) return std::numeric_limits<double>::infinity();
    s[i] = constellation_->point(x);
    metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
  }
  return metric;
}

DetectionResult FlexCoreDetector::reduce(const CVec& ybar,
                                         std::vector<PathEval>* keep_all,
                                         bool* fell) const {
  DetectionResult res;
  res.metric = std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t pidx = 0; pidx < active_paths_; ++pidx) {
    PathEval ev = evaluate_path(ybar, pidx);
    res.stats += ev.stats;
    if (ev.valid && ev.metric < res.metric) {
      res.metric = ev.metric;
      res.symbols = ev.symbols;
      any = true;
    }
    if (keep_all) keep_all->push_back(std::move(ev));
  }
  if (!any) {
    // Every PE was deactivated (possible only for tiny path budgets at
    // extreme noise).
    detect::Workspace ws;
    sic_fallback_into(ybar, ws, &res);
  }
  if (fell != nullptr) *fell = !any;
  res.stats.paths_evaluated = active_paths_;
  res.symbols = linalg::unpermute(res.symbols, qr_.perm);
  return res;
}

void FlexCoreDetector::sic_fallback_into(std::span<const cplx> ybar,
                                         detect::Workspace& ws,
                                         DetectionResult* res) const {
  const std::size_t nt = qr_.R.cols();
  ws.symbols.assign(nt, 0);
  ws.s.assign(nt, cplx{0.0, 0.0});
  double metric = 0.0;
  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) b -= qr_.R(i, j) * ws.s[j];
    ws.symbols[i] = constellation_->slice(b * r_diag_inv_[i]);
    ws.s[i] = constellation_->point(ws.symbols[i]);
    metric +=
        linalg::abs2(b - rx_[i][static_cast<std::size_t>(ws.symbols[i])]);
  }
  res->symbols = ws.symbols;
  res->metric = metric;
}

bool FlexCoreDetector::reconstruct_winner(std::span<const cplx> ybar,
                                          std::size_t best_path,
                                          double best_metric,
                                          detect::Workspace& ws,
                                          DetectionResult* res) const {
  // The double walk re-deriving the winner can disagree with the grid only
  // in the int16 tier, where a decision that lands near a cell boundary can
  // fall on the other side of it: the quantized kernel may crown a path the
  // exact walk deactivates, or deactivate every path the exact walk keeps.
  // Those vectors are rescued with one exact scalar rescan (the quantized
  // grid already paid for the other 99%+); only when the exact scan also
  // finds every path dead does the vector drop to plain SIC, exactly like
  // the fp64 tier.
  bool fell = true;
  if (!std::isinf(best_metric) &&
      evaluate_path(ybar, best_path, ws, &res->metric, &res->stats)) {
    res->symbols = ws.symbols;
    fell = false;
  } else {
    std::size_t rescue_path = 0;
    double rescue_metric = std::numeric_limits<double>::infinity();
    if (precision_ == detect::Precision::kInt16) {
      // One exact scalar rescan of every active path, rescuing an i16
      // winner that fell on the wrong side of a quantization boundary.
      obs::counter_add(obs::Counter::kI16BoundaryRescans);
      for (std::size_t p = 0; p < active_paths_; ++p) {
        const double m = path_metric(ybar, p);
        if (m < rescue_metric) {
          rescue_metric = m;
          rescue_path = p;
        }
      }
    }
    if (std::isfinite(rescue_metric) &&
        evaluate_path(ybar, rescue_path, ws, &res->metric, &res->stats)) {
      res->symbols = ws.symbols;
      fell = false;
    } else {
      res->stats = DetectionStats{};
      sic_fallback_into(ybar, ws, res);
    }
  }
  res->stats.paths_evaluated = active_paths_;
  // Every branch above leaves the winning tree-order decisions in
  // ws.symbols; unpermute straight from there into the caller's buffer so
  // the steady-state reconstruction allocates nothing.
  linalg::unpermute_into(ws.symbols, qr_.perm, &res->symbols);
  return fell;
}

SoftOutput FlexCoreDetector::detect_soft(const CVec& y) const {
  const CVec ybar = rotate(y);
  std::vector<PathEval> all;
  all.reserve(active_paths_);

  SoftOutput out;
  out.hard = reduce(ybar, &all);

  const std::size_t nt = qr_.R.cols();
  const int bits = constellation_->bits_per_symbol();
  // min metric per (antenna, bit, value) over the candidate list.
  constexpr double inf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<std::array<double, 2>>> best(
      nt, std::vector<std::array<double, 2>>(static_cast<std::size_t>(bits),
                                             {inf, inf}));

  std::vector<std::uint8_t> bitbuf;
  for (const PathEval& ev : all) {
    if (!ev.valid) continue;
    const std::vector<int> sym = linalg::unpermute(ev.symbols, qr_.perm);
    for (std::size_t a = 0; a < nt; ++a) {
      bitbuf.clear();
      constellation_->unmap_bits(sym[a], bitbuf);
      for (int b = 0; b < bits; ++b) {
        auto& slot = best[a][static_cast<std::size_t>(b)][bitbuf[static_cast<std::size_t>(b)]];
        slot = std::min(slot, ev.metric);
      }
    }
  }

  // Max-log LLRs: (min metric with bit=1 - min metric with bit=0) / sigma^2.
  // Bits for which the candidate list contains only one hypothesis get a
  // saturated LLR scaled to the strongest *resolved* evidence of this
  // vector — the standard list-sphere-decoder clipping rule; a fixed large
  // constant would let unresolved bits crush genuine soft information.
  out.llrs.assign(nt, std::vector<double>(static_cast<std::size_t>(bits), 0.0));
  const double inv_noise = 1.0 / std::max(noise_var_, 1e-12);
  double max_resolved = 0.0;
  for (std::size_t a = 0; a < nt; ++a) {
    for (int b = 0; b < bits; ++b) {
      const double m0 = best[a][static_cast<std::size_t>(b)][0];
      const double m1 = best[a][static_cast<std::size_t>(b)][1];
      if (!std::isinf(m0) && !std::isinf(m1)) {
        max_resolved = std::max(max_resolved, std::abs(m1 - m0) * inv_noise);
      }
    }
  }
  const double clip =
      std::min(SoftOutput::kLlrClip, std::max(1.0, 1.2 * max_resolved));
  for (std::size_t a = 0; a < nt; ++a) {
    for (int b = 0; b < bits; ++b) {
      const double m0 = best[a][static_cast<std::size_t>(b)][0];
      const double m1 = best[a][static_cast<std::size_t>(b)][1];
      double llr;
      if (std::isinf(m0) && std::isinf(m1)) {
        llr = 0.0;
      } else if (std::isinf(m1)) {
        llr = clip;
      } else if (std::isinf(m0)) {
        llr = -clip;
      } else {
        llr = std::clamp((m1 - m0) * inv_noise, -SoftOutput::kLlrClip,
                         SoftOutput::kLlrClip);
      }
      out.llrs[a][static_cast<std::size_t>(b)] = llr;
    }
  }
  return out;
}

}  // namespace flexcore::core
