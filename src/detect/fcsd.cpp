#include "detect/fcsd.h"

#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "parallel/hot_path.h"

namespace flexcore::detect {

void FcsdDetector::set_channel(const CMat& h, double /*noise_var*/) {
  if (full_levels_ > h.cols()) {
    throw std::invalid_argument("FcsdDetector: full_levels > Nt");
  }
  install_qr(linalg::fcsd_sorted_qr(h, full_levels_));
  compile_plan([&](auto& plan) {
    plan.compile_fcsd(qr_.R, full_levels_, *constellation_);
  });
}

std::size_t FcsdDetector::num_paths() const {
  std::size_t n = 1;
  for (std::size_t l = 0; l < full_levels_; ++l) {
    n *= static_cast<std::size_t>(constellation_->order());
  }
  return n;
}

FcsdDetector::PathEval FcsdDetector::evaluate_path(const CVec& ybar,
                                                   std::size_t path_index) const {
  detect::Workspace ws;
  PathEval ev;
  evaluate_path(ybar, path_index, ws, &ev.metric, &ev.stats);
  ev.symbols = ws.symbols;
  return ev;
}

FLEXCORE_HOT_PATH
void FcsdDetector::evaluate_path(std::span<const cplx> ybar,
                                 std::size_t path_index,
                                 detect::Workspace& ws, double* metric,
                                 DetectionStats* stats) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  const std::size_t q = static_cast<std::size_t>(constellation_->order());

  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.symbols.assign(nt, 0);
  // flexcore-lint: allow-next-line(HP001) warm per-worker workspace
  ws.s.assign(nt, cplx{0.0, 0.0});
  *metric = 0.0;
  *stats = DetectionStats{};

  // Decode the fully-expanded level symbols from the path index: digit 0
  // drives the topmost level (detected first).
  std::size_t v = path_index;
  for (std::size_t d = 0; d < full_levels_; ++d) {
    ws.symbols[nt - 1 - d] = static_cast<int>(v % q);
    v /= q;
  }

  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) {
      b -= r(i, j) * ws.s[j];
      stats->real_mults += 4;
      stats->flops += 8;
    }
    int x;
    if (ii < full_levels_) {
      x = ws.symbols[i];  // enumerated level
    } else {
      // Greedy single-child extension: nearest constellation point.
      x = constellation_->slice(b / r(i, i));
      stats->real_mults += 4;  // complex-by-real-reciprocal divide
      stats->flops += 8;
    }
    ws.symbols[i] = x;
    ws.s[i] = constellation_->point(x);
    *metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
    stats->real_mults += 2;
    stats->flops += 5;
    ++stats->nodes_visited;
  }
}

bool FcsdDetector::reconstruct_winner(std::span<const cplx> ybar,
                                      std::size_t best_path,
                                      double /*best_metric*/,
                                      detect::Workspace& ws,
                                      DetectionResult* res) const {
  evaluate_path(ybar, best_path, ws, &res->metric, &res->stats);
  linalg::unpermute_into(ws.symbols, qr_.perm, &res->symbols);
  res->stats.paths_evaluated = num_paths();
  return false;
}

FLEXCORE_HOT_PATH
double FcsdDetector::path_metric(std::span<const cplx> ybar,
                                 std::size_t path_index) const {
  const CMat& r = qr_.R;
  const std::size_t nt = r.cols();
  assert(nt <= 32);
  const std::size_t q = static_cast<std::size_t>(constellation_->order());

  std::array<int, 32> top;
  std::size_t v = path_index;
  for (std::size_t d = 0; d < full_levels_; ++d) {
    top[d] = static_cast<int>(v % q);
    v /= q;
  }

  std::array<cplx, 32> s;
  double metric = 0.0;
  for (std::size_t ii = 0; ii < nt; ++ii) {
    const std::size_t i = nt - 1 - ii;
    cplx b = ybar[i];
    for (std::size_t j = i + 1; j < nt; ++j) b -= r(i, j) * s[j];
    const int x = (ii < full_levels_)
                      ? top[ii]
                      : constellation_->slice(b / r(i, i));
    s[i] = constellation_->point(x);
    metric += linalg::abs2(b - rx_[i][static_cast<std::size_t>(x)]);
  }
  return metric;
}

DetectionResult FcsdDetector::detect_rotated(const CVec& ybar,
                                             bool* fell) const {
  const std::size_t paths = num_paths();

  DetectionResult res;
  res.metric = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < paths; ++p) {
    PathEval ev = evaluate_path(ybar, p);
    res.stats += ev.stats;
    if (ev.metric < res.metric) {
      res.metric = ev.metric;
      res.symbols = std::move(ev.symbols);
    }
  }
  res.symbols = linalg::unpermute(res.symbols, qr_.perm);
  res.stats.paths_evaluated = paths;
  *fell = false;  // every FCSD path is always valid
  return res;
}

}  // namespace flexcore::detect
