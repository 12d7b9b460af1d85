#include "detect/path_detector.h"

#include <chrono>
#include <utility>

#include "parallel/hot_path.h"
#include "parallel/thread_pool.h"

namespace flexcore::detect {

FLEXCORE_HOT_PATH
void PathDetector::rotate_into(const CVec& y, std::span<cplx> out) const {
  linalg::hermitian_mul_into(qr_.Q, y, out);
}

void PathDetector::install_qr(linalg::QrResult qr) {
  qr_ = std::move(qr);
  const std::size_t nt = qr_.R.cols();
  const int q = constellation_->order();
  rx_.assign(nt, CVec(static_cast<std::size_t>(q)));
  for (std::size_t i = 0; i < nt; ++i) {
    for (int x = 0; x < q; ++x) {
      rx_[i][static_cast<std::size_t>(x)] =
          qr_.R(i, i) * constellation_->point(x);
    }
  }
}

DetectionResult PathDetector::detect(const CVec& y) const {
  bool fell = false;
  return detect_rotated(rotate(y), &fell);
}

void PathDetector::detect_batch(std::span<const CVec> ys,
                                BatchResult* out) const {
  out->stats = DetectionStats{};
  out->sic_fallbacks = 0;
  if (pool_ == nullptr || parallel_tasks() == 0 || ys.empty()) {
    // Sequential loop with the base-class contract (full per-path
    // instrumentation, tasks = vector count) and the SIC-fallback counter
    // kept consistent with the pooled grid.
    out->results.clear();
    out->results.reserve(ys.size());
    out->tasks = ys.size();
    const auto t0 = std::chrono::steady_clock::now();
    for (const CVec& y : ys) {
      bool fell = false;
      out->results.push_back(detect_rotated(rotate(y), &fell));
      out->stats += out->results.back().stats;
      out->sic_fallbacks += fell;
    }
    out->elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return;
  }
  // The frame grid with one subcarrier.
  const PathDetector* const self = this;
  const std::span<const PathDetector* const> dets(&self, 1);
  run_frame_grid(dets, ys, ys.size(), *pool_, &grid_);
  out->tasks = grid_.tasks;
  out->elapsed_seconds = grid_.elapsed_seconds;
  out->results.assign(ys.size(), DetectionResult{});
  reconstruct_frame_grid(dets, ys.size(), *pool_, &grid_, out->results,
                         &out->stats, &out->sic_fallbacks);
}

}  // namespace flexcore::detect
