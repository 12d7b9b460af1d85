#include "detect/path_grid.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "detect/path_detector.h"
#include "parallel/hot_path.h"

namespace flexcore::detect {

FLEXCORE_HOT_PATH
void scan_paths(const PathDetector& det, std::span<const linalg::cplx> ybar,
                std::size_t num_paths, std::size_t* best_path,
                double* best_metric) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_p = 0;
  double m[kPathBlockLanes];
  for (std::size_t p = 0; p < num_paths; p += kPathBlockLanes) {
    const std::size_t n = std::min(kPathBlockLanes, num_paths - p);
    det.path_metric_block(ybar, p, n, m);
    for (std::size_t k = 0; k < n; ++k) {
      if (m[k] < best) {
        best = m[k];
        best_p = p + k;
      }
    }
  }
  *best_path = best_p;
  *best_metric = best;
}

FLEXCORE_HOT_PATH
void run_frame_grid(std::span<const PathDetector* const> dets,
                    std::span<const linalg::CVec> ys,
                    std::size_t vectors_per_channel,
                    parallel::ThreadPool& pool, FrameGridOutput* grid) {
  const std::size_t nsc = dets.size();
  const std::size_t units = nsc * vectors_per_channel;
  const std::size_t nt = nsc == 0 ? 0 : dets[0]->qr().R.cols();
  grid->nt = nt;
  grid->tasks = 0;
  for (std::size_t f = 0; f < nsc; ++f) {
    grid->tasks += vectors_per_channel * dets[f]->parallel_tasks();
  }
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  grid->ybars.resize(units * nt);
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  grid->best_path.assign(units, 0);
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  grid->best_metric.assign(units, std::numeric_limits<double>::infinity());
  if (units == 0) {
    grid->elapsed_seconds = 0.0;
    return;
  }

  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_for(units, [&](std::size_t u) {
    const std::size_t f = u / vectors_per_channel;
    const PathDetector& det = *dets[f];
    const std::span<linalg::cplx> ybar{grid->ybars.data() + u * nt, nt};
    det.rotate_into(ys[u], ybar);
    scan_paths(det, std::span<const linalg::cplx>(ybar), det.parallel_tasks(),
               &grid->best_path[u], &grid->best_metric[u]);
  });
  grid->elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

FLEXCORE_HOT_PATH
void reconstruct_frame_grid(std::span<const PathDetector* const> dets,
                            std::size_t vectors_per_channel,
                            parallel::ThreadPool& pool, FrameGridOutput* grid,
                            std::span<DetectionResult> results,
                            DetectionStats* stats,
                            std::size_t* sic_fallbacks) {
  const std::size_t units = dets.size() * vectors_per_channel;
  grid->workspaces.ensure(pool.size());
  // flexcore-lint: allow-next-line(HP001) warm-capacity reuse, never shrunk
  grid->fell.assign(units, 0);
  pool.parallel_for_worker(units, [&](std::size_t w, std::size_t u) {
    grid->fell[u] = dets[u / vectors_per_channel]->reconstruct_winner(
        grid->ybar(u), grid->best_path[u], grid->best_metric[u],
        grid->workspaces.at(w), &results[u]);
  });
  for (std::size_t u = 0; u < units; ++u) {
    *stats += results[u].stats;
    *sic_fallbacks += grid->fell[u];
  }
}

}  // namespace flexcore::detect
