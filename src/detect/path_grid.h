// The flat task grid at the heart of FlexCore's parallel detection (paper
// §4): the GPU implementation generates Nsc * |E| threads (FlexCore) or
// Nsc * |Q|^L threads (FCSD); here the same grid is executed by a
// ThreadPool, with each task scanning its paths through the lane-parallel
// block kernel (detect/path_kernels.h).
//
// One grid serves every caller: run_frame_grid runs the (subcarrier x
// vector x path) grid of an OFDM frame behind
// api::UplinkPipeline::detect_frame, and a single channel is the nsc = 1
// case behind PathDetector::detect_batch (the Fig. 11 benchmark times
// exactly that grid).  reconstruct_frame_grid then turns the grid's
// verdicts into DetectionResults.
//
// Both write into a caller-owned FrameGridOutput whose buffers are resized,
// never shrunk, so steady-state runs perform zero heap allocations
// (verified by the operator-new-counting tests in tests/frame_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "detect/detector.h"
#include "detect/workspace.h"
#include "linalg/simd.h"
#include "linalg/types.h"
#include "parallel/thread_pool.h"

namespace flexcore::detect {

class PathDetector;

/// Paths per block-kernel call.  Sized for the widest tier: the int16
/// quantized plans evaluate a FUSED PAIR of 16-lane blocks per kernel call
/// (2 x kSimdLanesI16 = 32 paths — adjacent blocks share every per-level
/// scalar broadcast), and the fp64 plan accepts any range (it re-blocks
/// internally), so scanning at this width never double-evaluates a block
/// in either tier and leaves the fp64 min-reduction order — hence its
/// bit-exact results — unchanged.
inline constexpr std::size_t kPathBlockLanes = 2 * linalg::kSimdLanesI16;

/// Scans paths [0, num_paths) of one rotated vector through the detector's
/// block kernel, tracking the minimum inline (strict <, first index wins —
/// the sequential reduction's tie-break, so results are bit-identical at
/// any thread count and block width).
void scan_paths(const PathDetector& det, std::span<const linalg::cplx> ybar,
                std::size_t num_paths, std::size_t* best_path,
                double* best_metric);

/// Output and scratch of one frame-grid run.  "Unit" u = f * nv + t is the
/// (subcarrier f, vector t) pair, subcarrier-major — the same layout as the
/// input vectors.  Buffers are resized, never shrunk, so reusing the same
/// FrameGridOutput across frames of equal (or smaller) shape performs no
/// allocation at all.
///
/// A best_metric of +infinity means every path of that unit was
/// deactivated (FlexCore's out-of-constellation policy);
/// reconstruct_frame_grid applies the SIC fallback to such units.
struct FrameGridOutput {
  // flexcore-lint: allow-next-line(HP005) documented AoS handoff to detectors
  std::vector<linalg::cplx> ybars;     ///< flat rotated inputs, nt per unit
  std::vector<std::size_t> best_path;  ///< winning path index per unit
  std::vector<double> best_metric;     ///< its distance (+inf: all paths dead)
  std::size_t nt = 0;                  ///< levels per rotated vector
  std::size_t tasks = 0;               ///< sum over subcarriers of nv * paths
  double elapsed_seconds = 0.0;        ///< wall-clock of the task grid

  // Reconstruction scratch: per-worker arenas and per-unit fallback flags.
  WorkspaceBank workspaces;
  std::vector<std::uint8_t> fell;

  std::span<const linalg::cplx> ybar(std::size_t unit) const {
    return {ybars.data() + unit * nt, nt};
  }
};

/// Runs the subcarrier x vector x path grid of one frame: `dets[f]` is the
/// per-subcarrier detector (channel already installed, all of one antenna
/// geometry) evaluating its parallel_tasks() paths for each of the
/// `vectors_per_channel` vectors `ys[f * vectors_per_channel + ...]`.
/// Each task rotates its vector into the flat ybar buffer and scans its
/// paths with the minimum tracked inline (the paper's pipelined minimum
/// tree); rotation is part of the timed work, as in the paper's kernel
/// timing.  Steady-state tasks perform zero heap allocations.
void run_frame_grid(std::span<const PathDetector* const> dets,
                    std::span<const linalg::CVec> ys,
                    std::size_t vectors_per_channel,
                    parallel::ThreadPool& pool, FrameGridOutput* grid);

/// Second phase of a frame-grid run: builds one DetectionResult per unit
/// into `results` (an instrumented walk of the winning path, or the SIC
/// fallback where every path was deactivated), across `pool`, and adds the
/// per-unit stats and fallback count to *stats / *sic_fallbacks.  Uses the
/// grid's scratch, so warm runs allocate nothing.
void reconstruct_frame_grid(std::span<const PathDetector* const> dets,
                            std::size_t vectors_per_channel,
                            parallel::ThreadPool& pool, FrameGridOutput* grid,
                            std::span<DetectionResult> results,
                            DetectionStats* stats,
                            std::size_t* sic_fallbacks);

}  // namespace flexcore::detect
