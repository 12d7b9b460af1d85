// Common base of the path-parallel detector families (FlexCore, FCSD).
//
// Both families reduce one received vector to a minimum over a FIXED set
// of independent tree paths, so they share everything around the paths
// themselves: the Q-rotation of the installed channel, the compiled block
// kernel plan in the configured compute tier (fp64 PathPlan or int16
// PathPlanI16) and its dispatch, and the pooled detect_batch that runs the
// frame grid (detect/path_grid.h) with one subcarrier.  A family supplies
// only its preprocessing (set_channel, which calls install_qr and
// compile_plan), its scalar fp64 walks (detect_rotated and the path_metric
// oracle the block kernels are checked against) and reconstruct_winner.
#pragma once

#include <span>
#include <vector>

#include "detect/detector.h"
#include "detect/path_grid.h"
#include "detect/path_kernels.h"
#include "linalg/qr.h"

namespace flexcore::detect {

class PathDetector : public Detector {
 public:
  /// Batched detection: with an attached pool, the frame grid over one
  /// subcarrier (all vectors x all paths) followed by parallel winner
  /// reconstruction; symbols and metrics are identical to per-vector
  /// detect() at fp64.  Without a pool (or with no paths), a sequential
  /// loop over the fully instrumented walk.  See BatchResult for the
  /// stats contract.
  void detect_batch(std::span<const CVec> ys, BatchResult* out) const override;
  void set_thread_pool(parallel::ThreadPool* pool) override { pool_ = pool; }

  /// Sequential detection of one vector: every path walked with full
  /// instrumentation in fp64, whatever the compute tier.
  DetectionResult detect(const CVec& y) const override;

  /// Writes ybar = Q^H y into `out` without allocating.  out.size() must be
  /// Nt (= R.cols()).
  void rotate_into(const CVec& y, std::span<linalg::cplx> out) const;

  /// Rotates a received vector into tree-search coordinates (ybar = Q^H y).
  CVec rotate(const CVec& y) const {
    CVec out(qr_.R.cols());
    rotate_into(y, out);
    return out;
  }

  /// Lane-parallel block kernel: metrics of paths [first_path,
  /// first_path + n_paths) in one call, through the plan compiled by
  /// set_channel in the configured tier.  At kFloat64 the metrics are
  /// bit-identical to the family's scalar path_metric per path.
  /// Thread-safe, allocation-free.
  void path_metric_block(std::span<const linalg::cplx> ybar,
                         std::size_t first_path, std::size_t n_paths,
                         double* out_metrics) const {
    if (precision_ == Precision::kInt16) {
      plan16_.path_metric_block(ybar, first_path, n_paths, out_metrics);
    } else {
      plan64_.path_metric_block(ybar, first_path, n_paths, out_metrics);
    }
  }

  /// Builds the final DetectionResult of one vector from a grid verdict:
  /// an instrumented walk of the winning path (or the family's rescue when
  /// `best_metric` is +infinity), symbols in ORIGINAL antenna order.
  /// Returns true when the plain-SIC fallback produced the result.
  /// Scratch lives in `ws`; thread-safe.
  virtual bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                                  std::size_t best_path, double best_metric,
                                  Workspace& ws,
                                  DetectionResult* res) const = 0;

  Precision precision() const noexcept { return precision_; }

  /// Heap footprint of the compiled plan of the configured tier (reported
  /// by bench/micro_kernels).
  std::size_t plan_footprint_bytes() const {
    return precision_ == Precision::kInt16 ? plan16_.footprint_bytes()
                                           : plan64_.footprint_bytes();
  }

  /// The quantized plan of the current channel (compiled only when the
  /// configured precision is kInt16) — quantization introspection for
  /// tests and benches.
  const PathPlanI16& plan_i16() const noexcept { return plan16_; }

  const linalg::QrResult& qr() const noexcept { return qr_; }
  const Constellation& constellation() const noexcept {
    return *constellation_;
  }

 protected:
  PathDetector(const Constellation& c, Precision precision)
      : constellation_(&c), precision_(precision) {}

  /// Installs a channel's QR decomposition and tabulates rx_[i][x] =
  /// R(i,i) * point(x), the reference both scalar walks read.
  void install_qr(linalg::QrResult qr);

  /// Compiles the plan of the configured tier with `compile(plan)` (a
  /// generic callable invoking compile_flexcore / compile_fcsd) and clears
  /// the other tier's plan, so stale state can never be evaluated.
  template <typename Compile>
  void compile_plan(Compile&& compile) {
    if (precision_ == Precision::kInt16) {
      compile(plan16_);
      plan64_.clear();
    } else {
      compile(plan64_);
      plan16_.clear();
    }
  }

  /// The sequential walk behind detect() and the pool-less detect_batch:
  /// every path of rotated `ybar`, fully instrumented, symbols in original
  /// antenna order; sets *fell when the plain-SIC fallback produced it.
  virtual DetectionResult detect_rotated(const CVec& ybar,
                                         bool* fell) const = 0;

  const Constellation* constellation_;
  Precision precision_;
  linalg::QrResult qr_;
  std::vector<CVec> rx_;  // rx_[i][x] = R(i,i) * point(x)

 private:
  PathPlan plan64_;
  PathPlanI16 plan16_;
  parallel::ThreadPool* pool_ = nullptr;
  // Grid buffers and reconstruction scratch, kept across detect_batch
  // calls so repeated per-subcarrier batches stay at their high-water mark
  // (zero steady-state allocations).  Guarded by the detect_batch contract
  // (one driver thread at a time).
  mutable FrameGridOutput grid_;
};

}  // namespace flexcore::detect
