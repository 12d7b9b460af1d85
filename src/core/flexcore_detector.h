// The FlexCore parallel detector (paper §3.2): evaluate the pre-selected
// most-promising tree paths, one processing element per path, and return
// the minimum-distance candidate.
//
// This class is the library's primary public API.  Usage:
//
//   Constellation qam(64);
//   FlexCoreDetector det(qam, {.num_pes = 128});
//   det.set_channel(H, noise_var);        // QR + pre-processing
//   DetectionResult r = det.detect(y);    // parallel-friendly path walk
//
// The per-path work (evaluate_path) is pure and thread-safe, so callers can
// fan the paths out across any execution resource; detect() runs them
// sequentially, while the shared path-detector machinery
// (detect/path_detector.h) runs detect_batch and
// api::UplinkPipeline::detect_frame as one flat grid the way the paper maps
// tasks onto GPU threads / FPGA engines.
#pragma once

#include <optional>
#include <span>

#include "core/ordering_lut.h"
#include "core/preprocessing.h"
#include "detect/path_detector.h"
#include "detect/workspace.h"

namespace flexcore::core {

using detect::DetectionResult;
using detect::DetectionStats;
using detect::Detector;
using linalg::CMat;
using linalg::CVec;

/// How the k-th closest symbol is located during the path walk.
enum class OrderingMode {
  kLut,        ///< triangle LUT (the paper's design; no sorting)
  kExactSort,  ///< exhaustive per-level sort (ablation / upper bound)
};

/// FlexCore configuration.
struct FlexCoreConfig {
  /// Available processing elements: the most paths pre-processing selects.
  /// Without an adaptive threshold the search still runs at stop_threshold
  /// 1.0, which stops it once pc_sum rounds to 1.0 (see
  /// PreprocessingConfig::stop_threshold), so fewer paths may be active.
  std::size_t num_pes = 64;
  /// If > 0, run as a-FlexCore: activate only the first paths whose
  /// cumulative Pc reaches this threshold (0.95 in the paper's Fig. 10).
  double adaptive_threshold = 0.0;
  /// Per-level error-probability model (DESIGN.md "Eq. 4 prefactor").
  /// Default kExactSer: the SER-calibrated model the paper's Appendix
  /// validates in Fig. 14.  kPaperErfc (Eq. 4 exactly as printed, which
  /// drops the constellation minimum-distance factor) is kept as an
  /// ablation; it degenerates the path allocation for dense constellations.
  modulation::PeModel pe_model = modulation::PeModel::kExactSer;
  OrderingMode ordering = OrderingMode::kLut;
  InvalidEntryPolicy invalid_policy = InvalidEntryPolicy::kDeactivate;
  LutSource lut_source = LutSource::kCentroid;
  /// Candidate-list cap for pre-processing (0 = num_pes, the paper's rule).
  std::size_t candidate_list_cap = 0;
  /// Pre-processing nodes expanded per round (1 = sequential).
  std::size_t batch_expand = 1;
  /// Compute tier of the path grids (detect/path_kernels.h): kFloat64 is
  /// bit-identical to the scalar kernels; kInt16 runs the quantized
  /// fixed-point kernel (spec suffix ":i16", accuracy bounded by
  /// detect::kI16SerTolerance).  Winner reconstruction and the sequential
  /// detect() path stay double in both tiers.  The registry sets it from
  /// the spec suffix alone.
  detect::Precision precision = detect::Precision::kFloat64;
};

/// Soft-output extension (§7 "promising next step"): max-log LLRs computed
/// from the evaluated path list.
struct SoftOutput {
  /// llrs[a][b] = LLR of bit b of antenna a (original antenna order),
  /// positive = bit 0 more likely.  Clipped to +-`kLlrClip` when only one
  /// hypothesis appears in the candidate list.
  std::vector<std::vector<double>> llrs;
  DetectionResult hard;  ///< the ordinary hard decision
  static constexpr double kLlrClip = 50.0;
};

class FlexCoreDetector : public detect::PathDetector {
 public:
  FlexCoreDetector(const Constellation& c, FlexCoreConfig cfg);

  void set_channel(const CMat& h, double noise_var) override;

  std::string name() const override;
  std::size_t parallel_tasks() const override { return active_paths(); }

  /// Number of paths actually evaluated per vector: |E| for plain FlexCore,
  /// the adaptive prefix size for a-FlexCore.
  std::size_t active_paths() const;

  /// Cumulative model probability of the active path set.
  double active_pc_sum() const;

  /// Pre-processing output for the current channel (selected position
  /// vectors, Pe values, multiplication counts).
  const PreprocessingResult& preprocessing() const { return preproc_; }

  /// Result of walking one path; `valid` is false when a LUT entry pointed
  /// outside the constellation and the policy deactivated the PE.
  struct PathEval {
    bool valid = false;
    double metric = 0.0;
    std::vector<int> symbols;  // tree (permuted) order
    DetectionStats stats;
  };

  /// Walks path `path_index` (into preprocessing().paths); thread-safe.
  PathEval evaluate_path(const CVec& ybar, std::size_t path_index) const;

  /// Buffer-reusing instrumented path walk: symbol decisions land in
  /// ws.symbols (tree order), scratch in ws.s, and *stats is overwritten
  /// with this walk's counters.  Returns false when the path was
  /// deactivated (then ws.symbols/metric are partial, as in PathEval).
  bool evaluate_path(std::span<const linalg::cplx> ybar,
                     std::size_t path_index, detect::Workspace& ws,
                     double* metric, DetectionStats* stats) const;

  /// Metric-only scalar path walk, the fp64 oracle of the block kernel
  /// and the exact rescan of reconstruct_winner: no allocation, no
  /// instrumentation.  Returns +infinity for deactivated paths.  Requires
  /// Nt <= 32.
  double path_metric(std::span<const linalg::cplx> ybar,
                     std::size_t path_index) const;

  /// Walks the grid's winning path.  In the i16 tier, when the grid found
  /// every path dead or crowned a path the exact walk deactivates, one
  /// exact scalar rescan rescues the vector before the plain-SIC fallback.
  bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                          std::size_t best_path, double best_metric,
                          detect::Workspace& ws,
                          DetectionResult* res) const override;

  /// Hard detection + list-based max-log LLRs (soft extension).
  SoftOutput detect_soft(const CVec& y) const;

  const FlexCoreConfig& config() const noexcept { return cfg_; }
  const OrderingLut& lut() const noexcept { return lut_; }

 private:
  DetectionResult detect_rotated(const CVec& ybar, bool* fell) const override {
    return reduce(ybar, nullptr, fell);
  }

  /// Sequential reduction over all active paths; sets *fell (when given) if
  /// every path was deactivated and the SIC fallback produced the result.
  DetectionResult reduce(const CVec& ybar, std::vector<PathEval>* keep_all,
                         bool* fell = nullptr) const;

  /// Fallback when every PE was deactivated: walks the [1,1,...,1] path
  /// with exact slicing (plain SIC), which is always valid.  Fills
  /// `res->symbols` in tree (permuted) order and `res->metric`; scratch
  /// lives in `ws`.
  void sic_fallback_into(std::span<const linalg::cplx> ybar,
                         detect::Workspace& ws, DetectionResult* res) const;

  FlexCoreConfig cfg_;
  OrderingLut lut_;
  PreprocessingResult preproc_;
  std::size_t active_paths_ = 0;
  double noise_var_ = 1.0;
  CVec r_diag_inv_;  // 1 / R(i,i)
};

}  // namespace flexcore::core
