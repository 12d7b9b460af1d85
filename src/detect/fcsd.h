// Fixed Complexity Sphere Decoder (Barbero & Thompson), the paper's main
// competitor.
//
// The FCSD fully expands the top `full_levels` (L) tree levels — visiting
// all |Q|^L combinations — and extends each combination greedily (branching
// factor one, nearest child) through the remaining Nt - L levels.  All
// |Q|^L paths are independent, so at minimum latency the FCSD needs exactly
// |Q|^L processing elements: the inflexibility FlexCore removes (§2).
#pragma once

#include <span>

#include "detect/path_detector.h"
#include "detect/workspace.h"

namespace flexcore::detect {

class FcsdDetector : public PathDetector {
 public:
  /// `full_levels` = L, the number of fully-expanded levels (1 or 2 in the
  /// paper's evaluation).  `precision` selects the compute tier of the
  /// path grids (spec suffix ":i16"); everything outside the grid stays
  /// double.
  FcsdDetector(const Constellation& c, std::size_t full_levels,
               Precision precision = Precision::kFloat64)
      : PathDetector(c, precision), full_levels_(full_levels) {}

  void set_channel(const CMat& h, double noise_var) override;

  std::string name() const override {
    return "fcsd-L" + std::to_string(full_levels_) +
           precision_suffix(precision_);
  }
  std::size_t parallel_tasks() const override { return num_paths(); }

  /// |Q|^L — the number of independent paths / required PEs.
  std::size_t num_paths() const;
  std::size_t full_levels() const noexcept { return full_levels_; }

  /// Evaluation of a single FCSD path, the unit of parallel work.
  struct PathEval {
    double metric = 0.0;
    std::vector<int> symbols;  // permuted (tree) order
    DetectionStats stats;
  };

  /// Evaluates path `path_index` in [0, num_paths()): the base-|Q| digits of
  /// the index select the symbols of the fully-expanded top levels.  Thread-
  /// safe; used directly by the parallel engine benchmarks.
  PathEval evaluate_path(const CVec& ybar, std::size_t path_index) const;

  /// Buffer-reusing instrumented path walk: symbol decisions land in
  /// ws.symbols (tree order), scratch in ws.s, counters overwrite *stats.
  /// Every FCSD path is valid, so there is no failure mode.
  void evaluate_path(std::span<const linalg::cplx> ybar,
                     std::size_t path_index, detect::Workspace& ws,
                     double* metric, DetectionStats* stats) const;

  /// Metric-only scalar path walk (no allocation / instrumentation), the
  /// fp64 oracle of the block kernel.  Requires Nt <= 32.
  double path_metric(std::span<const linalg::cplx> ybar,
                     std::size_t path_index) const;

  /// Walks the grid's winning path.  Always returns false (FCSD has no
  /// fallback).
  bool reconstruct_winner(std::span<const linalg::cplx> ybar,
                          std::size_t best_path, double best_metric,
                          detect::Workspace& ws,
                          DetectionResult* res) const override;

 private:
  DetectionResult detect_rotated(const CVec& ybar, bool* fell) const override;

  std::size_t full_levels_;
};

}  // namespace flexcore::detect
