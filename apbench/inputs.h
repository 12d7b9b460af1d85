// Workload definitions, seeded input generation and the benchmark's own
// zero-forcing reference receiver.
//
// Inputs are built before any set-up or timing: Kronecker-correlated
// multipath channels from channel::TraceGenerator (Gauss-Markov evolved per
// frame on the mobile workload), LS-estimated with channel::estimate_channel
// from pilots at the workload SNR, and random QAM payloads sent over the TRUE
// channels with their transmitted indices recorded.  The very-high-SNR frame
// of each cell is built the same way from a fixed seed, not from --seed.  The program under test
// only ever sees the resulting FrameJobs (estimated channels, received
// vectors, estimated noise variance).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/uplink_pipeline.h"
#include "linalg/matrix.h"
#include "modulation/constellation.h"

namespace apbench {

struct Workload {
  const char* name;
  std::size_t nr;    ///< access-point antennas
  std::size_t nt;    ///< single-antenna users
  std::size_t nsc;   ///< data subcarriers per frame
  std::size_t nsym;  ///< OFDM symbols per frame (vectors per subcarrier)
  int qam;
  double snr_db;     ///< per-user SNR of pilots and payload
  /// Fresh Gauss-Markov-evolved channel every frame; otherwise the channel
  /// is static for the run and the cells reuse their preprocessing.
  bool mobile;
  std::vector<std::string> cells;  ///< detector spec of each cell
  std::size_t frames_per_cell;     ///< distinct input frames, cycled
  std::size_t window;              ///< frames in flight per cell
};

/// The benchmark's workloads, by name; nullptr for an unknown name.
const Workload* find_workload(const std::string& name);
std::string workload_names();

/// One frame of input, in FrameJob layout (ys subcarrier-major).
struct InputFrame {
  std::vector<flexcore::linalg::CMat> channels;  ///< LS estimates, one per subcarrier
  std::vector<flexcore::linalg::CVec> ys;
  std::vector<int> tx;  ///< transmitted indices, tx[v * nt + u]
  double noise_var = 0.0;  ///< mean estimated noise variance
  std::size_t nsym = 0;

  /// The frame as a FrameJob; its spans borrow this frame.
  flexcore::api::FrameJob job(bool reuse_preprocessing) const;
  std::size_t vectors() const noexcept { return ys.size(); }
};

struct CellInputs {
  std::vector<InputFrame> frames;  ///< cycled by the load generator
  InputFrame high_snr;             ///< must decode without a symbol error
};

/// Builds every cell's inputs from `seed` (same seed, same inputs); the
/// high-SNR frames do not depend on `seed`.
std::vector<CellInputs> make_inputs(const Workload& w, std::uint64_t seed);

/// Symbol errors of detection results against the frame's transmitted
/// indices (results in the frame's ys order).
std::size_t symbol_errors(const InputFrame& frame,
                          std::span<const flexcore::detect::DetectionResult>
                              results);

/// Symbol errors of the benchmark's zero-forcing receiver on the frame:
/// x = (H^H H)^-1 H^H y by its own complex Gaussian elimination (no linalg
/// calls), each stream sliced to the nearest constellation point.
std::size_t zf_symbol_errors(const InputFrame& frame,
                             const flexcore::modulation::Constellation& c);

}  // namespace apbench
