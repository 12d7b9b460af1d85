// Tests for the lane-parallel path-kernel engine (detect/path_kernels.h):
// fp64 block kernels bit-identical to the scalar path_metric across
// detector families x constellations x MIMO sizes, the tier spec grammar
// round-tripping through the registry, and the int16 quantized tier
// (golden slicer patterns, quantization scales, SER within
// detect::kI16SerTolerance, cross-ISA bit-identical metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "api/detector_registry.h"
#include "api/uplink_pipeline.h"
#include "channel/channel.h"
#include "core/flexcore_detector.h"
#include "detect/fcsd.h"
#include "detect/path_kernels.h"
#include "parallel/thread_pool.h"
#include "perfmodel/fixed_point.h"
#include "sim/frame_synth.h"

namespace fa = flexcore::api;
namespace ch = flexcore::channel;
namespace fc = flexcore::core;
namespace fd = flexcore::detect;
namespace fs = flexcore::sim;
namespace fl = flexcore::linalg;
using flexcore::modulation::Constellation;

namespace {

fl::CVec random_y(const fl::CMat& h, const Constellation& c, double nv,
                  ch::Rng& rng) {
  fl::CVec s(h.cols());
  for (auto& z : s) {
    z = c.point(static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(c.order()))));
  }
  return ch::transmit(h, s, nv, rng);
}

/// Asserts the block kernel reproduces the scalar path_metric bit-for-bit
/// over every path of one rotated vector.
template <typename D>
void expect_block_matches_scalar(const D& det, std::size_t paths,
                                 const fl::CVec& ybar, const char* what) {
  std::vector<double> blk(paths);
  det.path_metric_block(ybar, 0, paths, blk.data());
  for (std::size_t p = 0; p < paths; ++p) {
    const double scalar = det.path_metric(ybar, p);
    EXPECT_EQ(scalar, blk[p]) << what << " path " << p;
  }
}

// ----------------------------------------------------- fp64 bit-identity

TEST(KernelEquivalence, FlexCoreFp64BlockMatchesScalar) {
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 3u, 4u, 6u, 8u, 12u, 16u}) {
      ch::Rng rng(100 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(15.0);
      for (const char* family : {"flexcore-24", "a-flexcore-24"}) {
        const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
            family, {.constellation = &c});
        det->set_channel(h, nv);
        for (int rep = 0; rep < 4; ++rep) {
          const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
          expect_block_matches_scalar(*det, det->active_paths(), ybar,
                                      family);
        }
      }
    }
  }
}

TEST(KernelEquivalence, FcsdFp64BlockMatchesScalar) {
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    for (std::size_t nt : {2u, 4u, 8u, 12u, 16u}) {
      ch::Rng rng(999 * static_cast<std::uint64_t>(qam) + nt);
      const auto h = ch::rayleigh_iid(nt, nt, rng);
      const double nv = ch::noise_var_for_snr_db(15.0);
      fd::FcsdDetector det(c, 1);
      det.set_channel(h, nv);
      for (int rep = 0; rep < 4; ++rep) {
        const fl::CVec ybar = det.rotate(random_y(h, c, nv, rng));
        expect_block_matches_scalar(det, det.num_paths(), ybar, "fcsd-L1");
      }
    }
  }
}

TEST(KernelEquivalence, DeactivatedPathsMatchAsInfinity) {
  // Brutal noise pushes effective points far outside the constellation, so
  // LUT entries deactivate; the block kernel must report exactly the same
  // +infinity verdicts as the scalar walk.
  Constellation c(64);
  ch::Rng rng(7);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = 4.0;
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32", {.constellation = &c});
  det->set_channel(h, nv);

  std::size_t saw_inf = 0;
  for (int rep = 0; rep < 20; ++rep) {
    const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));
    std::vector<double> blk(det->active_paths());
    det->path_metric_block(ybar, 0, blk.size(), blk.data());
    for (std::size_t p = 0; p < blk.size(); ++p) {
      const double scalar = det->path_metric(ybar, p);
      EXPECT_EQ(scalar, blk[p]) << "path " << p;
      saw_inf += std::isinf(blk[p]);
    }
  }
  EXPECT_GT(saw_inf, 0u)
      << "scenario no longer deactivates any PE; raise the noise";
}

TEST(KernelEquivalence, AblationOrderingModesMatchScalar) {
  // The exact-sort ordering and the skip-to-valid LUT policy compile to
  // the per-lane fallback modes; both must still match the scalar kernel
  // bitwise.
  Constellation c(16);
  ch::Rng rng(11);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = ch::noise_var_for_snr_db(12.0);

  fa::DetectorConfig cfg{.constellation = &c};
  cfg.flexcore.num_pes = 16;
  cfg.flexcore.ordering = fc::OrderingMode::kExactSort;
  const auto exact =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore-16", cfg);
  exact->set_channel(h, nv);

  cfg.flexcore.ordering = fc::OrderingMode::kLut;
  cfg.flexcore.invalid_policy = fc::InvalidEntryPolicy::kSkipToValid;
  const auto skipper =
      fa::make_detector_as<fc::FlexCoreDetector>("flexcore-16", cfg);
  skipper->set_channel(h, nv);

  for (int rep = 0; rep < 4; ++rep) {
    const fl::CVec y = random_y(h, c, nv, rng);
    expect_block_matches_scalar(*exact, exact->active_paths(),
                                exact->rotate(y), "exact-sort");
    expect_block_matches_scalar(*skipper, skipper->active_paths(),
                                skipper->rotate(y), "skip-to-valid");
  }
}

TEST(KernelEquivalence, MisalignedBlockRangesMatch) {
  // path_metric_block accepts any (first, n) range, not just whole blocks.
  Constellation c(16);
  ch::Rng rng(13);
  const auto h = ch::rayleigh_iid(6, 6, rng);
  const double nv = ch::noise_var_for_snr_db(14.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-29", {.constellation = &c});
  det->set_channel(h, nv);
  const std::size_t paths = det->active_paths();
  ASSERT_GT(paths, 11u);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  std::vector<double> all(paths);
  det->path_metric_block(ybar, 0, paths, all.data());
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {3, 5}, {7, 9}, {paths - 3, 3}, {1, paths - 1}};
  for (const auto& [first, n] : ranges) {
    std::vector<double> part(n);
    det->path_metric_block(ybar, first, n, part.data());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(part[k], all[first + k]) << "first=" << first << " k=" << k;
    }
  }
}

// ------------------------------------------------------- spec grammar

TEST(KernelSpecs, Fp64SuffixNormalizesThroughRegistry) {
  // ":fp64" is accepted and normalizes to the suffix-free spelling, which
  // round-trips through name(); families without block kernels reject it.
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec : {"flexcore-16", "a-flexcore-8", "fcsd-L1"}) {
    const auto det = fa::make_detector(std::string(spec) + ":fp64", cfg);
    EXPECT_EQ(det->name(), spec);
    EXPECT_EQ(fa::make_detector(det->name(), cfg)->name(), det->name());
  }
  EXPECT_THROW(fa::make_detector("zf:fp64", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("kbest-8:fp64", cfg), std::invalid_argument);
}

// ----------------------------------------------------- int16 quantized tier

TEST(KernelI16, SlicerLutGoldenPattern) {
  // With R = I the effective point equals the incoming coordinate, so the
  // compiled per-level slicer LUT must reproduce the textbook rounded
  // slice a = round((eff/scale + side - 1) / 2) over the whole covered
  // grid: exact at cell centers, stable at +-0.7 half-cells (well over a
  // bucket away from every decision boundary), pad indices outside the
  // constellation, and the deactivating sentinel beyond the coverage.
  for (int qam : {4, 16, 64}) {
    Constellation c(qam);
    const int side = c.side();
    fd::PathPlanI16 plan;
    plan.compile_fcsd(fl::CMat::identity(4), 1, c);
    for (std::size_t level = 0; level < 4; ++level) {
      // Value coverage is +-(side + kPamPad) * scale; the centers (and
      // their +-0.7 half-cell offsets) of a in [-2, side+1] all fall
      // strictly inside it for every square constellation.
      for (int a = -2; a <= side + 1; ++a) {
        const double center = (2.0 * a - (side - 1)) * c.scale();
        EXPECT_EQ(plan.slicer_center(level, center), a)
            << "qam=" << qam << " level=" << level << " a=" << a;
        for (double off : {-0.7, 0.7}) {
          EXPECT_EQ(plan.slicer_center(level, center + off * c.scale()), a)
              << "qam=" << qam << " level=" << level << " a=" << a
              << " off=" << off;
        }
      }
      EXPECT_EQ(plan.slicer_center(level, (side + 14) * c.scale()),
                fd::PathPlanI16::kSlicerInvalid);
      EXPECT_EQ(plan.slicer_center(level, -(side + 14) * c.scale()),
                fd::PathPlanI16::kSlicerInvalid);
    }
  }
}

TEST(KernelI16, QuantizationScalesRespectSharedFormat) {
  // The per-plan scales are channel-derived but the fractional resolution
  // is capped at the shared Q-format (perfmodel::I16Format) — the contract
  // that keeps the FPGA cost model and the shipped kernel in one format.
  Constellation c(64);
  ch::Rng rng(21);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-32:i16", {.constellation = &c});
  det->set_channel(ch::rayleigh_iid(12, 12, rng),
                   ch::noise_var_for_snr_db(20.0));
  const fd::PathPlanI16& plan = det->plan_i16();
  EXPECT_LE(plan.frac_bits(), flexcore::perfmodel::I16Format::kFracBits);
  EXPECT_GE(plan.point_bits(), 1);
  EXPECT_GT(plan.frac_bits(), 0) << "well-conditioned Rayleigh channel";
}

TEST(KernelI16, MisalignedBlockRangesSelfConsistent) {
  // Any (first, n) range must reproduce the full scan's values exactly:
  // the kernel evaluates whole 16-lane blocks (fused pairs on aligned
  // 32-path ranges) and copies out the requested lanes, so solo blocks,
  // pair blocks and tails must agree bit-for-bit.
  Constellation c(64);
  ch::Rng rng(17);
  const auto h = ch::rayleigh_iid(8, 8, rng);
  const double nv = ch::noise_var_for_snr_db(16.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-77:i16", {.constellation = &c});
  det->set_channel(h, nv);
  const std::size_t paths = det->active_paths();
  ASSERT_GT(paths, 40u);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  std::vector<double> all(paths);
  det->path_metric_block(ybar, 0, paths, all.data());
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 32},      {0, paths},    {5, 11},       {16, 16},
      {31, 2},      {32, 32},      {paths - 7, 7}, {1, paths - 1}};
  for (const auto& [first, n] : ranges) {
    std::vector<double> part(n);
    det->path_metric_block(ybar, first, n, part.data());
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(part[k], all[first + k]) << "first=" << first << " k=" << k;
    }
  }
}

TEST(KernelI16, SerWithinToleranceAcrossFamiliesAndQam) {
  // The documented accuracy contract of the quantized tier, swept across
  // detector families x constellations x MIMO sizes: end-to-end SER may
  // exceed the exact tier's by at most kI16SerTolerance per configuration
  // aggregate.  detect_batch over a pool routes detection through the
  // compiled plans (the sequential fallback walks paths in fp64).
  flexcore::parallel::ThreadPool pool(2);
  struct Sweep {
    const char* base;
    const char* i16;
    std::vector<std::size_t> nts;
  };
  const Sweep sweeps[] = {
      {"flexcore-32", "flexcore-32:i16", {2, 4, 8, 12, 16}},
      {"a-flexcore-32", "a-flexcore-32:i16", {2, 4, 8, 12}},
      {"fcsd-L1", "fcsd-L1:i16", {2, 4, 8}},
  };
  const std::pair<int, double> operating[] = {{4, 8.0}, {16, 14.0},
                                              {64, 20.0}};
  for (const Sweep& sw : sweeps) {
    for (const auto& [qam_order, snr_db] : operating) {
      Constellation c(qam_order);
      const fa::DetectorConfig cfg{.constellation = &c};
      const auto d64 = fa::make_detector(sw.base, cfg);
      const auto d16 = fa::make_detector(sw.i16, cfg);
      d64->set_thread_pool(&pool);
      d16->set_thread_pool(&pool);
      const double nv = ch::noise_var_for_snr_db(snr_db);

      std::size_t symbols = 0, err64 = 0, err16 = 0;
      ch::Rng rng(1000 + static_cast<std::uint64_t>(qam_order));
      fd::BatchResult out64, out16;
      for (const std::size_t nt : sw.nts) {
        const auto h = ch::rayleigh_iid(nt, nt, rng);
        d64->set_channel(h, nv);
        d16->set_channel(h, nv);
        std::vector<std::vector<int>> tx(8, std::vector<int>(nt));
        std::vector<fl::CVec> ys(8, fl::CVec(nt));
        fl::CVec s(nt);
        for (std::size_t v = 0; v < 8; ++v) {
          for (std::size_t u = 0; u < nt; ++u) {
            tx[v][u] = static_cast<int>(rng.uniform_int(
                static_cast<std::uint64_t>(qam_order)));
            s[u] = c.point(tx[v][u]);
          }
          ys[v] = ch::transmit(h, s, nv, rng);
        }
        d64->detect_batch(ys, &out64);
        d16->detect_batch(ys, &out16);
        for (std::size_t v = 0; v < 8; ++v) {
          for (std::size_t u = 0; u < nt; ++u) {
            ++symbols;
            err64 += out64.results[v].symbols[u] != tx[v][u];
            err16 += out16.results[v].symbols[u] != tx[v][u];
          }
        }
      }
      const double ser64 = static_cast<double>(err64) / static_cast<double>(symbols);
      const double ser16 = static_cast<double>(err16) / static_cast<double>(symbols);
      EXPECT_LE(ser16, ser64 + fd::kI16SerTolerance)
          << sw.i16 << " qam=" << qam_order << " ser64=" << ser64
          << " ser16=" << ser16;
    }
  }
}

TEST(KernelI16, MetricsBitIdenticalAcrossRepeatsAndGolden) {
  // The tier is pure-integer end-to-end, so its metrics are bit-identical
  // across runs, builds and ISAs.  The FNV hash below pins the exact bit
  // patterns of one fixed scenario: CI runs this suite both with the
  // native dispatch and with FLEXCORE_I16_ISA=base, so a divergence
  // between any per-ISA kernel copy and the portable fallback — or any
  // unintended change to the quantized datapath — fails here.
  Constellation c(64);
  ch::Rng rng(90);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
      "flexcore-64:i16", {.constellation = &c});
  det->set_channel(h, nv);
  const fl::CVec ybar = det->rotate(random_y(h, c, nv, rng));

  auto hash_metrics = [&]() {
    std::vector<double> m(det->active_paths());
    det->path_metric_block(ybar, 0, m.size(), m.data());
    std::uint64_t fnv = 1469598103934665603ull;
    for (const double v : m) {
      // +inf (deactivated) hashes via its bit pattern like any value.
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
      for (int b = 0; b < 64; b += 8) {
        fnv = (fnv ^ ((bits >> b) & 0xFF)) * 1099511628211ull;
      }
    }
    return fnv;
  };
  const std::uint64_t h1 = hash_metrics();
  EXPECT_EQ(h1, hash_metrics());
  EXPECT_EQ(h1, 0xe45c3940471ad014ull)
      << "i16 metric bit patterns changed: if intentional, re-pin the "
         "golden hash (std::printf(\"%llx\", h1))";
}

TEST(KernelI16, FootprintOrderingAcrossTiers) {
  // The storage story of the tiers: int16 SoA plans are smaller than fp64
  // plans for the same channel.
  Constellation c(64);
  ch::Rng rng(33);
  const auto h = ch::rayleigh_iid(12, 12, rng);
  const double nv = ch::noise_var_for_snr_db(18.0);
  std::size_t bytes[2] = {0, 0};
  const char* specs[2] = {"flexcore-128:i16", "flexcore-128"};
  for (int t = 0; t < 2; ++t) {
    const auto det = fa::make_detector_as<fc::FlexCoreDetector>(
        specs[t], {.constellation = &c});
    det->set_channel(h, nv);
    bytes[t] = det->plan_footprint_bytes();
  }
  EXPECT_LT(bytes[0], bytes[1]) << "i16 plan must undercut fp64";
}

TEST(KernelI16, SpecGrammarRoundTripsAndRejects) {
  Constellation c(16);
  const fa::DetectorConfig cfg{.constellation = &c};
  for (const char* spec :
       {"flexcore-16:i16", "a-flexcore-8:i16", "fcsd-L1:i16"}) {
    const auto det = fa::make_detector(spec, cfg);
    EXPECT_EQ(det->name(), spec);
    EXPECT_EQ(fa::make_detector(det->name(), cfg)->name(), det->name());
  }
  // Detectors without block kernels reject the tier like any unknown spec.
  EXPECT_THROW(fa::make_detector("zf:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("kbest-8:i16", cfg), std::invalid_argument);
  EXPECT_THROW(fa::make_detector("ml-sd:i16", cfg), std::invalid_argument);
  // The tier is discoverable: list_specs() surfaces an :i16 spelling.
  const auto specs = fa::list_specs();
  EXPECT_NE(std::find(specs.begin(), specs.end(), "flexcore-64:i16"),
            specs.end());
}

}  // namespace
