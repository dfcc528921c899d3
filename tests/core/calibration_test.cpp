// Calibrated compute-cost model: per-kernel factor overrides must (a) be a
// strict no-op when they restate the built-in factors, (b) slow simulated
// execution monotonically as a kernel's factor grows, and (c) leave kernels
// they do not name untouched — so feeding --calibrate-kernels output into
// --kernel-cost changes scheme comparisons coherently, never arbitrarily.
#include <gtest/gtest.h>

#include <string>

#include "core/scheme.hpp"
#include "kernels/calibrate.hpp"
#include "kernels/registry.hpp"

namespace das::core {
namespace {

SchemeRunOptions timing_options(Scheme scheme, const std::string& kernel) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = kernel;
  o.workload.data_bytes = 1ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  return o;
}

TEST(ComputeCostModelTest, FactorForFallsBackWhenUnset) {
  ComputeCostModel model;
  EXPECT_FALSE(model.active());
  EXPECT_DOUBLE_EQ(model.factor_for("gaussian-2d", 1.5), 1.5);
  model.kernel_cost_factor["gaussian-2d"] = 4.25;
  EXPECT_TRUE(model.active());
  EXPECT_DOUBLE_EQ(model.factor_for("gaussian-2d", 1.5), 4.25);
  EXPECT_DOUBLE_EQ(model.factor_for("median-3x3", 2.5), 2.5);
}

TEST(ComputeCostModelTest, RestatingBuiltInFactorsIsANoOp) {
  const auto registry = kernels::standard_registry();
  for (const Scheme scheme : {Scheme::kTS, Scheme::kDAS}) {
    SchemeRunOptions base = timing_options(scheme, "gaussian-2d");
    const RunReport baseline = run_scheme(base);

    SchemeRunOptions restated = base;
    for (const std::string& name : registry.names()) {
      restated.cluster.compute_cost.kernel_cost_factor[name] =
          registry.create(name)->cost_factor();
    }
    const RunReport report = run_scheme(restated);
    EXPECT_EQ(report.exec_seconds, baseline.exec_seconds)
        << to_string(scheme);
    EXPECT_EQ(report.client_server_bytes, baseline.client_server_bytes);
    EXPECT_EQ(report.server_server_bytes, baseline.server_server_bytes);
    EXPECT_EQ(report.offloaded, baseline.offloaded);
  }
}

TEST(ComputeCostModelTest, SlowerKernelRunsStrictlyLonger) {
  for (const Scheme scheme : {Scheme::kTS, Scheme::kDAS}) {
    double previous = 0.0;
    for (const double factor : {1.5, 6.0, 24.0}) {  // built-in is 1.5
      SchemeRunOptions o = timing_options(scheme, "gaussian-2d");
      o.cluster.compute_cost.kernel_cost_factor["gaussian-2d"] = factor;
      const RunReport report = run_scheme(o);
      EXPECT_GT(report.exec_seconds, previous)
          << to_string(scheme) << " factor " << factor;
      previous = report.exec_seconds;
    }
  }
}

TEST(ComputeCostModelTest, UnnamedKernelsAreUntouched) {
  SchemeRunOptions base = timing_options(Scheme::kDAS, "laplacian-4");
  const RunReport baseline = run_scheme(base);
  SchemeRunOptions other = base;
  other.cluster.compute_cost.kernel_cost_factor["median-3x3"] = 100.0;
  const RunReport report = run_scheme(other);
  EXPECT_EQ(report.exec_seconds, baseline.exec_seconds);
}

// Calibration makes compute so much faster than the 2012-era default that a
// previously compute-bound comparison turns bandwidth-bound: with the same
// calibrated table, cheaper compute shrinks exec time for every scheme, and
// the TS-vs-DAS gap moves toward the pure byte-flow ratio. Assert the
// coherent direction, not machine-specific magnitudes.
TEST(ComputeCostModelTest, CalibratedRatesShiftSchemeComparisonCoherently) {
  SchemeRunOptions slow_ts = timing_options(Scheme::kTS, "gaussian-2d");
  slow_ts.cluster.compute_rate_bps = 50.0 * 1024 * 1024;  // compute-bound
  SchemeRunOptions slow_das = slow_ts;
  slow_das.scheme = Scheme::kDAS;
  const double ts_slow = run_scheme(slow_ts).exec_seconds;
  const double das_slow = run_scheme(slow_das).exec_seconds;

  SchemeRunOptions fast_ts = slow_ts;
  SchemeRunOptions fast_das = slow_das;
  // A calibrated machine: 8x the per-byte compute rate, same relative kernel
  // cost (what --calibrate-kernels + --compute-mibps feed back).
  fast_ts.cluster.compute_rate_bps = 400.0 * 1024 * 1024;
  fast_das.cluster.compute_rate_bps = 400.0 * 1024 * 1024;
  const double ts_fast = run_scheme(fast_ts).exec_seconds;
  const double das_fast = run_scheme(fast_das).exec_seconds;

  EXPECT_LT(ts_fast, ts_slow);
  EXPECT_LT(das_fast, das_slow);
  // Compute-bound: both schemes pay the same dominant compute bill, so they
  // are close. Bandwidth-bound: DAS's byte-flow advantage re-emerges.
  const double gap_slow = ts_slow / das_slow;
  const double gap_fast = ts_fast / das_fast;
  EXPECT_GT(gap_fast, gap_slow);
}

TEST(KernelCalibrationTest, ReportIsWellFormed) {
  const kernels::CalibrationReport report =
      kernels::calibrate_kernels(64, 48, 1);
  // The five stencils plus flow-routing (vectorized in the list-I/O PR).
  ASSERT_EQ(report.kernels.size(), 6U);
  double best = 0.0;
  for (const auto& k : report.kernels) {
    EXPECT_GT(k.cells_per_second, 0.0) << k.name;
    EXPECT_GT(k.mib_per_second, 0.0) << k.name;
    EXPECT_GE(k.cost_factor, 1.0) << k.name;  // anchored to the fastest
    best = std::max(best, k.mib_per_second);
  }
  EXPECT_DOUBLE_EQ(report.anchor_mibps, best);
  const std::string flag = report.kernel_cost_flag();
  EXPECT_NE(flag.find("laplacian-4:"), std::string::npos);
  EXPECT_NE(flag.find("flow-routing:"), std::string::npos);
  EXPECT_NE(flag.find("raster-statistics:"), std::string::npos);
  EXPECT_NE(report.format().find("--compute-mibps"), std::string::npos);
  // The printed flag is the whole list, ready to paste.
  EXPECT_NE(report.format().find("--kernel-cost=" + flag + "\n"),
            std::string::npos);
}

}  // namespace
}  // namespace das::core
