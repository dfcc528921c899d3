// Reduction offloading: the classic active-storage case the paper's related
// work targets (scan kernels, tiny outputs, no dependence). DAS behaves like
// plain active storage here — its dependence machinery sees an empty offset
// list and offloads unconditionally — and NAS equals DAS.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/active_executor.hpp"
#include "core/cluster.hpp"
#include "core/scheme.hpp"
#include "core/ts_executor.hpp"
#include "kernels/registry.hpp"

namespace das::core {
namespace {

SchemeRunOptions reduction_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "raster-statistics";
  o.workload.data_bytes = 2ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  return o;
}

TEST(ReductionTest, AllSchemesComplete) {
  for (const Scheme s : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
    const RunReport r = run_scheme(reduction_options(s));
    EXPECT_GT(r.exec_seconds, 0.0) << to_string(s);
  }
}

TEST(ReductionTest, OffloadingCrushesTraditionalStorage) {
  const RunReport ts = run_scheme(reduction_options(Scheme::kTS));
  const RunReport das = run_scheme(reduction_options(Scheme::kDAS));
  // TS must stream the whole input to the clients; the active schemes move
  // a few dozen bytes per server.
  EXPECT_LT(das.exec_seconds, 0.5 * ts.exec_seconds);
  EXPECT_EQ(ts.client_server_bytes, 2ULL << 30);  // input only, no write-back
  EXPECT_LT(das.client_server_bytes, 1ULL << 20);
}

TEST(ReductionTest, NasEqualsDasWithoutDependence) {
  // The paper's contribution is dependence awareness; with no dependence
  // there is nothing to be aware of, and the two offloads coincide.
  const RunReport nas = run_scheme(reduction_options(Scheme::kNAS));
  const RunReport das = run_scheme(reduction_options(Scheme::kDAS));
  EXPECT_NEAR(nas.exec_seconds, das.exec_seconds,
              0.02 * nas.exec_seconds);
  EXPECT_EQ(nas.server_server_bytes, 0U);
  EXPECT_EQ(das.server_server_bytes, 0U);
}

TEST(ReductionTest, DasDecisionOffloadsWithoutRedistribution) {
  const RunReport das = run_scheme(reduction_options(Scheme::kDAS));
  EXPECT_TRUE(das.offloaded);
  EXPECT_FALSE(das.redistributed);
  EXPECT_EQ(das.redistribution_bytes, 0U);
}

TEST(ReductionTest, ActiveResultTrafficIsOnePartialPerRun) {
  const RunReport das = run_scheme(reduction_options(Scheme::kDAS));
  // 2048 strips round-robin over 4 servers: 512 single-strip runs per
  // server, one 64 B partial each.
  EXPECT_EQ(das.client_server_bytes, 2048U * 64);
}

// run_scheme rejects a data-mode reduction up front, naming the kernel; the
// executors keep their own guard for callers that build one directly.
TEST(ReductionDeathTest, DataModeIsRejected) {
  SchemeRunOptions o = reduction_options(Scheme::kNAS);
  o.workload.data_bytes = 64 * 64;
  o.workload.strip_size = 64;
  o.workload.with_data = true;
  EXPECT_THROW((void)run_scheme(o), std::invalid_argument);

  const kernels::KernelPtr kernel =
      kernels::standard_registry().create("raster-statistics");
  Cluster cluster(o.cluster);
  ActiveExecutor::Options active;
  active.kernel = kernel.get();
  active.data_mode = true;
  EXPECT_DEATH(ActiveExecutor(cluster, active), "DAS_REQUIRE");
  TsExecutor::Options ts;
  ts.kernel = kernel.get();
  ts.data_mode = true;
  EXPECT_DEATH(TsExecutor(cluster, ts), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::core
