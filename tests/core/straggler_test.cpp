// Straggler injection: slow storage nodes and their effect per scheme.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cluster.hpp"
#include "core/scheme.hpp"

namespace das::core {
namespace {

SchemeRunOptions options_with_stragglers(Scheme scheme, std::uint32_t count,
                                         double slowdown) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "flow-routing";
  o.workload.data_bytes = 2ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  o.cluster.straggler_count = count;
  o.cluster.straggler_slowdown = slowdown;
  return o;
}

TEST(StragglerTest, NoStragglersIsTheBaseline) {
  const RunReport a = run_scheme(options_with_stragglers(Scheme::kDAS, 0, 1.0));
  const RunReport b = run_scheme(options_with_stragglers(Scheme::kDAS, 0, 8.0));
  EXPECT_DOUBLE_EQ(a.exec_seconds, b.exec_seconds);
}

TEST(StragglerTest, SlowServerDelaysEveryScheme) {
  for (const Scheme s : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
    const RunReport clean =
        run_scheme(options_with_stragglers(s, 0, 1.0));
    const RunReport degraded =
        run_scheme(options_with_stragglers(s, 1, 4.0));
    EXPECT_GT(degraded.exec_seconds, clean.exec_seconds) << to_string(s);
  }
}

TEST(StragglerTest, MoreSlowdownIsMonotonicallyWorse) {
  double previous = 0.0;
  for (const double slowdown : {1.0, 2.0, 4.0, 8.0}) {
    const RunReport r =
        run_scheme(options_with_stragglers(Scheme::kDAS, 1, slowdown));
    EXPECT_GE(r.exec_seconds, previous);
    previous = r.exec_seconds;
  }
}

TEST(StragglerTest, ActiveStorageIsMoreExposedThanTs) {
  // DAS binds each slab's compute and I/O to its home server, so one slow
  // server gates the whole run; TS's bottleneck is the client links, which
  // a slow server disk barely dents.
  const auto relative_hit = [](Scheme s) {
    const double clean =
        run_scheme(options_with_stragglers(s, 1, 1.0)).exec_seconds;
    const double degraded =
        run_scheme(options_with_stragglers(s, 1, 6.0)).exec_seconds;
    return degraded / clean;
  };
  EXPECT_GT(relative_hit(Scheme::kDAS), relative_hit(Scheme::kTS));
}

TEST(StragglerTest, UtilizationReflectsTheScheme) {
  const RunReport das =
      run_scheme(options_with_stragglers(Scheme::kDAS, 0, 1.0));
  const RunReport ts =
      run_scheme(options_with_stragglers(Scheme::kTS, 0, 1.0));
  // Offloading computes on the servers; TS computes on the clients.
  EXPECT_GT(das.server_compute_utilization, 0.0);
  EXPECT_DOUBLE_EQ(das.client_compute_utilization, 0.0);
  EXPECT_DOUBLE_EQ(ts.server_compute_utilization, 0.0);
  EXPECT_GT(ts.client_compute_utilization, 0.0);
  // TS saturates the network; DAS works from local disks.
  EXPECT_GT(ts.server_nic_utilization, das.server_nic_utilization);
  EXPECT_GT(das.server_disk_utilization, 0.0);
}

// run_scheme rejects both settings up front, naming the field; the Cluster
// keeps its own guard for callers that build one directly.
TEST(StragglerDeathTest, InvalidConfigAborts) {
  const SchemeRunOptions o = options_with_stragglers(Scheme::kTS, 5, 2.0);
  EXPECT_DEATH(Cluster{o.cluster}, "DAS_REQUIRE");  // more stragglers
  const SchemeRunOptions o2 = options_with_stragglers(Scheme::kTS, 1, 0.5);
  EXPECT_DEATH(Cluster{o2.cluster}, "DAS_REQUIRE");  // speedup, not slowdown
  EXPECT_THROW((void)run_scheme(o), std::invalid_argument);
  EXPECT_THROW((void)run_scheme(o2), std::invalid_argument);
}

}  // namespace
}  // namespace das::core
