// Bounded-prefetch (pipeline window) behavior of the executors: deeper
// windows overlap more work; a window of one serializes each run end to
// end. The byte counts must be identical either way.
#include <gtest/gtest.h>

#include "core/active_executor.hpp"
#include "core/scheme.hpp"
#include "core/ts_executor.hpp"
#include "core/workload.hpp"
#include "kernels/registry.hpp"

namespace das::core {
namespace {

struct RunOutcome {
  sim::SimTime finish = -1;
  std::uint64_t client_server = 0;
  std::uint64_t server_server = 0;
};

RunOutcome run_with_window(Scheme scheme, std::uint32_t window) {
  ClusterConfig config;
  config.storage_nodes = 4;
  config.compute_nodes = 4;
  config.job_startup = 0;
  config.pipeline_window = window;
  Cluster cluster(config);
  const auto registry = kernels::standard_registry();
  const auto kernel = registry.create("flow-routing");

  WorkloadSpec spec;
  spec.strip_size = 1ULL << 20;
  spec.element_size = 4;
  spec.raster_width = static_cast<std::uint32_t>(spec.strip_size / 4) - 1;
  spec.data_bytes = 256ULL << 20;
  pfs::FileMeta meta = spec.make_meta("input");

  std::unique_ptr<pfs::Layout> layout;
  if (scheme == Scheme::kDAS) {
    layout = std::make_unique<pfs::DasReplicatedLayout>(4, 16, 1);
  } else {
    layout = std::make_unique<pfs::RoundRobinLayout>(4);
  }
  const auto input = cluster.pfs().create_file(meta, layout->clone(),
                                               nullptr);
  meta.name = "output";
  const auto output =
      cluster.pfs().create_file(meta, std::move(layout), nullptr);

  RunOutcome outcome;
  auto on_done = [&] { outcome.finish = cluster.simulator().now(); };
  std::unique_ptr<TsExecutor> ts;
  std::unique_ptr<ActiveExecutor> active;
  if (scheme == Scheme::kTS) {
    ts = std::make_unique<TsExecutor>(
        cluster, TsExecutor::Options{kernel.get(), 1, false});
    ts->start(input, output, on_done);
  } else {
    active = std::make_unique<ActiveExecutor>(
        cluster, ActiveExecutor::Options{kernel.get(), 1, false});
    active->start(input, output, on_done);
  }
  cluster.simulator().run();
  outcome.client_server =
      cluster.network().bytes_delivered(net::TrafficClass::kClientServer);
  outcome.server_server =
      cluster.network().bytes_delivered(net::TrafficClass::kServerServer);
  return outcome;
}

class WindowTest
    : public ::testing::TestWithParam<std::tuple<Scheme, std::uint32_t>> {};

TEST_P(WindowTest, EveryWindowCompletesWithTheSameTraffic) {
  const auto& [scheme, window] = GetParam();
  const RunOutcome base = run_with_window(scheme, 4);
  const RunOutcome probe = run_with_window(scheme, window);
  ASSERT_GE(probe.finish, 0);
  EXPECT_EQ(probe.client_server, base.client_server);
  EXPECT_EQ(probe.server_server, base.server_server);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWindows, WindowTest,
    ::testing::Combine(::testing::Values(Scheme::kTS, Scheme::kNAS,
                                         Scheme::kDAS),
                       ::testing::Values(1U, 2U, 8U, 32U)),
    [](const auto& test) {
      return std::string(to_string(std::get<0>(test.param))) + "_w" +
             std::to_string(std::get<1>(test.param));
    });

TEST(WindowDepthTest, DeeperWindowsOverlapMoreWork) {
  for (const Scheme scheme : {Scheme::kTS, Scheme::kNAS}) {
    const auto serial = run_with_window(scheme, 1);
    const auto pipelined = run_with_window(scheme, 8);
    EXPECT_LT(pipelined.finish, serial.finish) << to_string(scheme);
  }
}

TEST(WindowDepthTest, WindowDoesNotChangeWhoWins) {
  for (const std::uint32_t window : {1U, 8U}) {
    const auto ts = run_with_window(Scheme::kTS, window);
    const auto nas = run_with_window(Scheme::kNAS, window);
    const auto das = run_with_window(Scheme::kDAS, window);
    EXPECT_LT(das.finish, ts.finish) << "window " << window;
    EXPECT_LT(ts.finish, nas.finish) << "window " << window;
  }
}

}  // namespace
}  // namespace das::core
