// End-to-end scheme-runner tests: one run_scheme call per paper scheme, in
// correctness mode (small rasters, real bytes) and in paper-shape timing
// mode (large sizes, length-only).
#include "core/scheme.hpp"

#include <gtest/gtest.h>

namespace das::core {
namespace {

SchemeRunOptions data_options(Scheme scheme, const std::string& kernel) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = kernel;
  o.workload.strip_size = 64;
  o.workload.element_size = 4;
  o.workload.data_bytes = 128 * 64;  // 128 strips
  o.workload.with_data = true;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  o.distribution.group_size = 8;
  o.distribution.max_capacity_overhead = 1.0;  // small files in tests
  return o;
}

SchemeRunOptions timing_options(Scheme scheme, const std::string& kernel) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = kernel;
  o.workload.data_bytes = 2ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  return o;
}

class SchemeDataTest
    : public ::testing::TestWithParam<std::tuple<Scheme, std::string>> {};

TEST_P(SchemeDataTest, OutputMatchesSequentialReference) {
  const auto& [scheme, kernel] = GetParam();
  const RunReport report = run_scheme(data_options(scheme, kernel));
  EXPECT_TRUE(report.output_verified)
      << "max error " << report.output_max_error;
  EXPECT_DOUBLE_EQ(report.output_max_error, 0.0);
  EXPECT_GT(report.exec_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllKernels, SchemeDataTest,
    ::testing::Combine(
        ::testing::Values(Scheme::kTS, Scheme::kNAS, Scheme::kDAS),
        ::testing::Values("flow-routing", "gaussian-2d", "median-3x3")),
    [](const auto& test) {
      std::string name = std::string(to_string(std::get<0>(test.param))) +
                         "_" + std::get<1>(test.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// One-row and one-column rasters: a single 16-cell row in one 64 B strip,
// and sixteen 1-cell rows in 4 B strips. The terrain kernels' DEM input
// must be generated for both, like the filters' image input.
class SchemeThinRasterTest
    : public ::testing::TestWithParam<
          std::tuple<Scheme, std::string, std::uint64_t>> {};

TEST_P(SchemeThinRasterTest, OutputMatchesSequentialReference) {
  const auto& [scheme, kernel, strip_size] = GetParam();
  SchemeRunOptions o = data_options(scheme, kernel);
  o.workload.strip_size = strip_size;
  o.workload.data_bytes = 64;
  const RunReport report = run_scheme(o);
  EXPECT_TRUE(report.output_verified)
      << "max error " << report.output_max_error;
}

INSTANTIATE_TEST_SUITE_P(
    OneRowOrColumn, SchemeThinRasterTest,
    ::testing::Combine(
        ::testing::Values(Scheme::kTS, Scheme::kNAS, Scheme::kDAS),
        ::testing::Values("flow-routing", "surface-slope"),
        ::testing::Values(std::uint64_t{64}, std::uint64_t{4})),
    [](const auto& test) {
      std::string name = std::string(to_string(std::get<0>(test.param))) +
                         "_" + std::get<1>(test.param) +
                         (std::get<2>(test.param) == 64 ? "_16x1" : "_1x16");
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SchemeTrafficTest, TsUsesOnlyClientServerLinks) {
  const RunReport r = run_scheme(data_options(Scheme::kTS, "flow-routing"));
  EXPECT_GT(r.client_server_bytes, 0U);
  EXPECT_EQ(r.server_server_bytes, 0U);
  EXPECT_FALSE(r.offloaded);
}

TEST(SchemeTrafficTest, NasUsesOnlyServerLinks) {
  const RunReport r = run_scheme(data_options(Scheme::kNAS, "flow-routing"));
  EXPECT_EQ(r.client_server_bytes, 0U);
  EXPECT_GT(r.server_server_bytes, 0U);
  EXPECT_TRUE(r.offloaded);
}

TEST(SchemeTrafficTest, DasPreDistributedMovesOnlyReplicas) {
  const RunReport r = run_scheme(data_options(Scheme::kDAS, "flow-routing"));
  EXPECT_TRUE(r.offloaded);
  EXPECT_FALSE(r.redistributed);
  EXPECT_EQ(r.client_server_bytes, 0U);
  // Output halo replica propagation only: a small fraction of the file.
  EXPECT_LT(r.server_server_bytes, r.data_bytes);
  EXPECT_FALSE(r.decision_note.empty());
}

TEST(SchemeTrafficTest, DasWithoutPreDistributionRedistributesForPipelines) {
  SchemeRunOptions o = data_options(Scheme::kDAS, "flow-routing");
  o.pre_distributed = false;
  o.pipeline_length = 8;
  const RunReport r = run_scheme(o);
  EXPECT_TRUE(r.offloaded);
  EXPECT_TRUE(r.redistributed);
  EXPECT_GT(r.redistribution_bytes, 0U);
  EXPECT_TRUE(r.output_verified);
}

TEST(SchemeTimingTest, PaperOrderingDasBeatsTsBeatsNas) {
  const RunReport ts =
      run_scheme(timing_options(Scheme::kTS, "flow-routing"));
  const RunReport nas =
      run_scheme(timing_options(Scheme::kNAS, "flow-routing"));
  const RunReport das =
      run_scheme(timing_options(Scheme::kDAS, "flow-routing"));
  EXPECT_LT(das.exec_seconds, ts.exec_seconds);
  EXPECT_LT(ts.exec_seconds, nas.exec_seconds);
  // Paper Fig. 11: DAS over 30% faster than TS, over 60% than NAS is the
  // claim at 24 nodes; require the weaker always-true ordering margins here.
  EXPECT_LT(das.exec_seconds, 0.8 * ts.exec_seconds);
  EXPECT_LT(das.exec_seconds, 0.5 * nas.exec_seconds);
}

TEST(SchemeTimingTest, SustainedBandwidthFollowsTheSameOrdering) {
  const RunReport ts =
      run_scheme(timing_options(Scheme::kTS, "flow-routing"));
  const RunReport nas =
      run_scheme(timing_options(Scheme::kNAS, "flow-routing"));
  const RunReport das =
      run_scheme(timing_options(Scheme::kDAS, "flow-routing"));
  EXPECT_GT(das.sustained_bandwidth_bps(), ts.sustained_bandwidth_bps());
  EXPECT_GT(ts.sustained_bandwidth_bps(), nas.sustained_bandwidth_bps());
}

TEST(SchemeTimingTest, MoreDataTakesLonger) {
  SchemeRunOptions small = timing_options(Scheme::kDAS, "gaussian-2d");
  SchemeRunOptions large = small;
  large.workload.data_bytes = 4ULL << 30;
  EXPECT_LT(run_scheme(small).exec_seconds,
            run_scheme(large).exec_seconds);
}

TEST(SchemeTimingTest, MoreNodesAreFaster) {
  SchemeRunOptions few = timing_options(Scheme::kTS, "gaussian-2d");
  SchemeRunOptions many = few;
  many.cluster.storage_nodes = 8;
  many.cluster.compute_nodes = 8;
  EXPECT_GT(run_scheme(few).exec_seconds, run_scheme(many).exec_seconds);
}

TEST(SchemeTimingTest, ReportRecordsTheConfiguration) {
  const RunReport r = run_scheme(timing_options(Scheme::kNAS, "median-3x3"));
  EXPECT_EQ(r.scheme, "NAS");
  EXPECT_EQ(r.kernel, "median-3x3");
  EXPECT_EQ(r.data_bytes, 2ULL << 30);
  EXPECT_EQ(r.storage_nodes, 4U);
  EXPECT_EQ(r.compute_nodes, 4U);
  EXPECT_FALSE(r.data_mode);
  EXPECT_FALSE(r.output_verified);  // nothing to verify in timing mode
}

}  // namespace
}  // namespace das::core
