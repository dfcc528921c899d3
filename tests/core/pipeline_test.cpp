// Successive-operation pipelines (paper §I: "the flow-accumulation
// operation always follows the flow-routing operation").
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/scheme.hpp"

namespace das::core {
namespace {

SchemeRunOptions base_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "flow-routing";
  o.workload.strip_size = 64;
  o.workload.element_size = 4;
  o.workload.data_bytes = 128 * 64;
  o.workload.with_data = true;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  o.distribution.group_size = 16;
  o.distribution.max_capacity_overhead = 1.0;
  return o;
}

const std::vector<std::string> kTerrainChain{"flow-routing",
                                             "flow-accumulation"};

TEST(PipelineTest, ReturnsOneReportPerStagePlusCombined) {
  const auto reports = run_pipeline(base_options(Scheme::kDAS), kTerrainChain);
  ASSERT_EQ(reports.size(), 3U);
  EXPECT_EQ(reports[0].kernel, "flow-routing");
  EXPECT_EQ(reports[1].kernel, "flow-accumulation");
  EXPECT_EQ(reports[2].kernel, "pipeline");
}

TEST(PipelineTest, CombinedTimeCoversTheStages) {
  const auto reports = run_pipeline(base_options(Scheme::kTS), kTerrainChain);
  EXPECT_GE(reports[2].exec_seconds + 1e-9,
            reports[0].exec_seconds + reports[1].exec_seconds);
}

TEST(PipelineTest, FirstStageOutputFeedsTheSecondStage) {
  // The routing stage is tile-exact and verifiable; the accumulation stage
  // runs on its output (verification skipped: not tile-exact).
  const auto reports = run_pipeline(base_options(Scheme::kDAS), kTerrainChain);
  EXPECT_TRUE(reports[0].output_verified);
  EXPECT_FALSE(reports[1].output_verified);
}

TEST(PipelineTest, DasStagesAfterTheFirstNeedNoRedistribution) {
  SchemeRunOptions o = base_options(Scheme::kDAS);
  o.pre_distributed = false;
  const auto reports = run_pipeline(o, kTerrainChain);
  // The first stage pays the redistribution; the second inherits the layout.
  EXPECT_TRUE(reports[0].redistributed);
  EXPECT_FALSE(reports[1].redistributed);
  EXPECT_EQ(reports[1].redistribution_bytes, 0U);
  EXPECT_TRUE(reports[1].offloaded);
}

TEST(PipelineTest, TsPipelineKeepsServersPassive) {
  const auto reports = run_pipeline(base_options(Scheme::kTS), kTerrainChain);
  for (const auto& r : reports) {
    EXPECT_EQ(r.server_server_bytes, 0U);
    EXPECT_FALSE(r.offloaded);
  }
}

TEST(PipelineTest, DasPipelineBeatsTsPipelineAtPaperScale) {
  SchemeRunOptions das = base_options(Scheme::kDAS);
  das.workload.with_data = false;
  das.workload.data_bytes = 1ULL << 30;
  das.workload.strip_size = 1ULL << 20;
  das.workload.raster_width =
      static_cast<std::uint32_t>(das.workload.strip_size / 4) - 1;
  das.distribution.group_size = 16;
  das.distribution.max_capacity_overhead = 0.25;
  SchemeRunOptions ts = das;
  ts.scheme = Scheme::kTS;

  const auto das_reports = run_pipeline(das, kTerrainChain);
  const auto ts_reports = run_pipeline(ts, kTerrainChain);
  EXPECT_LT(das_reports.back().exec_seconds,
            ts_reports.back().exec_seconds);
}

TEST(PipelineTest, ChainOfThreeFiltersVerifiesEveryStage) {
  SchemeRunOptions o = base_options(Scheme::kDAS);
  o.workload.kernel_name = "gaussian-2d";
  const std::vector<std::string> chain{"gaussian-2d", "median-3x3",
                                       "gaussian-2d"};
  const auto reports = run_pipeline(o, chain);
  ASSERT_EQ(reports.size(), 4U);
  EXPECT_TRUE(reports[0].output_verified);
  EXPECT_TRUE(reports[1].output_verified);
  EXPECT_TRUE(reports[2].output_verified);
}

TEST(PipelineTest, StageReportsCarryPerStageCacheDeltas) {
  // NAS pipeline on round-robin with caching: every stage fetches remote
  // halo, so every stage report must show its OWN misses — snapshot deltas,
  // not the cumulative hub counters — and the deltas sum to the combined
  // report's totals.
  SchemeRunOptions o = base_options(Scheme::kNAS);
  o.workload.with_data = false;
  o.workload.data_bytes = 64ULL << 20;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.server_cache.enabled = true;
  o.cluster.server_cache.capacity_bytes = 1ULL << 30;
  o.cluster.prefetch.enabled = true;
  o.cluster.prefetch.depth = 4;
  o.cluster.pipeline_window = 1;
  const std::vector<std::string> chain{"gaussian-2d", "median-3x3",
                                       "gaussian-2d"};
  const auto reports = run_pipeline(o, chain);
  ASSERT_EQ(reports.size(), 4U);

  std::uint64_t miss_sum = 0, issued_sum = 0;
  for (std::size_t stage = 0; stage < 3; ++stage) {
    EXPECT_GT(reports[stage].cache_misses, 0U) << "stage " << stage;
    miss_sum += reports[stage].cache_misses;
    issued_sum += reports[stage].prefetch_issued;
  }
  // Each stage reads a different file, so no stage can recycle another's
  // strips: per-stage deltas partition the combined totals exactly.
  EXPECT_EQ(miss_sum, reports[3].cache_misses);
  EXPECT_EQ(issued_sum, reports[3].prefetch_issued);
  EXPECT_GT(issued_sum, 0U);
}

TEST(PipelineDeathTest, EmptyChainAborts) {
  // The driver's validate() rejects an empty chain before building anything.
  EXPECT_THROW((void)run_pipeline(base_options(Scheme::kTS), {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace das::core
