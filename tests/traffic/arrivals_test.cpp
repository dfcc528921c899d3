#include "traffic/arrivals.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace das::traffic {
namespace {

ArrivalConfig small_config() {
  ArrivalConfig config;
  config.tenants = 4;
  config.jobs_per_tenant = 16;
  config.rate_hz = 2.0;
  config.job_bytes = (3ULL << 20) + 1;  // deliberately not strip-aligned
  config.datasets = 3;
  config.dataset_strips = 64;
  config.strip_bytes = 1ULL << 20;
  return config;
}

TEST(ArrivalsTest, GeneratesJobsPerTenantSortedByTime) {
  const auto schedule = generate_poisson(small_config());
  ASSERT_EQ(schedule.size(), 4u * 16u);
  std::vector<std::uint64_t> per_tenant(4, 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const JobArrival& job = schedule[i];
    ASSERT_LT(job.tenant, 4u);
    ++per_tenant[job.tenant];
    if (i > 0) {
      EXPECT_GE(job.at, schedule[i - 1].at);
    }
  }
  for (const std::uint64_t n : per_tenant) EXPECT_EQ(n, 16u);
}

TEST(ArrivalsTest, BytesAreStripAlignedAndRangesFit) {
  const ArrivalConfig config = small_config();
  for (const JobArrival& job : generate_poisson(config)) {
    EXPECT_GT(job.bytes, 0u);
    EXPECT_EQ(job.bytes % config.strip_bytes, 0u);
    EXPECT_LT(job.dataset, config.datasets);
    const std::uint64_t strips = job.bytes / config.strip_bytes;
    EXPECT_LE(job.first_strip + strips, config.dataset_strips);
  }
}

TEST(ArrivalsTest, Deterministic) {
  const ArrivalConfig config = small_config();
  const auto a = generate_poisson(config);
  const auto b = generate_poisson(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].dataset, b[i].dataset);
    EXPECT_EQ(a[i].first_strip, b[i].first_strip);
    EXPECT_EQ(a[i].bytes, b[i].bytes);
  }
}

// The core open-loop property: tenant t's private schedule must not depend
// on how many other tenants exist (per-tenant forked RNG substreams).
TEST(ArrivalsTest, TenantScheduleIndependentOfTenantCount) {
  ArrivalConfig solo = small_config();
  solo.tenants = 1;
  const auto alone = generate_poisson(solo);

  std::vector<JobArrival> tenant0;
  for (const JobArrival& job : generate_poisson(small_config())) {
    if (job.tenant == 0) tenant0.push_back(job);
  }
  ASSERT_EQ(alone.size(), tenant0.size());
  for (std::size_t i = 0; i < alone.size(); ++i) {
    EXPECT_EQ(alone[i].at, tenant0[i].at);
    EXPECT_EQ(alone[i].kind, tenant0[i].kind);
    EXPECT_EQ(alone[i].dataset, tenant0[i].dataset);
    EXPECT_EQ(alone[i].first_strip, tenant0[i].first_strip);
    EXPECT_EQ(alone[i].bytes, tenant0[i].bytes);
  }
}

TEST(ArrivalsTest, MixZeroDisablesKind) {
  ArrivalConfig config = small_config();
  config.mix[1] = config.mix[2] = config.mix[3] = 0.0;  // raw reads only
  for (const JobArrival& job : generate_poisson(config)) {
    EXPECT_EQ(job.kind, JobKind::kRawRead);
  }
}

TEST(ArrivalsTest, SeedChangesSchedule) {
  ArrivalConfig config = small_config();
  const auto a = generate_poisson(config);
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  const auto b = generate_poisson(config);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i) {
    differs = a[i].at != b[i].at;
  }
  EXPECT_TRUE(differs);
}

class TraceFileTest : public ::testing::Test {
 protected:
  std::string write_trace(const std::string& body) {
    const std::string path =
        ::testing::TempDir() + "das_traffic_trace_test.csv";
    std::ofstream out(path, std::ios::trunc);
    out << body;
    out.close();
    return path;
  }

  void TearDown() override {
    std::remove((::testing::TempDir() + "das_traffic_trace_test.csv").c_str());
  }
};

TEST_F(TraceFileTest, ParsesRowsAndRoundsBytesToStrips) {
  ArrivalConfig config = small_config();
  const std::string path = write_trace(
      "time_s,tenant,kind,bytes\n"
      "# comment line\n"
      "0.5,0,raw-read,1048576\n"
      "0.25,1,flow-routing,1000000\n"
      "1.0,3,gaussian-2d,2097152\n");
  const auto schedule = load_trace(path, config);
  ASSERT_EQ(schedule.size(), 3u);
  // Sorted by time, not file order.
  EXPECT_EQ(schedule[0].tenant, 1u);
  EXPECT_EQ(schedule[0].kind, JobKind::kFlowRouting);
  EXPECT_EQ(schedule[0].bytes, 1ULL << 20);  // 1000000 rounded up to a strip
  EXPECT_EQ(schedule[1].tenant, 0u);
  EXPECT_EQ(schedule[1].kind, JobKind::kRawRead);
  EXPECT_EQ(schedule[2].tenant, 3u);
  EXPECT_EQ(schedule[2].bytes, 2ULL << 20);
}

TEST_F(TraceFileTest, RejectsUnknownKind) {
  const std::string path = write_trace("0.5,0,warp-drive,1048576\n");
  EXPECT_THROW((void)load_trace(path, small_config()), std::invalid_argument);
}

TEST_F(TraceFileTest, RejectsTenantOutOfRange) {
  const std::string path = write_trace("0.5,9,raw-read,1048576\n");
  EXPECT_THROW((void)load_trace(path, small_config()), std::invalid_argument);
}

TEST_F(TraceFileTest, RejectsMissingFile) {
  EXPECT_THROW(
      (void)load_trace("/nonexistent/trace.csv", small_config()),
      std::invalid_argument);
}

}  // namespace
}  // namespace das::traffic
