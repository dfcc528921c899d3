// The stage-chain run driver behind run_scheme and run_pipeline: sparse
// access is a run option like any other, pipelines get the same telemetry,
// utilization and audit path as single runs, and bad options are rejected
// with an exception naming the field before anything is built.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/scheme.hpp"
#include "runner/paper.hpp"
#include "telemetry/plane.hpp"

namespace das::core {
namespace {

/// das_sim --kernel=flow-routing --gib=1 --nodes=8.
SchemeRunOptions sim_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload = runner::paper_workload("flow-routing", 1);
  o.cluster = runner::paper_cluster(8);
  return o;
}

AccessSpec strided8() { return AccessSpec::parse("strided:8"); }

TEST(DriverTest, OffloadedAccessRunsKeepEveryRunOption) {
  // Active storage sweeps the whole file whatever the access pattern, so
  // with --access only the decision note may differ — under every option.
  struct Variant {
    const char* name;
    void (*apply)(SchemeRunOptions&);
  };
  const Variant variants[] = {
      {"repeats=3", [](SchemeRunOptions& o) { o.repeat_count = 3; }},
      {"pre-distributed=false",
       [](SchemeRunOptions& o) { o.pre_distributed = false; }},
      {"migrate=on repeats=4",
       [](SchemeRunOptions& o) {
         o.migration.enabled = true;
         o.repeat_count = 4;
       }},
  };
  for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS}) {
    for (const Variant& v : variants) {
      SchemeRunOptions full = sim_options(scheme);
      v.apply(full);
      SchemeRunOptions sparse = full;
      sparse.access = strided8();
      const RunReport a = run_scheme(full);
      const RunReport b = run_scheme(sparse);
      EXPECT_EQ(to_csv(b), to_csv(a)) << to_string(scheme) << " " << v.name;
      EXPECT_NE(b.decision_note, a.decision_note);
    }
  }
}

TEST(DriverTest, ListServedRepeatsMoveTheRunsEveryPass) {
  SchemeRunOptions once = sim_options(Scheme::kTS);
  once.access = strided8();
  SchemeRunOptions thrice = once;
  thrice.repeat_count = 3;
  const RunReport one = run_scheme(once);
  const RunReport three = run_scheme(thrice);
  EXPECT_GT(one.client_server_bytes, 0U);
  EXPECT_EQ(three.client_server_bytes, 3 * one.client_server_bytes);
  EXPECT_GT(three.exec_seconds, one.exec_seconds);
}

TEST(DriverTest, ListServedRunIsAudited) {
  SchemeRunOptions o = sim_options(Scheme::kTS);
  o.access = strided8();
  const RunReport r = run_scheme(o);
  ASSERT_TRUE(r.audit.valid);
  EXPECT_EQ(r.audit.action, "static-normal");
  EXPECT_EQ(r.audit.repeats, 1U);
  EXPECT_FALSE(r.decision_note.empty());
}

TEST(DriverTest, PipelineFeedsTheTelemetryPlane) {
  telemetry::PlaneConfig config;
  config.metrics = true;
  config.spans = true;
  telemetry::Plane plane(config);
  sim::RunContext context;
  context.telemetry = &plane;
  SchemeRunOptions o = sim_options(Scheme::kNAS);
  o.context = &context;
  const auto reports =
      run_pipeline(o, {"flow-routing", "flow-accumulation"});
  ASSERT_EQ(reports.size(), 3U);
  EXPECT_GT(plane.sampler().rows(), 0U);
  EXPECT_GT(plane.registry().series_count(), 0U);
  EXPECT_GT(reports.back().spans_finished, 0U);
}

TEST(DriverTest, PipelineTotalRowFillsUtilization) {
  const auto reports = run_pipeline(sim_options(Scheme::kNAS),
                                    {"flow-routing", "flow-accumulation"});
  const RunReport& total = reports.back();
  EXPECT_GT(total.server_disk_utilization, 0.0);
  EXPECT_GT(total.server_nic_utilization, 0.0);
  EXPECT_GT(total.server_compute_utilization, 0.0);
  EXPECT_LE(total.server_nic_utilization, 1.0);
  // Stage rows keep their own deltas only.
  EXPECT_EQ(reports.front().server_disk_utilization, 0.0);
}

/// The message run_scheme throws for `o`, or "" when it does not throw.
std::string rejection(const SchemeRunOptions& o) {
  try {
    (void)run_scheme(o);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(DriverTest, BadOptionsAreRejectedNamingTheField) {
  SchemeRunOptions o = sim_options(Scheme::kTS);
  o.repeat_count = 0;
  EXPECT_NE(rejection(o).find("repeat_count=0"), std::string::npos);
  o = sim_options(Scheme::kDAS);
  o.pipeline_length = 0;
  EXPECT_NE(rejection(o).find("pipeline_length=0"), std::string::npos);
  o = sim_options(Scheme::kNAS);
  o.cluster.pipeline_window = 0;
  EXPECT_NE(rejection(o).find("cluster.pipeline_window=0"),
            std::string::npos);
  o = sim_options(Scheme::kNAS);
  o.workload.strip_size = 0;
  EXPECT_NE(rejection(o).find("workload.strip_size=0"), std::string::npos);
  o = sim_options(Scheme::kTS);
  o.cluster.straggler_count = o.cluster.storage_nodes + 1;
  EXPECT_NE(rejection(o).find("cluster.straggler_count=5"), std::string::npos);
  o = sim_options(Scheme::kDAS);
  o.cluster.straggler_slowdown = 0.5;
  EXPECT_NE(rejection(o).find("cluster.straggler_slowdown=0.5"),
            std::string::npos);
  // No executor carries a reduction's partial results as real bytes.
  for (const Scheme scheme : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
    o = sim_options(scheme);
    o.workload.kernel_name = "raster-statistics";
    o.workload.with_data = true;
    EXPECT_NE(rejection(o).find("kernel_chain=raster-statistics"),
              std::string::npos)
        << to_string(scheme);
  }
}

TEST(DriverTest, AccessAndMigrationAreSingleStageOptions) {
  const std::vector<std::string> chain{"flow-routing", "flow-accumulation"};
  SchemeRunOptions o = sim_options(Scheme::kTS);
  o.access = strided8();
  EXPECT_THROW((void)run_pipeline(o, chain), std::invalid_argument);
  o = sim_options(Scheme::kNAS);
  o.migration.enabled = true;
  EXPECT_THROW((void)run_pipeline(o, chain), std::invalid_argument);
  // A chain of one is a single run.
  EXPECT_NO_THROW((void)run_pipeline(o, {"flow-routing"}));
}

}  // namespace
}  // namespace das::core
