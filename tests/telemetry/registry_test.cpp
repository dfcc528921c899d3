// Registry enrollment, column naming, reads, and Prometheus exposition.
#include "telemetry/registry.hpp"

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "simkit/stats.hpp"
#include "telemetry/metrics.hpp"

namespace das::telemetry {
namespace {

using ::testing::HasSubstr;

TEST(CounterTest, BehavesLikeTheRawIntegerItReplaces) {
  Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 41;
  EXPECT_EQ(c, 42u);
  EXPECT_EQ(c.value(), 42u);
  const std::uint64_t as_int = c;  // implicit conversion at read sites
  EXPECT_EQ(as_int, 42u);
  EXPECT_EQ(*c.cell(), 42u);
  c.reset();
  EXPECT_EQ(c, 0u);
}

TEST(CounterTest, CellAddressIsStableAcrossIncrements) {
  Counter c;
  const std::uint64_t* cell = c.cell();
  for (int i = 0; i < 1000; ++i) ++c;
  EXPECT_EQ(cell, c.cell());
  EXPECT_EQ(*cell, 1000u);
}

TEST(RegistryTest, CounterSeriesReadsTheLiveCell) {
  Registry registry;
  Counter bytes;
  registry.enroll_counter("net.bytes", {label("class", "control")}, bytes);
  ASSERT_EQ(registry.series_count(), 1u);
  EXPECT_EQ(registry.read(0), 0.0);
  bytes += 4096;
  EXPECT_EQ(registry.read(0), 4096.0);
}

TEST(RegistryTest, ColumnNameUsesSemicolonsSoCsvNeedsNoQuoting) {
  Registry registry;
  Counter c;
  registry.enroll_counter("cache.hits",
                          {label("server", std::uint64_t{3}),
                           label("class", "server-server")},
                          c);
  EXPECT_EQ(registry.series_name(0), "cache.hits{server=3;class=server-server}");
  EXPECT_EQ(registry.series_name(0).find(','), std::string::npos);
}

TEST(RegistryTest, UnlabelledSeriesOmitsBraces) {
  Registry registry;
  Counter c;
  registry.enroll_counter("migrate.migrations", {}, c);
  EXPECT_EQ(registry.series_name(0), "migrate.migrations");
}

TEST(RegistryTest, GaugeEvaluatesTheClosureAtReadTime) {
  Registry registry;
  double level = 1.5;
  registry.enroll_gauge("cache.used_bytes", {}, [&level]() { return level; });
  EXPECT_EQ(registry.read(0), 1.5);
  level = 99.0;
  EXPECT_EQ(registry.read(0), 99.0);
  EXPECT_EQ(registry.series_kind(0), SeriesKind::kGauge);
}

TEST(RegistryTest, HistogramEnrollsCountAndSumColumns) {
  Registry registry;
  sim::Histogram h;
  registry.enroll_histogram("net.latency_s", {}, &h);
  ASSERT_EQ(registry.series_count(), 2u);
  EXPECT_EQ(registry.series_name(0), "net.latency_s.count");
  EXPECT_EQ(registry.series_name(1), "net.latency_s.sum");
  h.record(0.25);
  h.record(0.75);
  EXPECT_EQ(registry.read(0), 2.0);
  EXPECT_DOUBLE_EQ(registry.read(1), 1.0);
}

TEST(RegistryTest, SeriesOrderIsEnrollmentOrder) {
  Registry registry;
  Counter a, b;
  registry.enroll_counter("b.second", {}, b);
  registry.enroll_counter("a.first", {}, a);
  EXPECT_EQ(registry.series_name(0), "b.second");
  EXPECT_EQ(registry.series_name(1), "a.first");
}

TEST(RegistryTest, PrometheusTextRenamesAndLabelsSeries) {
  Registry registry;
  Counter bytes;
  bytes += 123;
  registry.enroll_counter("net.bytes", {label("class", "control")}, bytes);
  registry.enroll_gauge("slo.burn-rate", {label("tenant", std::uint64_t{0})},
                        []() { return 2.5; });
  const std::string text = registry.prometheus_text();
  EXPECT_THAT(text, HasSubstr("# TYPE das_net_bytes counter\n"));
  EXPECT_THAT(text, HasSubstr("das_net_bytes{class=\"control\"} 123\n"));
  EXPECT_THAT(text, HasSubstr("# TYPE das_slo_burn_rate gauge\n"));
  EXPECT_THAT(text, HasSubstr("das_slo_burn_rate{tenant=\"0\"} 2.5\n"));
}

TEST(RegistryTest, PrometheusTextGroupsEachFamilyUnderOneTypeLine) {
  // Per-server components enroll their families interleaved: a family must
  // still be declared once, with all its samples in one group.
  Registry registry;
  Counter reads0, bytes0, reads1, bytes1;
  reads0 += 1;
  bytes0 += 10;
  reads1 += 2;
  bytes1 += 20;
  registry.enroll_counter("pfs.reads", {label("server", "0")}, reads0);
  registry.enroll_counter("pfs.bytes", {label("server", "0")}, bytes0);
  registry.enroll_counter("pfs.reads", {label("server", "1")}, reads1);
  registry.enroll_counter("pfs.bytes", {label("server", "1")}, bytes1);
  EXPECT_EQ(registry.prometheus_text(),
            "# TYPE das_pfs_reads counter\n"
            "das_pfs_reads{server=\"0\"} 1\n"
            "das_pfs_reads{server=\"1\"} 2\n"
            "# TYPE das_pfs_bytes counter\n"
            "das_pfs_bytes{server=\"0\"} 10\n"
            "das_pfs_bytes{server=\"1\"} 20\n");
}

TEST(RegistryTest, PrometheusHistogramRendersSummaryQuantiles) {
  Registry registry;
  sim::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  registry.enroll_histogram("disk.service_s", {label("server", "1")}, &h);
  const std::string text = registry.prometheus_text();
  EXPECT_THAT(text, HasSubstr("# TYPE das_disk_service_s summary\n"));
  EXPECT_THAT(text,
              HasSubstr("das_disk_service_s{server=\"1\",quantile=\"0.5\"}"));
  EXPECT_THAT(text,
              HasSubstr("das_disk_service_s{server=\"1\",quantile=\"0.99\"}"));
  EXPECT_THAT(text, HasSubstr("das_disk_service_s_count{server=\"1\"} 100\n"));
  EXPECT_THAT(text, HasSubstr("das_disk_service_s_sum{server=\"1\"} 5050\n"));
  // The .sum companion series must not render a second block.
  EXPECT_EQ(text.find("das_disk_service_s_sum_"), std::string::npos);
}

TEST(RegistryTest, PrometheusTextIsDeterministic) {
  auto render = []() {
    Registry registry;
    static Counter c;  // same value both times
    registry.enroll_counter("x.y", {label("k", "v")}, c);
    return registry.prometheus_text();
  };
  EXPECT_EQ(render(), render());
}

}  // namespace
}  // namespace das::telemetry
