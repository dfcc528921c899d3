#include "simkit/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "simkit/random.hpp"

namespace das::sim {
namespace {

TEST(CounterTest, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST(GaugeTest, TimeWeightedAverage) {
  TimeWeightedGauge g;
  g.set(0, 10.0);   // 10 held for [0, 100)
  g.set(100, 20.0); // 20 held for [100, 300)
  EXPECT_DOUBLE_EQ(g.average(300), (10.0 * 100 + 20.0 * 200) / 300.0);
}

TEST(GaugeTest, AverageBeforeFirstUpdateIsCurrent) {
  TimeWeightedGauge g;
  EXPECT_DOUBLE_EQ(g.average(50), 0.0);
  g.set(10, 7.0);
  EXPECT_DOUBLE_EQ(g.average(10), 7.0);
}

TEST(GaugeTest, TracksMaximum) {
  TimeWeightedGauge g;
  g.set(0, 1.0);
  g.set(1, 9.0);
  g.set(2, 3.0);
  EXPECT_DOUBLE_EQ(g.maximum(), 9.0);
  EXPECT_DOUBLE_EQ(g.current(), 3.0);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, MinMax) {
  Histogram h;
  h.record(5.0);
  h.record(-1.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(HistogramTest, NearestRankQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

TEST(HistogramTest, QuantileAfterInterleavedRecords) {
  Histogram h;
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  h.record(1.0);  // forces a re-sort on next query
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, QuantileZeroIsMinimum) {
  Histogram h;
  h.record(9.0);
  h.record(4.0);
  h.record(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 4.0);
}

TEST(HistogramTest, SummaryMatchesQuantiles) {
  Histogram h;
  for (int i = 1; i <= 200; ++i) h.record(i);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 200U);
  EXPECT_DOUBLE_EQ(s.mean, h.mean());
  EXPECT_DOUBLE_EQ(s.p50, h.quantile(0.5));
  EXPECT_DOUBLE_EQ(s.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.quantile(0.99));
  EXPECT_DOUBLE_EQ(s.max, h.max());
}

TEST(HistogramTest, SummaryOfEmptyIsAllZero) {
  const Histogram h;
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0U);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a;
  a.record(1.0);
  a.record(3.0);
  Histogram b;
  b.record(2.0);
  b.record(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4U);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  a.merge(Histogram{});  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 4U);
}

TEST(HistogramTest, MergeOfTwoEmptiesStaysEmpty) {
  Histogram a;
  a.merge(Histogram{});
  EXPECT_EQ(a.count(), 0U);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  EXPECT_EQ(a.summary().count, 0U);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsTheOtherDistribution) {
  Histogram a;
  Histogram b;
  b.record(2.0);
  b.record(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  // The source is untouched.
  EXPECT_EQ(b.count(), 2U);
}

TEST(HistogramTest, MergeOfSingleSamplesKeepsQuantilesExact) {
  Histogram a;
  a.record(5.0);
  Histogram b;
  b.record(1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 5.0);
}

TEST(HistogramTest, MergeOrderDoesNotChangeTheDistribution) {
  // Property: folding per-node shards into a cluster-wide histogram must
  // give the same distribution regardless of merge order. Build 8 shards of
  // deterministic pseudo-random samples and merge forward vs. reversed.
  std::vector<Histogram> shards(8);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / 1e6;
  };
  for (Histogram& shard : shards) {
    for (int i = 0; i < 100; ++i) shard.record(next());
  }
  Histogram forward;
  for (const Histogram& shard : shards) forward.merge(shard);
  Histogram reversed;
  for (std::size_t i = shards.size(); i-- > 0;) reversed.merge(shards[i]);

  EXPECT_EQ(forward.count(), 800U);
  EXPECT_EQ(forward.count(), reversed.count());
  // Sums differ only by fp association order across the 8 shard partials.
  EXPECT_NEAR(forward.sum(), reversed.sum(), 1e-9 * forward.sum());
  EXPECT_DOUBLE_EQ(forward.min(), reversed.min());
  EXPECT_DOUBLE_EQ(forward.max(), reversed.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), reversed.quantile(q)) << "q=" << q;
  }
}

TEST(GaugeTest, SameInstantUpdateReplacesValue) {
  TimeWeightedGauge g;
  g.set(5, 10.0);
  g.set(5, 20.0);  // zero-width interval: no time at 10 accrues
  EXPECT_DOUBLE_EQ(g.current(), 20.0);
  EXPECT_DOUBLE_EQ(g.average(10), 20.0);
}

TEST(HistogramDeathTest, QuantileOfEmptyAborts) {
  Histogram h;
  EXPECT_DEATH((void)h.quantile(0.5), "DAS_REQUIRE");
}

// Property: the running median equals the histogram's nearest-rank median
// after every single record, whatever the arrival order.
void expect_running_median_matches(const std::vector<double>& samples) {
  RunningMedian running;
  Histogram histogram;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    running.record(samples[i]);
    histogram.record(samples[i]);
    ASSERT_EQ(running.count(), histogram.count());
    ASSERT_EQ(running.median(), histogram.quantile(0.5))
        << "after " << i + 1 << " samples";
  }
}

TEST(RunningMedianTest, MatchesHistogramMedianOnRandomSamples) {
  Rng rng(0x5EED);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.uniform_real(0, 1));
  expect_running_median_matches(samples);
}

TEST(RunningMedianTest, MatchesHistogramMedianOnDuplicateHeavySamples) {
  Rng rng(0xD0D0);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    samples.push_back(static_cast<double>(rng.uniform_int(0, 4)));
  }
  expect_running_median_matches(samples);
}

TEST(RunningMedianTest, MatchesHistogramMedianOnSortedSamples) {
  std::vector<double> ascending;
  for (int i = 0; i < 1000; ++i) ascending.push_back(0.001 * i);
  expect_running_median_matches(ascending);
  const std::vector<double> descending(ascending.rbegin(), ascending.rend());
  expect_running_median_matches(descending);
}

TEST(RunningMedianDeathTest, MedianOfEmptyAborts) {
  const RunningMedian running;
  EXPECT_DEATH(static_cast<void>(running.median()), "DAS_REQUIRE");
}

TEST(RegistryTest, FindOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(5);
  EXPECT_EQ(reg.counter("x").value(), 5U);
  EXPECT_EQ(reg.counters().size(), 1U);
}

TEST(RegistryTest, ReportListsAllMetrics) {
  MetricsRegistry reg;
  reg.counter("reads").add(3);
  reg.histogram("latency").record(0.5);
  reg.gauge("depth").set(0, 2.0);
  const std::string report = reg.report(100);
  EXPECT_NE(report.find("reads = 3"), std::string::npos);
  EXPECT_NE(report.find("latency"), std::string::npos);
  EXPECT_NE(report.find("depth"), std::string::npos);
}

}  // namespace
}  // namespace das::sim
