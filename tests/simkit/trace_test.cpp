#include "simkit/trace.hpp"

#include <gtest/gtest.h>

#include <map>

namespace das::sim {
namespace {

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.complete(0, 10, 0, TraceTrack::kDisk, "disk.read", "disk");
  t.instant(5, 0, TraceTrack::kCache, "cache.hit", "cache");
  t.async_begin(0, 0, 1, "run", "request");
  t.async_end(10, 0, 1, "run", "request");
  t.set_process_name(0, "server0");
  EXPECT_EQ(t.event_count(), 0U);
}

TEST(TracerTest, CompleteSpanCarriesDuration) {
  Tracer t;
  t.enable();
  t.complete(100, 350, 3, TraceTrack::kNicEgress, "net.tx", "net",
             "{\"bytes\":42}");
  ASSERT_EQ(t.events().size(), 1U);
  const TraceEvent& e = t.events().front();
  EXPECT_EQ(e.ph, 'X');
  EXPECT_EQ(e.ts, 100);
  EXPECT_EQ(e.dur, 250);
  EXPECT_EQ(e.pid, 3U);
  EXPECT_EQ(e.tid, static_cast<std::uint32_t>(TraceTrack::kNicEgress));
}

TEST(TracerTest, InstantNowUsesBoundClock) {
  Tracer t;
  t.enable();
  SimTime fake_now = 0;
  t.set_clock([&fake_now]() { return fake_now; });
  fake_now = 777;
  t.instant_now(1, TraceTrack::kPrefetch, "prefetch.issue", "prefetch");
  ASSERT_EQ(t.events().size(), 1U);
  EXPECT_EQ(t.events().front().ts, 777);
  EXPECT_EQ(t.events().front().ph, 'i');
}

TEST(TracerTest, ScopeIdsAreUniqueAndNeverZero) {
  Tracer t;
  const std::uint64_t a = t.next_scope_id();
  const std::uint64_t b = t.next_scope_id();
  EXPECT_NE(a, 0U);
  EXPECT_NE(b, 0U);
  EXPECT_NE(a, b);
}

TEST(TracerTest, AsyncEventsLandOnRequestTrack) {
  Tracer t;
  t.enable();
  t.async_begin(10, 2, 7, "as.run", "request");
  t.async_end(90, 2, 7, "as.run", "request");
  ASSERT_EQ(t.events().size(), 2U);
  for (const TraceEvent& e : t.events()) {
    EXPECT_EQ(e.tid, static_cast<std::uint32_t>(TraceTrack::kRequest));
    EXPECT_EQ(e.id, 7U);
  }
  EXPECT_EQ(t.events()[0].ph, 'b');
  EXPECT_EQ(t.events()[1].ph, 'e');
}

TEST(TracerTest, SortedEventsAreMonotoneByTimestamp) {
  Tracer t;
  t.enable();
  t.instant(30, 0, TraceTrack::kCache, "c", "cache");
  t.instant(10, 0, TraceTrack::kCache, "a", "cache");
  t.instant(20, 0, TraceTrack::kCache, "b", "cache");
  const auto sorted = t.sorted_events();
  ASSERT_EQ(sorted.size(), 3U);
  EXPECT_LE(sorted[0].ts, sorted[1].ts);
  EXPECT_LE(sorted[1].ts, sorted[2].ts);
  EXPECT_EQ(sorted[0].name, "a");
  EXPECT_EQ(sorted[2].name, "c");
}

TEST(TracerTest, MetadataIsDeduplicated) {
  Tracer t;
  t.enable();
  t.set_process_name(4, "server4");
  t.set_process_name(4, "server4");  // repeated cluster construction
  t.set_track_name(4, TraceTrack::kDisk, "disk");
  t.set_track_name(4, TraceTrack::kDisk, "disk");
  EXPECT_EQ(t.event_count(), 2U);
}

TEST(TracerTest, ClearKeepsEnabledState) {
  Tracer t;
  t.enable();
  t.instant(1, 0, TraceTrack::kCache, "x", "cache");
  t.clear();
  EXPECT_EQ(t.event_count(), 0U);
  EXPECT_TRUE(t.enabled());
}

TEST(TracerTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(TracerTest, ToJsonHasTraceEventShape) {
  Tracer t;
  t.enable();
  t.set_process_name(0, "server0");
  t.complete(1000, 3000, 0, TraceTrack::kDisk, "disk.read", "disk",
             "{\"bytes\":8}");
  t.instant(1500, 0, TraceTrack::kCache, "cache.hit", "cache");
  t.async_begin(1000, 0, 1, "as.run", "request");
  t.async_end(3000, 0, 1, "as.run", "request");
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);  // ns -> us
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"0x1\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"bytes\":8}"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

TEST(TracerTest, EveryAsyncBeginHasAMatchingEnd) {
  Tracer t;
  t.enable();
  for (std::uint64_t i = 1; i <= 5; ++i) {
    t.async_begin(static_cast<SimTime>(i * 10), 0, i, "as.run", "request");
  }
  for (std::uint64_t i = 1; i <= 5; ++i) {
    t.async_end(static_cast<SimTime>(i * 10 + 100), 0, i, "as.run", "request");
  }
  std::map<std::uint64_t, int> open;
  for (const TraceEvent& e : t.sorted_events()) {
    if (e.ph == 'b') ++open[e.id];
    if (e.ph == 'e') --open[e.id];
  }
  for (const auto& [id, balance] : open) EXPECT_EQ(balance, 0) << id;
}

TEST(TracerDeathTest, CompleteWithNegativeSpanAborts) {
  Tracer t;
  t.enable();
  EXPECT_DEATH(t.complete(10, 5, 0, TraceTrack::kDisk, "x", "disk"),
               "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::sim
