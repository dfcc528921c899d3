#include "pfs/store.hpp"

#include <gtest/gtest.h>

#include "pfs/layout.hpp"
#include "pfs/strip_buffer.hpp"

namespace das::pfs {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (const int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

StripBuffer buffer_of(std::initializer_list<int> values) {
  return StripBuffer::copy_of(bytes_of(values));
}

std::vector<std::byte> stored(const ServerStore& store, FileId file,
                              std::uint64_t strip) {
  const auto bytes = store.bytes(file, strip);
  return std::vector<std::byte>(bytes.begin(), bytes.end());
}

TEST(ServerStoreTest, PutThenGet) {
  ServerStore store;
  store.put(0, 3, 4, buffer_of({1, 2, 3, 4}));
  EXPECT_TRUE(store.has(0, 3));
  EXPECT_FALSE(store.has(0, 4));
  EXPECT_FALSE(store.has(1, 3));
  EXPECT_EQ(stored(store, 0, 3), bytes_of({1, 2, 3, 4}));
  EXPECT_EQ(store.length(0, 3), 4U);
}

TEST(ServerStoreTest, TimingOnlyStripsHaveLengthButNoBytes) {
  ServerStore store;
  store.put(0, 0, 1024, {});
  EXPECT_TRUE(store.has(0, 0));
  EXPECT_EQ(store.length(0, 0), 1024U);
  EXPECT_TRUE(store.bytes(0, 0).empty());
  EXPECT_EQ(store.stored_bytes(), 1024U);
}

TEST(ServerStoreTest, DiskOffsetsAreSequentialByInsertion) {
  ServerStore store;
  store.put(0, 5, 100, {});
  store.put(0, 2, 100, {});
  store.put(1, 9, 50, {});
  EXPECT_EQ(store.disk_offset(0, 5), 0U);
  EXPECT_EQ(store.disk_offset(0, 2), 100U);
  EXPECT_EQ(store.disk_offset(1, 9), 200U);
}

TEST(ServerStoreTest, OverwriteKeepsOffsetAndLength) {
  ServerStore store;
  store.put(0, 0, 4, buffer_of({1, 1, 1, 1}));
  const auto offset = store.disk_offset(0, 0);
  store.put(0, 0, 4, buffer_of({2, 2, 2, 2}));
  EXPECT_EQ(store.disk_offset(0, 0), offset);
  EXPECT_EQ(stored(store, 0, 0), bytes_of({2, 2, 2, 2}));
  EXPECT_EQ(store.stored_bytes(), 4U);  // not double counted
}

TEST(ServerStoreTest, EraseFreesAccounting) {
  ServerStore store;
  store.put(0, 0, 100, {});
  store.put(0, 1, 100, {});
  store.erase(0, 0);
  EXPECT_FALSE(store.has(0, 0));
  EXPECT_EQ(store.stored_bytes(), 100U);
  EXPECT_EQ(store.strip_count(), 1U);
}

// Re-laying out a file erases and re-puts strips; the disk model must not
// silently defragment across that round trip.
TEST(ServerStoreTest, EraseThenRePutKeepsDiskOffsetStable) {
  ServerStore store;
  store.put(0, 0, 64, {});
  store.put(0, 1, 64, {});
  store.put(0, 2, 64, {});
  const auto offset0 = store.disk_offset(0, 0);
  const auto offset1 = store.disk_offset(0, 1);

  store.erase(0, 1);
  store.put(0, 3, 64, {});  // new strip lands past the old high-water mark
  store.put(0, 1, 64, {});  // re-put gets its original position back

  EXPECT_EQ(store.disk_offset(0, 0), offset0);
  EXPECT_EQ(store.disk_offset(0, 1), offset1);
  EXPECT_EQ(store.disk_offset(0, 3), 192U);
}

TEST(ServerStoreTest, StoredBytesExactAcrossReplacePut) {
  ServerStore store;
  store.put(0, 0, 100, {});
  store.put(0, 1, 50, {});
  EXPECT_EQ(store.stored_bytes(), 150U);
  store.put(0, 0, 100, {});  // replace: same length, counted once
  EXPECT_EQ(store.stored_bytes(), 150U);
  store.erase(0, 1);
  EXPECT_EQ(store.stored_bytes(), 100U);
  store.put(0, 1, 50, {});  // re-put restores the accounting exactly
  EXPECT_EQ(store.stored_bytes(), 150U);
}

// Timing-only and data-carrying stores must agree on every length-derived
// quantity; only the payload presence differs.
TEST(ServerStoreTest, TimingAndDataModesAgreeOnLengths) {
  ServerStore timing;
  ServerStore data;
  const std::vector<std::byte> strip0 = bytes_of({1, 2, 3, 4});
  const std::vector<std::byte> strip1 = bytes_of({5, 6});
  timing.put(0, 0, strip0.size(), {});
  timing.put(0, 1, strip1.size(), {});
  data.put(0, 0, strip0.size(), StripBuffer::copy_of(strip0));
  data.put(0, 1, strip1.size(), StripBuffer::copy_of(strip1));

  EXPECT_EQ(timing.length(0, 0), data.length(0, 0));
  EXPECT_EQ(timing.length(0, 1), data.length(0, 1));
  EXPECT_EQ(timing.disk_offset(0, 0), data.disk_offset(0, 0));
  EXPECT_EQ(timing.disk_offset(0, 1), data.disk_offset(0, 1));
  EXPECT_EQ(timing.stored_bytes(), data.stored_bytes());
  EXPECT_EQ(timing.strip_count(), data.strip_count());
  EXPECT_TRUE(timing.bytes(0, 0).empty());
  EXPECT_EQ(stored(data, 0, 0), strip0);
}

TEST(ServerStoreTest, BufferHandleSurvivesReplaceAndErase) {
  ServerStore store;
  store.put(0, 0, 4, buffer_of({1, 2, 3, 4}));
  const StripBuffer snapshot = store.buffer(0, 0);
  store.put(0, 0, 4, buffer_of({9, 9, 9, 9}));
  EXPECT_EQ(snapshot.to_vector(), bytes_of({1, 2, 3, 4}));
  EXPECT_EQ(stored(store, 0, 0), bytes_of({9, 9, 9, 9}));
  store.erase(0, 0);
  EXPECT_EQ(snapshot.to_vector(), bytes_of({1, 2, 3, 4}));
}

// A placed file stores exactly its layout's holdings for this server, at
// offsets derived from their rank, with no per-strip state; strips put
// afterwards are appended past the file's holdings.
TEST(ServerStoreTest, PlaceFileDerivesHoldingsFromTheLayout) {
  ServerStore store;
  store.put(0, 0, 10, {});  // an earlier file moves the disk cursor
  FileMeta meta;
  meta.size_bytes = 7 * 16 + 5;  // 8 strips, the last one short
  meta.strip_size = 16;
  const RoundRobinLayout layout(3);
  store.place_file(1, layout, 2, meta, {});

  // Server 2 of 3 holds strips 2 and 5.
  EXPECT_EQ(store.strip_count(), 3U);
  EXPECT_EQ(store.stored_bytes(), 10U + 32U);
  EXPECT_FALSE(store.has(1, 0));
  EXPECT_TRUE(store.has(1, 2));
  EXPECT_TRUE(store.has(1, 5));
  EXPECT_FALSE(store.has(1, 8));
  EXPECT_EQ(store.disk_offset(1, 2), 10U);
  EXPECT_EQ(store.disk_offset(1, 5), 26U);
  EXPECT_TRUE(store.bytes(1, 5).empty());

  store.put(1, 7, 5, {});  // the short last strip, migrated in
  EXPECT_EQ(store.disk_offset(1, 7), 42U);
  EXPECT_EQ(store.length(1, 7), 5U);
}

TEST(ServerStoreTest, PlacedHoldingsSliceTheFilePayload) {
  ServerStore store;
  FileMeta meta;
  meta.size_bytes = 6;
  meta.strip_size = 4;  // strips {1,2,3,4} and {5,6}
  const RoundRobinLayout layout(1);
  const StripBuffer contents = buffer_of({1, 2, 3, 4, 5, 6});
  store.place_file(0, layout, 0, meta, contents);
  EXPECT_EQ(stored(store, 0, 1), bytes_of({5, 6}));
  EXPECT_EQ(store.buffer(0, 0).to_vector(), bytes_of({1, 2, 3, 4}));

  // A retired holding stays readable; writing it again restores it.
  store.retire(0, 0);
  EXPECT_FALSE(store.has(0, 0));
  EXPECT_TRUE(store.readable(0, 0));
  EXPECT_EQ(store.stored_bytes(), 2U);
  store.put(0, 0, 4, store.buffer(0, 0));
  EXPECT_TRUE(store.has(0, 0));
  EXPECT_EQ(store.stored_bytes(), 6U);

  // Erase and re-put keep the derived offset.
  store.erase(0, 1);
  EXPECT_FALSE(store.readable(0, 1));
  store.put(0, 1, 2, buffer_of({7, 8}));
  EXPECT_EQ(store.disk_offset(0, 1), 4U);
  EXPECT_EQ(stored(store, 0, 1), bytes_of({7, 8}));
}

TEST(ServerStoreDeathTest, LengthMismatchAborts) {
  ServerStore store;
  EXPECT_DEATH(store.put(0, 0, 3, buffer_of({1, 2})), "DAS_REQUIRE");
  store.put(0, 0, 2, buffer_of({1, 2}));
  EXPECT_DEATH(store.put(0, 0, 5, {}), "DAS_REQUIRE");
}

TEST(ServerStoreDeathTest, MissingStripAborts) {
  ServerStore store;
  EXPECT_DEATH((void)store.bytes(0, 0), "DAS_REQUIRE");
  EXPECT_DEATH(store.erase(0, 0), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::pfs
