// Region-list math: construction validation (exact numbers in every
// rejection), strided normalization including negative strides, strip
// splitting at boundaries and past 4 GiB, wire-cost bookkeeping, and the
// coalescer's exact-union property under randomized inputs.
#include "pfs/region.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace das::pfs {
namespace {

FileMeta meta_of(std::uint64_t size, std::uint64_t strip) {
  FileMeta meta;
  meta.name = "region-test";
  meta.size_bytes = size;
  meta.strip_size = strip;
  return meta;
}

// --- Construction and validation -----------------------------------------

TEST(RegionListTest, FromRunsSortsAndSums) {
  const RegionList list =
      RegionList::from_runs({{300, 10}, {100, 20}, {200, 5}});
  ASSERT_EQ(list.runs().size(), 3U);
  EXPECT_EQ(list.runs()[0], (pfs::Run{100, 20}));
  EXPECT_EQ(list.runs()[1], (pfs::Run{200, 5}));
  EXPECT_EQ(list.runs()[2], (pfs::Run{300, 10}));
  EXPECT_EQ(list.total_bytes(), 35U);
  EXPECT_EQ(list.encoding(), RegionEncoding::kExplicit);
}

TEST(RegionListTest, ZeroLengthRunRejectedWithExactNumbers) {
  try {
    RegionList::from_runs({{100, 20}, {4096, 0}});
    FAIL() << "zero-length run must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4096"), std::string::npos)
        << "message must quote the offending offset: " << what;
  }
}

TEST(RegionListTest, OverlappingRunsRejectedWithExactNumbers) {
  try {
    RegionList::from_runs({{100, 50}, {120, 10}});
    FAIL() << "overlapping runs must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("100"), std::string::npos) << what;
    EXPECT_NE(what.find("120"), std::string::npos) << what;
  }
}

TEST(RegionListTest, AdjacentRunsAreLegal) {
  // Touching is not overlapping: [100,150) + [150,200).
  const RegionList list = RegionList::from_runs({{100, 50}, {150, 50}});
  EXPECT_EQ(list.runs().size(), 2U);
  EXPECT_EQ(list.total_bytes(), 100U);
}

TEST(RegionListTest, OffsetOverflowRejected) {
  EXPECT_THROW(RegionList::from_runs({{UINT64_MAX - 4, 8}}),
               std::invalid_argument);
}

TEST(RegionListTest, EmptyListIsEmpty) {
  const RegionList list = RegionList::from_runs({});
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.total_bytes(), 0U);
}

// --- Strided construction -------------------------------------------------

TEST(RegionListTest, StridedBuildsRegularRuns) {
  const RegionList list = RegionList::strided(1000, 64, 256, 4);
  ASSERT_EQ(list.runs().size(), 4U);
  EXPECT_EQ(list.runs()[0], (pfs::Run{1000, 64}));
  EXPECT_EQ(list.runs()[3], (pfs::Run{1000 + 3 * 256, 64}));
  EXPECT_EQ(list.encoding(), RegionEncoding::kStrided);
  EXPECT_EQ(list.total_bytes(), 4U * 64U);
}

TEST(RegionListTest, NegativeStrideNormalizesToAscending) {
  // Descending walk 1768, 1512, 1256, 1000 == ascending walk from 1000.
  const RegionList down = RegionList::strided(1768, 64, -256, 4);
  const RegionList up = RegionList::strided(1000, 64, 256, 4);
  EXPECT_EQ(down.runs(), up.runs());
  EXPECT_EQ(down.encoding(), RegionEncoding::kStrided);
}

TEST(RegionListTest, NegativeStrideUnderflowRejected) {
  // Third run would start at 100 - 2*256 < 0.
  EXPECT_THROW(RegionList::strided(100, 16, -256, 3), std::invalid_argument);
}

TEST(RegionListTest, StrideShorterThanRunRejected) {
  EXPECT_THROW(RegionList::strided(0, 128, 64, 2), std::invalid_argument);
}

TEST(RegionListTest, StridedCountZeroIsEmpty) {
  EXPECT_TRUE(RegionList::strided(1000, 64, 256, 0).empty());
}

TEST(RegionListTest, SubsetPreservesEncodingAndRuns) {
  const RegionList list = RegionList::strided(0, 16, 64, 10);
  const RegionList mid = list.subset(3, 7);
  ASSERT_EQ(mid.runs().size(), 4U);
  EXPECT_EQ(mid.runs()[0], (pfs::Run{3 * 64, 16}));
  EXPECT_EQ(mid.encoding(), RegionEncoding::kStrided);
}

// --- Wire-cost bookkeeping ------------------------------------------------

TEST(RegionListTest, RequestBytesByEncoding) {
  EXPECT_EQ(RegionList::request_bytes(RegionEncoding::kExplicit, 10),
            kListRequestFixedBytes + 10 * kListRunDescriptorBytes);
  EXPECT_EQ(RegionList::request_bytes(RegionEncoding::kStrided, 10),
            kListRequestFixedBytes + kListStridedDescriptorBytes);
  EXPECT_EQ(RegionList::reply_framing_bytes(7), 7 * kListReplyRunBytes);
}

TEST(RegionListTest, StridedEncodingIsFlatInRunCount) {
  // The whole point of the strided descriptor: 1 run or 10k runs, same
  // request size.
  EXPECT_EQ(RegionList::request_bytes(RegionEncoding::kStrided, 1),
            RegionList::request_bytes(RegionEncoding::kStrided, 10000));
}

// --- Strip splitting ------------------------------------------------------

TEST(SplitByStripTest, RunInsideOneStripStaysWhole) {
  const FileMeta meta = meta_of(1 << 20, 64 * 1024);
  const auto runs =
      split_by_strip(meta, RegionList::from_runs({{1000, 500}}));
  ASSERT_EQ(runs.size(), 1U);
  EXPECT_EQ(runs[0], (StripRun{0, 1000, 500}));
}

TEST(SplitByStripTest, StraddlingRunSplitsAtBoundary) {
  const std::uint64_t strip = 64 * 1024;
  const FileMeta meta = meta_of(1 << 20, strip);
  // 100 bytes before the strip 0/1 boundary, 200 after.
  const auto runs =
      split_by_strip(meta, RegionList::from_runs({{strip - 100, 300}}));
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_EQ(runs[0], (StripRun{0, strip - 100, 100}));
  EXPECT_EQ(runs[1], (StripRun{1, 0, 200}));
}

TEST(SplitByStripTest, RunSpanningManyStripsSplitsPerStrip) {
  const std::uint64_t strip = 64 * 1024;
  const FileMeta meta = meta_of(1 << 20, strip);
  const auto runs =
      split_by_strip(meta, RegionList::from_runs({{strip / 2, 3 * strip}}));
  ASSERT_EQ(runs.size(), 4U);
  EXPECT_EQ(runs[0], (StripRun{0, strip / 2, strip / 2}));
  EXPECT_EQ(runs[1], (StripRun{1, 0, strip}));
  EXPECT_EQ(runs[2], (StripRun{2, 0, strip}));
  EXPECT_EQ(runs[3], (StripRun{3, 0, strip / 2}));
  std::uint64_t total = 0;
  for (const StripRun& r : runs) total += r.length;
  EXPECT_EQ(total, 3 * strip);
}

TEST(SplitByStripTest, RunsBeyondFourGiBKeepExactArithmetic) {
  // 4 GiB boundary: offsets no longer fit in 32 bits; strip indexes and
  // in-strip offsets must still be exact.
  const std::uint64_t strip = 64 * 1024;
  const std::uint64_t four_gib = 1ULL << 32;
  const FileMeta meta = meta_of(four_gib + (1ULL << 20), strip);
  const auto runs = split_by_strip(
      meta, RegionList::from_runs({{four_gib - 50, 100}}));
  ASSERT_EQ(runs.size(), 2U);
  EXPECT_EQ(runs[0].strip, (four_gib - 50) / strip);
  EXPECT_EQ(runs[0].offset_in_strip, strip - 50);
  EXPECT_EQ(runs[0].length, 50U);
  EXPECT_EQ(runs[1].strip, four_gib / strip);
  EXPECT_EQ(runs[1].offset_in_strip, 0U);
  EXPECT_EQ(runs[1].length, 50U);
}

TEST(SplitByStripTest, RunPastEofRejectedWithExactNumbers) {
  const FileMeta meta = meta_of(1000, 64 * 1024);
  try {
    (void)split_by_strip(meta, RegionList::from_runs({{900, 200}}));
    FAIL() << "run past EOF must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("900"), std::string::npos) << what;
    EXPECT_NE(what.find("1000"), std::string::npos) << what;
  }
}

// --- Coalescer ------------------------------------------------------------

TEST(CoalesceTest, MergesAdjacentAndOverlapping) {
  const auto out = coalesce_runs(
      {{0, 100}, {100, 50}, {140, 100}, {500, 10}});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], (Extent{0, 240}));
  EXPECT_EQ(out[1], (Extent{500, 10}));
}

TEST(CoalesceTest, UnsortedInputIsSorted) {
  const auto out = coalesce_runs({{500, 10}, {0, 100}, {50, 100}});
  ASSERT_EQ(out.size(), 2U);
  EXPECT_EQ(out[0], (Extent{0, 150}));
  EXPECT_EQ(out[1], (Extent{500, 10}));
}

TEST(CoalesceTest, EmptyAndSingleton) {
  EXPECT_TRUE(coalesce_runs({}).empty());
  const auto one = coalesce_runs({{42, 7}});
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(one[0], (Extent{42, 7}));
}

// Property: for random inputs the output covers exactly the union of the
// inputs (every input byte covered, nothing else), is sorted, and no two
// extents touch (maximal coalescing).
TEST(CoalesceTest, RandomizedExactUnionProperty) {
  std::mt19937_64 rng(20260809);
  std::uniform_int_distribution<std::uint64_t> offset_dist(0, 2000);
  std::uniform_int_distribution<std::uint64_t> length_dist(1, 200);
  std::uniform_int_distribution<int> count_dist(1, 40);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Extent> input;
    const int n = count_dist(rng);
    for (int i = 0; i < n; ++i) {
      input.push_back(Extent{offset_dist(rng), length_dist(rng)});
    }
    std::vector<bool> covered(2300, false);
    for (const Extent& e : input) {
      for (std::uint64_t b = e.offset; b < e.offset + e.length; ++b) {
        covered[b] = true;
      }
    }

    const std::vector<Extent> out = coalesce_runs(input);
    std::vector<bool> out_covered(2300, false);
    std::uint64_t prev_end = 0;
    bool first = true;
    for (const Extent& e : out) {
      ASSERT_GT(e.length, 0U) << "trial " << trial;
      if (!first) {
        ASSERT_GT(e.offset, prev_end)
            << "trial " << trial << ": extents sorted and non-touching";
      }
      first = false;
      prev_end = e.offset + e.length;
      for (std::uint64_t b = e.offset; b < prev_end; ++b) {
        out_covered[b] = true;
      }
    }
    ASSERT_EQ(covered, out_covered) << "trial " << trial;
  }
}

}  // namespace
}  // namespace das::pfs
