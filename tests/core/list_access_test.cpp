// Access-pattern parsing, halo math, region construction, pricing stats
// and the TS-vs-DAS list decision: sparser access must monotonically
// cheapen the list-served path and eventually flip the decision away from
// offload — the coherence property the acceptance gate checks end to end.
#include "core/list_access.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace das::core {
namespace {

pfs::FileMeta raster_meta(std::uint32_t width, std::uint32_t height) {
  pfs::FileMeta meta;
  meta.name = "list-access-test";
  meta.raster_width = width;
  meta.raster_height = height;
  meta.element_size = 4;
  meta.size_bytes = static_cast<std::uint64_t>(width) * height * 4;
  meta.strip_size = 64 * 1024;
  return meta;
}

/// The 8-neighbour dependence offsets of a width-W raster stencil.
std::vector<std::int64_t> eight_neighbor_offsets(std::int64_t w) {
  return {-w - 1, -w, -w + 1, -1, 1, w - 1, w, w + 1};
}

TEST(AccessSpecTest, ParseRoundTrips) {
  const AccessSpec strided = AccessSpec::parse("strided:8");
  EXPECT_EQ(strided.mode, AccessSpec::Mode::kStrided);
  EXPECT_EQ(strided.stride, 8U);
  EXPECT_EQ(strided.label(), "strided:8");

  const AccessSpec column = AccessSpec::parse("column");
  EXPECT_EQ(column.mode, AccessSpec::Mode::kColumn);
  EXPECT_EQ(column.label(), "column");

  const AccessSpec trace = AccessSpec::parse("trace:/tmp/runs.txt");
  EXPECT_EQ(trace.mode, AccessSpec::Mode::kTrace);
  EXPECT_EQ(trace.trace_path, "/tmp/runs.txt");
}

TEST(AccessSpecTest, ParseRejectsGarbage) {
  EXPECT_THROW(AccessSpec::parse("diagonal"), std::invalid_argument);
  EXPECT_THROW(AccessSpec::parse("strided:0"), std::invalid_argument);
  EXPECT_THROW(AccessSpec::parse("strided:x"), std::invalid_argument);
  // K is a plain 32-bit count: no sign, no wrap past 4294967295.
  EXPECT_THROW(AccessSpec::parse("strided:-3"), std::invalid_argument);
  EXPECT_THROW(AccessSpec::parse("strided:+3"), std::invalid_argument);
  EXPECT_THROW(AccessSpec::parse("strided:4294967297"),
               std::invalid_argument);
  EXPECT_EQ(AccessSpec::parse("strided:4294967295").stride, 4294967295U);
}

TEST(HaloRowsTest, EightNeighborStencilIsOneRow) {
  const pfs::FileMeta meta = raster_meta(1024, 512);
  // The widest offset is width+1 elements, but that is the diagonal
  // neighbour ONE row away — halo must round to the nearest row, not ceil.
  EXPECT_EQ(halo_rows_for(meta, eight_neighbor_offsets(1024)), 1U);
}

TEST(HaloRowsTest, PointwiseKernelHasNoHalo) {
  const pfs::FileMeta meta = raster_meta(1024, 512);
  EXPECT_EQ(halo_rows_for(meta, {}), 0U);
}

TEST(BuildRegionsTest, StridedSamplesRowsWithHalo) {
  const std::uint32_t width = 256;
  const std::uint32_t height = 64;
  const pfs::FileMeta meta = raster_meta(width, height);
  const std::uint64_t row_bytes = width * 4ULL;

  AccessSpec spec;
  spec.mode = AccessSpec::Mode::kStrided;
  spec.stride = 8;
  const pfs::RegionList regions = build_access_regions(meta, spec, 1);

  // Sampled rows start at row 1 (halo above), so the first fetched run
  // starts at row 0 and covers 3 rows (sample +- 1 halo row).
  ASSERT_FALSE(regions.empty());
  EXPECT_EQ(regions.runs()[0].offset, 0U);
  EXPECT_EQ(regions.runs()[0].length, 3 * row_bytes);
  EXPECT_EQ(regions.encoding(), pfs::RegionEncoding::kStrided);
  // 8 samples (rows 1, 9, ..., 57): payload = 24 rows of 64.
  EXPECT_EQ(regions.runs().size(), 8U);
  EXPECT_EQ(regions.total_bytes(), 8 * 3 * row_bytes);
}

TEST(BuildRegionsTest, DenseStrideDegeneratesToOneRun) {
  const pfs::FileMeta meta = raster_meta(256, 64);
  AccessSpec spec;
  spec.mode = AccessSpec::Mode::kStrided;
  spec.stride = 2;  // k <= 2*halo: every byte is touched anyway
  const pfs::RegionList regions = build_access_regions(meta, spec, 1);
  ASSERT_EQ(regions.runs().size(), 1U);
  EXPECT_EQ(regions.runs()[0], (pfs::Run{0, meta.size_bytes}));
}

TEST(BuildRegionsTest, ColumnIsOneShortRunPerRow) {
  const std::uint32_t width = 256;
  const std::uint32_t height = 64;
  const pfs::FileMeta meta = raster_meta(width, height);
  AccessSpec spec;
  spec.mode = AccessSpec::Mode::kColumn;
  const pfs::RegionList regions = build_access_regions(meta, spec, 1);

  ASSERT_EQ(regions.runs().size(), height);
  // Middle column +- 1 halo column: 3 elements = 12 bytes per row.
  EXPECT_EQ(regions.runs()[0].length, 12U);
  EXPECT_EQ(regions.encoding(), pfs::RegionEncoding::kStrided);
}

TEST(ListStatsTest, CountsHeadersAndCoalescing) {
  const pfs::FileMeta meta = raster_meta(256, 64);
  AccessSpec spec;
  spec.mode = AccessSpec::Mode::kStrided;
  spec.stride = 8;
  const pfs::RegionList regions = build_access_regions(meta, spec, 1);
  const ListStats stats = list_stats(meta, regions, 4);

  EXPECT_EQ(stats.payload_bytes, regions.total_bytes());
  EXPECT_GE(stats.runs, regions.runs().size());
  EXPECT_GT(stats.request_header_bytes, 0U);
  EXPECT_EQ(stats.reply_framing_bytes,
            stats.runs * pfs::kListReplyRunBytes);
  EXPECT_GE(stats.coalescing_factor(), 1.0);
  EXPECT_LE(stats.coalesced_extents, stats.runs);
  EXPECT_EQ(stats.wire_bytes(), stats.payload_bytes +
                                    stats.request_header_bytes +
                                    stats.reply_framing_bytes);
}

TEST(AccessOutputTest, SampledFractionOfFullOutput) {
  const pfs::FileMeta meta = raster_meta(256, 64);
  const std::uint64_t full = meta.size_bytes;

  AccessSpec strided;
  strided.mode = AccessSpec::Mode::kStrided;
  strided.stride = 8;
  // 8 of 63 sampled rows (starting at the halo row, stepping 8).
  const std::uint64_t strided_out =
      access_output_bytes(meta, strided, 1, full);
  EXPECT_LT(strided_out, full / 4);
  EXPECT_GT(strided_out, 0U);

  AccessSpec column;
  column.mode = AccessSpec::Mode::kColumn;
  EXPECT_EQ(access_output_bytes(meta, column, 1, full), full / 256);

  AccessSpec none;
  EXPECT_EQ(access_output_bytes(meta, none, 1, full), full);
}

TEST(ListDecisionTest, SparserAccessFlipsAwayFromOffload) {
  // A large raster where the dense sweep clearly favors offload; as k
  // grows the list path touches ever fewer bytes and must win.
  const std::uint32_t width = 16 * 1024;
  const std::uint32_t height = 16 * 1024;
  const pfs::FileMeta meta = raster_meta(width, height);
  const auto offsets = eight_neighbor_offsets(width);
  ClusterConfig cluster;
  cluster.storage_nodes = 4;
  cluster.compute_nodes = 4;
  DistributionConfig distribution;

  double prev_normal = 0.0;
  bool seen_offload = false;
  bool seen_normal = false;
  OffloadAction last = OffloadAction::kOffload;
  for (const std::uint32_t k : {2U, 4U, 8U, 16U, 32U, 64U}) {
    AccessSpec spec;
    spec.mode = AccessSpec::Mode::kStrided;
    spec.stride = k;
    const std::uint32_t halo = halo_rows_for(meta, offsets);
    const pfs::RegionList regions = build_access_regions(meta, spec, halo);
    const ListStats stats = list_stats(meta, regions, 4);
    const std::uint64_t full_output = meta.size_bytes;
    const ListDecision d = decide_list_access(
        meta, offsets, stats, cluster, distribution, 1.0, full_output,
        access_output_bytes(meta, spec, halo, full_output));

    if (prev_normal > 0.0) {
      EXPECT_LE(d.normal_seconds, prev_normal)
          << "k=" << k << ": sparser access must not cost more";
    }
    prev_normal = d.normal_seconds;
    if (d.action == OffloadAction::kOffload) {
      seen_offload = true;
      EXPECT_FALSE(seen_normal)
          << "k=" << k << ": decision must flip once, not oscillate";
    } else {
      seen_normal = true;
    }
    last = d.action;
    EXPECT_FALSE(d.rationale.empty());
  }
  EXPECT_TRUE(seen_offload) << "dense access should favor offload";
  EXPECT_TRUE(seen_normal) << "sparse access should favor list serving";
  EXPECT_EQ(last, OffloadAction::kServeNormal);
}

}  // namespace
}  // namespace das::core
