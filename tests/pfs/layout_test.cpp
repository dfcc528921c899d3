#include "pfs/layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace das::pfs {
namespace {

TEST(RoundRobinTest, PrimaryIsStripModServers) {
  const RoundRobinLayout layout(4);
  for (std::uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(layout.primary(s), s % 4);
  }
  EXPECT_TRUE(layout.replicas(3, 20).empty());
}

TEST(GroupedTest, GroupsOfRStripsRotate) {
  const GroupedLayout layout(3, 4);
  EXPECT_EQ(layout.primary(0), 0U);
  EXPECT_EQ(layout.primary(3), 0U);
  EXPECT_EQ(layout.primary(4), 1U);
  EXPECT_EQ(layout.primary(11), 2U);
  EXPECT_EQ(layout.primary(12), 0U);  // wraps
}

TEST(GroupedTest, PrimaryStripsAreContiguousRuns) {
  const GroupedLayout layout(2, 3);
  const auto strips = layout.primary_strips(0, 12);
  EXPECT_EQ(strips, (std::vector<std::uint64_t>{0, 1, 2, 6, 7, 8}));
}

TEST(DasReplicatedTest, FirstStripOfGroupReplicatedToPreviousServer) {
  const DasReplicatedLayout layout(4, 4, 1);
  // Strip 4 = first strip of group 1 (home server 1) -> replica on server 0.
  const auto reps = layout.replicas(4, 32);
  ASSERT_EQ(reps.size(), 1U);
  EXPECT_EQ(reps[0], 0U);
}

TEST(DasReplicatedTest, LastStripOfGroupReplicatedToNextServer) {
  const DasReplicatedLayout layout(4, 4, 1);
  // Strip 7 = last strip of group 1 -> replica on server 2.
  const auto reps = layout.replicas(7, 32);
  ASSERT_EQ(reps.size(), 1U);
  EXPECT_EQ(reps[0], 2U);
}

TEST(DasReplicatedTest, MiddleStripsAreNotReplicated) {
  const DasReplicatedLayout layout(4, 4, 1);
  EXPECT_TRUE(layout.replicas(5, 32).empty());
  EXPECT_TRUE(layout.replicas(6, 32).empty());
}

TEST(DasReplicatedTest, FileEdgesSuppressReplication) {
  const DasReplicatedLayout layout(4, 4, 1);
  // Strip 0 has no previous group; the file's last strip has no next group.
  EXPECT_TRUE(layout.replicas(0, 32).empty());
  EXPECT_TRUE(layout.replicas(31, 32).empty());
  // But strip 3 (last of group 0) is replicated forward.
  EXPECT_FALSE(layout.replicas(3, 32).empty());
}

TEST(DasReplicatedTest, WiderHaloReplicatesMoreStrips) {
  const DasReplicatedLayout layout(3, 6, 2);
  EXPECT_EQ(layout.replicas(6, 36).size(), 1U);   // pos 0 < halo
  EXPECT_EQ(layout.replicas(7, 36).size(), 1U);   // pos 1 < halo
  EXPECT_TRUE(layout.replicas(8, 36).empty());    // interior
  EXPECT_EQ(layout.replicas(10, 36).size(), 1U);  // pos 4 >= r - halo
  EXPECT_EQ(layout.replicas(11, 36).size(), 1U);
}

TEST(DasReplicatedTest, SingleServerHasNoReplicas) {
  const DasReplicatedLayout layout(1, 4, 1);
  for (std::uint64_t s = 0; s < 16; ++s) {
    EXPECT_TRUE(layout.replicas(s, 16).empty());
  }
}

TEST(DasReplicatedTest, WrapAroundNeighbours) {
  const DasReplicatedLayout layout(3, 2, 1);
  // Group 0 on server 0: its first strip replicates to server 2 only when a
  // previous group exists -> strip 0 has none. Group 3 (strips 6,7) is on
  // server 0 again; strip 6 replicates to server 2 (home of group 2).
  EXPECT_TRUE(layout.replicas(0, 12).empty());
  const auto reps = layout.replicas(6, 12);
  ASSERT_EQ(reps.size(), 1U);
  EXPECT_EQ(reps[0], 2U);
}

TEST(LayoutTest, HoldersDeduplicatePrimary) {
  const DasReplicatedLayout layout(2, 2, 1);
  // With D=2 the "previous" and "next" servers are the same single peer.
  for (std::uint64_t s = 0; s < 8; ++s) {
    const auto holders = layout.holders(s, 8);
    EXPECT_EQ(holders.front(), layout.primary(s));
    const std::set<ServerIndex> unique(holders.begin(), holders.end());
    EXPECT_EQ(unique.size(), holders.size());
  }
}

TEST(LayoutTest, HoldsAgreesWithHolders) {
  const DasReplicatedLayout layout(4, 4, 1);
  for (std::uint64_t s = 0; s < 32; ++s) {
    for (ServerIndex server = 0; server < 4; ++server) {
      const auto holders = layout.holders(s, 32);
      const bool expect =
          std::find(holders.begin(), holders.end(), server) != holders.end();
      EXPECT_EQ(layout.holds(server, s, 32), expect);
    }
  }
}

TEST(LayoutTest, LocalStripsIncludeReplicas) {
  const DasReplicatedLayout layout(4, 4, 1);
  // Server 0 owns group 0 (strips 0-3) and group 4 (16-19); it also stores
  // replicas: first strips of the groups on server 1 (4 and 20) and last
  // strips of the groups on server 3 (15; strip 31 is suppressed because
  // group 7 is the file's last group).
  const auto locals = layout.local_strips(0, 32);
  const std::vector<std::uint64_t> expected{0,  1,  2,  3,  4, 15,
                                            16, 17, 18, 19, 20};
  EXPECT_EQ(locals, expected);
}

// Capacity overhead of the DAS layout must approach 2*halo/r (paper: 2/r).
struct OverheadCase {
  std::uint32_t servers;
  std::uint64_t group;
  std::uint64_t halo;
};

class CapacityOverheadTest : public ::testing::TestWithParam<OverheadCase> {};

TEST_P(CapacityOverheadTest, MatchesTwoHaloOverR) {
  const auto [servers, group, halo] = GetParam();
  const DasReplicatedLayout layout(servers, group, halo);
  FileMeta meta;
  meta.name = "f";
  meta.strip_size = 1024;
  // Many whole groups so edge suppression is negligible.
  meta.size_bytes = meta.strip_size * group * servers * 64;

  std::uint64_t stored = 0;
  for (ServerIndex s = 0; s < servers; ++s) {
    stored += layout.stored_bytes(s, meta);
  }
  const double overhead =
      static_cast<double>(stored) / static_cast<double>(meta.size_bytes) -
      1.0;
  EXPECT_NEAR(overhead, layout.capacity_overhead(), 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CapacityOverheadTest,
    ::testing::Values(OverheadCase{4, 4, 1}, OverheadCase{4, 8, 1},
                      OverheadCase{4, 16, 2}, OverheadCase{8, 8, 2},
                      OverheadCase{2, 6, 3}, OverheadCase{12, 16, 1}),
    [](const auto& test) {
      return "D" + std::to_string(test.param.servers) + "_r" +
             std::to_string(test.param.group) + "_h" +
             std::to_string(test.param.halo);
    });

TEST(LayoutTest, StoredBytesSumsToFileSizeWithoutReplication) {
  const RoundRobinLayout layout(3);
  FileMeta meta;
  meta.name = "f";
  meta.strip_size = 100;
  meta.size_bytes = 1050;  // partial last strip
  std::uint64_t total = 0;
  for (ServerIndex s = 0; s < 3; ++s) total += layout.stored_bytes(s, meta);
  EXPECT_EQ(total, meta.size_bytes);
}

TEST(LayoutTest, CloneIsIndependentButEquivalent) {
  const DasReplicatedLayout layout(4, 8, 2);
  const auto clone = layout.clone();
  EXPECT_EQ(clone->name(), layout.name());
  for (std::uint64_t s = 0; s < 64; ++s) {
    EXPECT_EQ(clone->primary(s), layout.primary(s));
    EXPECT_EQ(clone->replicas(s, 64), layout.replicas(s, 64));
  }
}

TEST(LayoutTest, NamesDescribeParameters) {
  EXPECT_EQ(RoundRobinLayout(4).name(), "round-robin(D=4)");
  EXPECT_EQ(GroupedLayout(4, 8).name(), "grouped(D=4,r=8)");
  EXPECT_EQ(DasReplicatedLayout(4, 8, 2).name(),
            "das-replicated(D=4,r=8,halo=2)");
}

TEST(LayoutDeathTest, InvalidParametersAbort) {
  EXPECT_DEATH(RoundRobinLayout(0), "DAS_REQUIRE");
  EXPECT_DEATH(GroupedLayout(2, 0), "DAS_REQUIRE");
  EXPECT_DEATH(DasReplicatedLayout(2, 2, 2), "DAS_REQUIRE");  // 2h > r
  EXPECT_DEATH(DasReplicatedLayout(2, 4, 0), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::pfs
