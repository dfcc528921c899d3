// Randomized layout invariants: for arbitrary (D, r, halo, strips)
// configurations, the placement must keep its structural promises. Failures
// here would silently corrupt every simulation built on top.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "pfs/layout.hpp"
#include "simkit/random.hpp"

namespace das::pfs {
namespace {

struct FuzzConfig {
  std::uint32_t servers;
  std::uint64_t group;
  std::uint64_t halo;
  std::uint64_t strips;
};

std::vector<FuzzConfig> random_configs(std::size_t n) {
  sim::Rng rng(0xF0CC5EED);
  std::vector<FuzzConfig> out;
  while (out.size() < n) {
    FuzzConfig cfg;
    cfg.servers = static_cast<std::uint32_t>(rng.uniform_int(1, 16));
    cfg.halo = static_cast<std::uint64_t>(rng.uniform_int(1, 4));
    cfg.group = static_cast<std::uint64_t>(
        rng.uniform_int(static_cast<std::int64_t>(2 * cfg.halo), 40));
    cfg.strips = static_cast<std::uint64_t>(rng.uniform_int(1, 600));
    out.push_back(cfg);
  }
  return out;
}

class LayoutFuzzTest : public ::testing::TestWithParam<FuzzConfig> {};

TEST_P(LayoutFuzzTest, StructuralInvariantsHold) {
  const auto [servers, group, halo, strips] = GetParam();
  const DasReplicatedLayout layout(servers, group, halo);

  std::map<ServerIndex, std::uint64_t> primaries_per_server;
  for (std::uint64_t s = 0; s < strips; ++s) {
    const auto holders = layout.holders(s, strips);

    // Exactly one primary, listed first, inside the server range.
    ASSERT_FALSE(holders.empty());
    EXPECT_EQ(holders.front(), layout.primary(s));
    EXPECT_LT(layout.primary(s), servers);
    ++primaries_per_server[layout.primary(s)];

    // No duplicate holders; at most primary + two replica sides.
    std::set<ServerIndex> unique(holders.begin(), holders.end());
    EXPECT_EQ(unique.size(), holders.size());
    EXPECT_LE(holders.size(), 3U);

    // holds() agrees with holders() for every server.
    for (ServerIndex server = 0; server < servers; ++server) {
      EXPECT_EQ(layout.holds(server, s, strips), unique.contains(server));
    }

    // Replicas are exactly the group-edge strips (when a neighbour group
    // exists), and they live on the adjacent servers.
    const std::uint64_t pos = s % group;
    const std::uint64_t g = s / group;
    const std::uint64_t last_group = (strips - 1) / group;
    const bool expect_pre = pos < halo && g > 0 && servers > 1;
    const bool expect_post = pos + halo >= group && g < last_group &&
                             servers > 1;
    const auto reps = layout.replicas(s, strips);
    std::set<ServerIndex> rep_set(reps.begin(), reps.end());
    std::set<ServerIndex> expected;
    if (expect_pre) {
      expected.insert(
          static_cast<ServerIndex>((layout.primary(s) + servers - 1) %
                                   servers));
    }
    if (expect_post) {
      expected.insert(
          static_cast<ServerIndex>((layout.primary(s) + 1) % servers));
    }
    // With D == 1 suppressed above; with D == 2 both sides may coincide.
    expected.erase(layout.primary(s));
    EXPECT_EQ(rep_set, expected) << "strip " << s;
  }

  // local_strips is consistent with holds and covers every strip once as
  // primary.
  std::uint64_t total_locals = 0;
  std::uint64_t total_primaries = 0;
  for (ServerIndex server = 0; server < servers; ++server) {
    const auto locals = layout.local_strips(server, strips);
    for (const std::uint64_t s : locals) {
      EXPECT_TRUE(layout.holds(server, s, strips));
    }
    EXPECT_TRUE(std::is_sorted(locals.begin(), locals.end()));
    total_locals += locals.size();
    total_primaries += layout.primary_strips(server, strips).size();
  }
  EXPECT_EQ(total_primaries, strips);
  EXPECT_GE(total_locals, strips);
}

// The closed forms (holds, local_count, local_ordinal, stored_bytes) must
// agree with an enumeration of holders() for every strip and server.
void expect_closed_forms_match(const Layout& layout, std::uint64_t strips) {
  SCOPED_TRACE(layout.name() + " n=" + std::to_string(strips));
  const std::uint32_t servers = layout.num_servers();
  std::vector<std::vector<std::uint64_t>> held(servers);
  for (std::uint64_t s = 0; s < strips; ++s) {
    const auto holders = layout.holders(s, strips);
    for (ServerIndex server = 0; server < servers; ++server) {
      const bool expect =
          std::find(holders.begin(), holders.end(), server) != holders.end();
      ASSERT_EQ(layout.holds(server, s, strips), expect)
          << "server " << server << " strip " << s;
      if (expect) held[server].push_back(s);
    }
  }

  // A short last strip: every strip is 16 bytes except the last (11).
  FileMeta meta;
  meta.strip_size = 16;
  meta.size_bytes = strips * 16 - 5;
  for (ServerIndex server = 0; server < servers; ++server) {
    const auto& mine = held[server];
    EXPECT_EQ(layout.local_strips(server, strips), mine);
    EXPECT_EQ(layout.local_count(server, strips), mine.size());
    std::uint64_t bytes = 0;
    for (const std::uint64_t s : mine) bytes += meta.strip(s).length;
    EXPECT_EQ(layout.stored_bytes(server, meta), bytes);
    // local_ordinal counts the held strips below any strip: for a held
    // strip that is its index in local_strips().
    for (std::uint64_t s = 0; s < strips; ++s) {
      const auto below = static_cast<std::uint64_t>(
          std::lower_bound(mine.begin(), mine.end(), s) - mine.begin());
      ASSERT_EQ(layout.local_ordinal(server, s, strips), below)
          << "server " << server << " strip " << s;
    }
  }
}

void expect_every_layout_class_matches(const FuzzConfig& c) {
  expect_closed_forms_match(RoundRobinLayout(c.servers), c.strips);
  expect_closed_forms_match(GroupedLayout(c.servers, c.group), c.strips);
  // copies = halo + 1 spans 2..5, clamped to D when D is smaller.
  const auto copies = static_cast<std::uint32_t>(c.halo + 1);
  const ReplicatedRoundRobinLayout replicated(c.servers, copies);
  expect_closed_forms_match(replicated, c.strips);
  const DasReplicatedLayout das(c.servers, c.group, c.halo);
  expect_closed_forms_match(das, c.strips);
}

TEST_P(LayoutFuzzTest, ClosedFormPlacementMatchesHolders) {
  expect_every_layout_class_matches(GetParam());
}

// Hand-picked edges: D = 1, n < D, n not a multiple of D or r, groups of
// exactly 2 * halo, and copies clamped to D.
TEST(LayoutClosedFormTest, EdgeShapesMatchHolders) {
  constexpr std::uint32_t kServers[] = {1, 2, 3, 12};
  constexpr std::uint64_t kStrips[] = {1, 2, 5, 11, 13, 37, 97};
  constexpr std::uint64_t kGroups[] = {2, 3, 4, 7};
  for (const std::uint32_t servers : kServers) {
    for (const std::uint64_t strips : kStrips) {
      for (const std::uint64_t group : kGroups) {
        expect_every_layout_class_matches({servers, group, 1, strips});
        if (group >= 4) {
          expect_every_layout_class_matches({servers, group, 2, strips});
        }
      }
      const ReplicatedRoundRobinLayout all_copies(servers, 40);
      expect_closed_forms_match(all_copies, strips);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, LayoutFuzzTest,
                         ::testing::ValuesIn(random_configs(24)),
                         [](const auto& test) {
                           const auto& c = test.param;
                           return "D" + std::to_string(c.servers) + "_r" +
                                  std::to_string(c.group) + "_h" +
                                  std::to_string(c.halo) + "_n" +
                                  std::to_string(c.strips);
                         });

}  // namespace
}  // namespace das::pfs
