// Online layout migration: content preservation, mid-migration reads,
// retire-not-erase copy versioning, epoch advance, and move-back
// reinstatement.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "pfs/client.hpp"
#include "pfs/migrate.hpp"
#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"

namespace das::pfs {
namespace {

class MigrateFixture : public ::testing::Test {
 protected:
  MigrateFixture() {
    net::NetworkConfig ncfg;
    ncfg.num_nodes = 5;  // 4 servers + 1 client
    network_ = std::make_unique<net::Network>(sim_, ncfg);
    pfs_ = std::make_unique<Pfs>(sim_, *network_,
                                 std::vector<net::NodeId>{0, 1, 2, 3},
                                 storage::DiskConfig{});
    migrator_ = std::make_unique<LayoutMigrator>(sim_, *pfs_);
  }

  FileId make_file(std::uint64_t strips, std::unique_ptr<Layout> layout) {
    FileMeta meta;
    meta.name = "f";
    meta.size_bytes = strips * 64;
    meta.strip_size = 64;
    data_.resize(meta.size_bytes);
    for (std::uint64_t i = 0; i < meta.size_bytes; ++i) {
      data_[i] = static_cast<std::byte>(i % 251);
    }
    return pfs_->create_file(meta, std::move(layout), &data_);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<Pfs> pfs_;
  std::unique_ptr<LayoutMigrator> migrator_;
  std::vector<std::byte> data_;
};

TEST_F(MigrateFixture, RoundRobinToGroupedPreservesContent) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  bool done = false;
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, [&](const MigrationStats&) {
                       done = true;
                     });
  EXPECT_TRUE(migrator_->busy());
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(migrator_->busy());
  EXPECT_FALSE(pfs_->migrating(f));
  EXPECT_EQ(pfs_->gather_bytes(f), data_);
  EXPECT_EQ(pfs_->layout(f).name(), "grouped(D=4,r=4)");
}

TEST_F(MigrateFixture, NewHoldersHaveEveryStripAfterwards) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  migrator_->migrate(f, std::make_unique<DasReplicatedLayout>(4, 4, 1),
                     MigrateOptions{}, nullptr);
  sim_.run();
  const Layout& layout = pfs_->layout(f);
  for (std::uint64_t s = 0; s < 16; ++s) {
    for (const ServerIndex holder : layout.holders(s, 16)) {
      EXPECT_TRUE(pfs_->server(holder).store().has(f, s));
    }
  }
}

TEST_F(MigrateFixture, OldCopiesAreRetiredNotErased) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, nullptr);
  sim_.run();
  // Grouped(4,4): strip s lives on server s/4; round-robin had it on s%4.
  // Where those differ the old copy must be readable (in-flight reads may
  // still resolve to it) but no longer authoritative.
  std::uint64_t retired = 0;
  for (std::uint64_t s = 0; s < 16; ++s) {
    const ServerIndex old_holder = static_cast<ServerIndex>(s % 4);
    const ServerIndex new_holder = static_cast<ServerIndex>(s / 4);
    if (old_holder == new_holder) continue;
    EXPECT_FALSE(pfs_->server(old_holder).store().has(f, s));
    EXPECT_TRUE(pfs_->server(old_holder).store().readable(f, s));
    ++retired;
  }
  EXPECT_GT(retired, 0U);
  // Accounting counts only authoritative copies: exactly one per strip.
  EXPECT_EQ(pfs_->total_stored_bytes(), 16U * 64);
}

TEST_F(MigrateFixture, EpochAdvancesOncePerMigration) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  EXPECT_EQ(pfs_->layout_epoch(f), 0U);
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, nullptr);
  sim_.run();
  EXPECT_EQ(pfs_->layout_epoch(f), 1U);
}

TEST_F(MigrateFixture, StatsAccounting) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  MigrateOptions options;
  options.strips_per_round = 4;
  MigrationStats stats;
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4), options,
                     [&](const MigrationStats& s) { stats = s; });
  sim_.run();
  EXPECT_EQ(stats.strips_total, 16U);
  // Strips already in place (s%4 == s/4: 0, 5, 10, 15) move nothing.
  EXPECT_EQ(stats.strips_moved, 12U);
  EXPECT_EQ(stats.transfers, 12U);
  EXPECT_EQ(stats.bytes_moved, 12U * 64);
  EXPECT_EQ(stats.rounds, 4U);
  EXPECT_GT(stats.finished_at, stats.started_at);
  EXPECT_EQ(migrator_->total_migrations(), 1U);
  EXPECT_EQ(migrator_->total_bytes_moved(), 12U * 64);
}

TEST_F(MigrateFixture, TransfersAreServerToServer) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, nullptr);
  sim_.run();
  EXPECT_EQ(network_->bytes_delivered(net::TrafficClass::kServerServer),
            12U * 64);
  EXPECT_EQ(network_->bytes_delivered(net::TrafficClass::kClientServer), 0U);
}

TEST_F(MigrateFixture, ReadsMidMigrationSeeCorrectBytes) {
  const FileId f = make_file(64, std::make_unique<RoundRobinLayout>(4));
  PfsClient client(sim_, *network_, *pfs_, /*node=*/4);

  MigrateOptions options;
  options.strips_per_round = 1;  // keep the migration in flight a while
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 16), options,
                     nullptr);

  // Fire full-file reads at staggered points of the migration; every one
  // must assemble the original content regardless of where the frontier is.
  std::vector<std::vector<std::byte>> results(4);
  std::uint32_t reads_done = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    sim_.schedule_at(
        sim::microseconds(1 + 40 * static_cast<std::int64_t>(i)),
        [&, i]() {
          auto* out = &results[i];
          out->assign(data_.size(), std::byte{0});
          client.read_range(
              f, 0, data_.size(), [&]() { ++reads_done; },
              [out](const StripRef& ref, const StripBuffer& payload) {
                ASSERT_EQ(payload.size(), ref.length);
                std::memcpy(out->data() + ref.offset, payload.data(),
                            payload.size());
              });
        },
        "test.read");
  }
  sim_.run();
  EXPECT_EQ(reads_done, 4U);
  for (const auto& r : results) EXPECT_EQ(r, data_);
}

TEST_F(MigrateFixture, MoveBackReinstatesRetiredCopiesWithoutTraffic) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, nullptr);
  sim_.run();
  const std::uint64_t bytes_after_first =
      network_->bytes_delivered(net::TrafficClass::kServerServer);

  MigrationStats stats;
  migrator_->migrate(f, std::make_unique<RoundRobinLayout>(4),
                     MigrateOptions{},
                     [&](const MigrationStats& s) { stats = s; });
  sim_.run();
  // Every displaced strip's old copy is still on the original server in
  // retired form: moving back reinstates locally, no transfers.
  EXPECT_EQ(stats.strips_reinstated, 12U);
  EXPECT_EQ(stats.transfers, 0U);
  EXPECT_EQ(network_->bytes_delivered(net::TrafficClass::kServerServer),
            bytes_after_first);
  EXPECT_EQ(pfs_->gather_bytes(f), data_);
  EXPECT_EQ(pfs_->layout_epoch(f), 2U);
}

TEST_F(MigrateFixture, OfflineRedistributeRefusedDuringMigration) {
  const FileId f = make_file(16, std::make_unique<RoundRobinLayout>(4));
  migrator_->migrate(f, std::make_unique<GroupedLayout>(4, 4),
                     MigrateOptions{}, nullptr);
  EXPECT_TRUE(pfs_->migrating(f));
  EXPECT_DEATH(
      pfs_->redistribute(f, std::make_unique<RoundRobinLayout>(4), nullptr),
      "DAS_REQUIRE");
  sim_.run();
}

TEST_F(MigrateFixture, RetiredSlotServesAndReinstates) {
  // Store-level contract behind the CoW protocol: retire keeps the payload
  // readable, put on a retired slot reinstates it.
  const FileId f = make_file(4, std::make_unique<RoundRobinLayout>(4));
  ServerStore& store = pfs_->server(0).store();
  ASSERT_TRUE(store.has(f, 0));
  const std::vector<std::byte> before = store.buffer(f, 0).to_vector();
  const std::uint64_t stored = store.stored_bytes();

  store.retire(f, 0);
  EXPECT_FALSE(store.has(f, 0));
  EXPECT_TRUE(store.readable(f, 0));
  EXPECT_EQ(store.buffer(f, 0).to_vector(), before);
  EXPECT_EQ(store.stored_bytes(), stored - 64);

  store.put(f, 0, 64, store.buffer(f, 0));
  EXPECT_TRUE(store.has(f, 0));
  EXPECT_EQ(store.stored_bytes(), stored);
  EXPECT_EQ(store.buffer(f, 0).to_vector(), before);
}

}  // namespace
}  // namespace das::pfs
