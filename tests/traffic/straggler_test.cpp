// Straggler-scheduler behaviour through the full engine: two storage
// servers are slowed via ClusterConfig's straggler injection and the
// per-tenant SLO quantiles are compared with mitigation off and on. The
// runs are deterministic, so these are exact regressions, not statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "pfs/layout.hpp"
#include "pfs/migrate.hpp"
#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"
#include "simkit/time.hpp"
#include "traffic/engine.hpp"
#include "traffic/straggler.hpp"

namespace das::traffic {
namespace {

TrafficConfig slow_server_config() {
  TrafficConfig config;
  config.cluster.straggler_count = 2;
  config.cluster.straggler_slowdown = 32.0;
  config.arrivals.tenants = 32;
  config.arrivals.jobs_per_tenant = 8;
  config.arrivals.rate_hz = 3.0;
  config.arrivals.job_bytes = 4ULL << 20;
  config.arrivals.strip_bytes = 1ULL << 20;
  config.arrivals.datasets = 2;
  config.arrivals.dataset_strips = 512;
  config.replication = 3;
  return config;
}

TEST(StragglerTest, HedgingCutsTailLatencyUnderSlowServers) {
  TrafficConfig off = slow_server_config();
  const TrafficReport baseline = run_traffic(off);

  TrafficConfig on = slow_server_config();
  on.straggler.hedge = true;
  const TrafficReport hedged = run_traffic(on);

  ASSERT_EQ(baseline.total.jobs_completed, hedged.total.jobs_completed);
  EXPECT_EQ(baseline.hedges_issued, 0u);
  EXPECT_GT(hedged.hedges_issued, 0u);
  EXPECT_GT(hedged.hedges_won, 0u);
  EXPECT_GT(hedged.wasted_bytes, 0u);  // losing copies are accounted
  // bench_traffic's CI bound: hedging cuts the aggregate p99 sojourn to at
  // most 70% of the unmitigated p99 (24.5% at this configuration).
  EXPECT_LE(hedged.total.sojourn.summary().p99,
            0.7 * baseline.total.sojourn.summary().p99);
}

TEST(StragglerTest, ReroutingAvoidsSlowPrimaries) {
  TrafficConfig on = slow_server_config();
  on.straggler.reroute = true;
  const TrafficReport rerouted = run_traffic(on);

  EXPECT_GT(rerouted.reroutes, 0u);
  EXPECT_EQ(rerouted.hedges_issued, 0u);
  // Re-routing duplicates nothing, so no bytes are wasted.
  EXPECT_EQ(rerouted.wasted_bytes, 0u);

  const TrafficReport baseline = run_traffic(slow_server_config());
  EXPECT_LT(rerouted.total.sojourn.summary().p99,
            baseline.total.sojourn.summary().p99);
}

TEST(StragglerTest, NoReplicasMeansNoMitigation) {
  TrafficConfig on = slow_server_config();
  on.replication = 1;  // no replica holders to hedge or re-route to
  on.straggler.hedge = true;
  on.straggler.reroute = true;
  const TrafficReport report = run_traffic(on);
  EXPECT_GT(report.reads_issued, 0u);
  EXPECT_EQ(report.hedges_issued, 0u);
  EXPECT_EQ(report.reroutes, 0u);
  EXPECT_EQ(report.total.jobs_completed,
            32u * 8u);  // still completes, just unmitigated
}

TEST(StragglerTest, HealthyClusterHedgesRarelyAndStaysCorrect) {
  TrafficConfig on = slow_server_config();
  on.cluster.straggler_count = 0;  // nobody is actually slow
  on.straggler.hedge = true;
  on.straggler.reroute = true;
  const TrafficReport report = run_traffic(on);
  EXPECT_EQ(report.total.jobs_completed, 32u * 8u);
  // With a uniform cluster the median-based timer should fire for at most a
  // small fraction of reads (transient queueing only).
  EXPECT_LT(report.hedges_issued, report.reads_issued / 4);
}

/// Direct-scheduler fixture: 4 storage servers + 1 client over a plain Pfs,
/// so per-server latency history can be shaped read by read (bursts to one
/// server serialize at its disk and inflate its observed latency).
class StragglerSchedulerFixture : public ::testing::Test {
 protected:
  void build(const StragglerConfig& config,
             std::unique_ptr<pfs::Layout> layout) {
    net::NetworkConfig ncfg;
    ncfg.num_nodes = 5;
    network_ = std::make_unique<net::Network>(sim_, ncfg);
    pfs_ = std::make_unique<pfs::Pfs>(sim_, *network_,
                                      std::vector<net::NodeId>{0, 1, 2, 3},
                                      storage::DiskConfig{});
    pfs::FileMeta meta;
    meta.name = "f";
    meta.strip_size = 64;
    meta.size_bytes = 8 * 64;
    data_.assign(meta.size_bytes, std::byte{0x7e});
    file_ = pfs_->create_file(meta, std::move(layout), &data_);
    sched_ = std::make_unique<StragglerScheduler>(sim_, *network_, *pfs_,
                                                  config);
  }

  /// Issue `count` reads of `strip` in one event at `when`.
  void reads_at(sim::SimTime when, std::uint64_t strip, std::uint32_t count) {
    sim_.schedule_at(
        when,
        [this, strip, count]() {
          for (std::uint32_t i = 0; i < count; ++i) {
            sched_->read_strip(/*client=*/4, /*tenant=*/0, file_, strip,
                               [this]() { ++completions_; });
          }
        },
        "test.reads");
  }

  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<pfs::Pfs> pfs_;
  std::unique_ptr<StragglerScheduler> sched_;
  pfs::FileId file_ = pfs::kInvalidFile;
  std::vector<std::byte> data_;
  std::uint32_t completions_ = 0;
};

TEST_F(StragglerSchedulerFixture, RerouteSkipsColdReplicaForMeasuredFastOne) {
  // The cold-server bias regression: a never-sampled holder must score the
  // global median, not zero. Strip 0's holders are {0, 1, 2}; server 0 is
  // made measurably slow, server 1 measurably fast, and server 2 is never
  // sampled. The reroute must land on the measured-fast server 1 — scoring
  // the cold server 2 at 0.0 would make it win every pick.
  StragglerConfig config;
  config.reroute = true;
  config.reroute_multiplier = 3.0;
  config.min_samples = 8;
  build(config, std::make_unique<pfs::ReplicatedRoundRobinLayout>(4, 3));

  // Server 1: six spaced single reads, each at the uncontended latency.
  for (std::uint32_t i = 0; i < 6; ++i) {
    reads_at(sim::milliseconds(10 * (i + 1)), /*strip=*/1, 1);
  }
  // Server 3: six bursts of four, pushing the global median above the
  // uncontended latency (so the cold server's seed is clearly beaten by a
  // genuinely fast EWMA).
  for (std::uint32_t b = 0; b < 6; ++b) {
    reads_at(sim::milliseconds(100 + 20 * b), /*strip=*/3, 4);
  }
  // Server 0: one burst of sixteen; the queueing ramp drives its EWMA far
  // past reroute_multiplier x median.
  reads_at(sim::milliseconds(400), /*strip=*/0, 16);
  // The probe: a read of strip 0 against the warmed-up history.
  reads_at(sim::milliseconds(500), /*strip=*/0, 1);
  sim_.run();

  EXPECT_EQ(completions_, 47U);
  EXPECT_EQ(sched_->reads_issued(), 47U);
  EXPECT_EQ(sched_->reroutes(), 1U);
  // The rerouted read went to server 1, not the cold server 2: server 2
  // still has no samples, so its EWMA is untouched.
  EXPECT_EQ(sched_->server_ewma(2), 0.0);
  EXPECT_GT(sched_->server_ewma(1), 0.0);
  EXPECT_GT(sched_->server_ewma(0), 3.0 * sched_->server_ewma(1));
}

TEST_F(StragglerSchedulerFixture, HedgeUsesHolderSnapshotAcrossMigration) {
  // The hedge holder-snapshot regression: a read issued just before a
  // migration commits its strip must hedge against the holders it was issued
  // under. Strip 0's prior holders are {0, 1}; the migration to
  // grouped(4,r=2) commits strip 0 immediately (server 0 already has it),
  // leaving the live holder set {0} — resolving holders at fire time would
  // find nobody to hedge to, and the read would sit behind server 0's queue.
  // The snapshot still names server 1, whose retired copy must serve.
  StragglerConfig config;
  config.hedge = true;
  config.min_samples = 4;
  build(config, std::make_unique<pfs::ReplicatedRoundRobinLayout>(4, 2));
  pfs::LayoutMigrator migrator(sim_, *pfs_);

  // Warm-up: one spaced read per strip seeds the latency histogram; each
  // completes well under the 2 ms hedge floor, so no warm-up hedges fire.
  for (std::uint64_t s = 0; s < 8; ++s) {
    reads_at(sim::milliseconds(static_cast<std::int64_t>(10 * (s + 1))), s, 1);
  }

  // Flood server 0's disk with untagged reads so the probe's primary reply
  // is ~15 ms out — far beyond the hedge timer.
  sim_.schedule_at(
      sim::milliseconds(200),
      [this]() {
        for (int i = 0; i < 30; ++i) {
          pfs_->server(0).serve_read(
              file_, 0, 0, 64, /*requester=*/4,
              net::TrafficClass::kClientServer,
              [](const pfs::StripBuffer&) {}, net::kNoTenant);
        }
      },
      "test.flood");
  // The probe snapshots holders {0, 1} and queues behind the flood.
  reads_at(sim::milliseconds(200) + sim::microseconds(10), /*strip=*/0, 1);
  // The migration begins after the probe is in flight and retires server 1's
  // replica of strip 0 the moment the strip commits.
  sim_.schedule_at(
      sim::milliseconds(200) + sim::microseconds(20),
      [this, &migrator]() {
        pfs::MigrateOptions options;
        options.strips_per_round = 1;
        migrator.migrate(file_, std::make_unique<pfs::GroupedLayout>(4, 2),
                         options, nullptr);
      },
      "test.migrate");
  sim_.run();

  EXPECT_EQ(completions_, 9U);
  EXPECT_EQ(sched_->hedges_issued(), 1U);
  // The hedge to server 1's retired copy beat the flooded primary, whose
  // late reply is the wasted transfer.
  EXPECT_EQ(sched_->hedges_won(), 1U);
  EXPECT_EQ(sched_->wasted_bytes(), 64U);
  EXPECT_FALSE(migrator.busy());
  EXPECT_EQ(pfs_->gather_bytes(file_), data_);
}

}  // namespace
}  // namespace das::traffic
