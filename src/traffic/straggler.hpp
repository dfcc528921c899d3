// Straggler-aware client-side strip reads.
//
// The traffic engine's jobs read strips through this scheduler instead of
// going straight to the primary holder. It keeps, per storage server, an
// EWMA of client-observed read latency, plus one global latency
// distribution, and uses them two ways (both off by default):
//
//  * re-route: when the primary holder's EWMA exceeds
//    `reroute_multiplier` x the global median, the read is sent to the
//    replica holder with the lowest EWMA instead — sustained stragglers
//    (slow disk, hot node) are simply avoided;
//  * hedge: after `hedge_multiplier` x the global median with no reply, a
//    duplicate request goes to a different holder and the first reply
//    wins — transient stragglers cost one extra strip transfer instead of
//    a tail-latency spike. The loser's bytes are counted as waste.
//
// Both need replica holders to exist (ReplicatedRoundRobinLayout); with a
// replication-free layout the scheduler degrades to plain primary reads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "pfs/pfs.hpp"
#include "pfs/region.hpp"
#include "simkit/simulator.hpp"
#include "simkit/stats.hpp"
#include "simkit/time.hpp"
#include "telemetry/metrics.hpp"

namespace das::telemetry {
class Registry;
}  // namespace das::telemetry

namespace das::traffic {

struct StragglerConfig {
  bool reroute = false;
  bool hedge = false;
  /// Avoid a primary whose EWMA exceeds this multiple of the global median.
  double reroute_multiplier = 2.0;
  /// Hedge after this multiple of the global median latency with no reply
  /// (the median, not a tail quantile: the tail is the straggler latency
  /// being fought, so a tail-based timer would never beat the straggler).
  double hedge_multiplier = 3.0;
  /// Never hedge earlier than this (guards against p95 ~ 0 early on).
  sim::SimDuration hedge_floor = sim::milliseconds(2);
  /// Samples required (per server and globally) before judging anyone.
  std::uint32_t min_samples = 16;
  /// EWMA smoothing factor for per-server latency.
  double ewma_alpha = 0.2;

  [[nodiscard]] bool active() const { return reroute || hedge; }
};

class StragglerScheduler {
 public:
  using DoneFn = sim::InplaceFn<void()>;

  StragglerScheduler(sim::Simulator& simulator, net::Network& network,
                     pfs::Pfs& pfs, const StragglerConfig& config);

  StragglerScheduler(const StragglerScheduler&) = delete;
  StragglerScheduler& operator=(const StragglerScheduler&) = delete;

  /// Read strip `strip` of `file` for `tenant` running on `client`.
  /// `on_done` fires at the client when the first copy of the payload has
  /// fully arrived (a losing hedged copy still transfers afterwards and is
  /// accounted as waste).
  void read_strip(net::NodeId client, net::TenantId tenant, pfs::FileId file,
                  std::uint64_t strip, DoneFn on_done,
                  std::uint64_t span = 0);

  /// List-I/O variant: fetch only `runs` (all within one strip) as a single
  /// coalesced list request (pfs::PfsServer::serve_read_list). Re-route and
  /// hedging apply exactly as for read_strip; a hedge re-issues the same
  /// run list to the replica holder, and a losing copy's waste is the list
  /// payload, not the whole strip.
  void read_strip_runs(net::NodeId client, net::TenantId tenant,
                       pfs::FileId file, std::vector<pfs::StripRun> runs,
                       DoneFn on_done, std::uint64_t span = 0);

  [[nodiscard]] std::uint64_t reads_issued() const { return reads_issued_; }
  [[nodiscard]] std::uint64_t reroutes() const { return reroutes_; }
  [[nodiscard]] std::uint64_t hedges_issued() const { return hedges_issued_; }
  [[nodiscard]] std::uint64_t hedges_won() const { return hedges_won_; }
  [[nodiscard]] std::uint64_t wasted_bytes() const { return wasted_bytes_; }

  /// Client-observed strip read latency (seconds), all servers.
  [[nodiscard]] const sim::Histogram& latency_histogram() const {
    return latency_;
  }

  /// Per-server latency EWMA in seconds (0 until the server has samples).
  [[nodiscard]] double server_ewma(pfs::ServerIndex server) const {
    return ewma_[server];
  }

  /// Enroll reroute/hedge counters and the read-latency histogram.
  void enroll(telemetry::Registry& registry) const;

 private:
  /// One logical strip read; lives until every issued copy has replied.
  struct Op {
    pfs::FileId file = pfs::kInvalidFile;
    std::uint64_t strip = 0;
    std::uint64_t length = 0;
    net::NodeId client = net::kInvalidNode;
    net::TenantId tenant = net::kNoTenant;
    pfs::ServerIndex first_server = 0;
    /// Holder set snapshotted at issue time, so a later hedge never targets
    /// a server the strip migrated away from mid-flight.
    std::vector<pfs::ServerIndex> holders;
    sim::SimTime first_issued_at = 0;
    sim::SimTime hedge_issued_at = 0;
    sim::EventId hedge_timer = 0;
    bool hedge_armed = false;
    bool done = false;
    std::uint32_t outstanding = 0;
    DoneFn on_done;
    std::uint64_t span = 0;  // causal span of the owning job; 0 untracked
    /// Non-empty for a list read: the runs every issued copy requests.
    /// `length` is then the list payload (waste + latency accounting).
    std::vector<pfs::StripRun> runs;
  };

  [[nodiscard]] Op* acquire_op();
  void release_op(Op* op);

  /// Shared tail of read_strip / read_strip_runs: pick the target (with
  /// re-route), populate a pooled op and issue it (arming the hedge timer).
  void begin_read(net::NodeId client, net::TenantId tenant, pfs::FileId file,
                  std::uint64_t strip, std::uint64_t length,
                  std::vector<pfs::StripRun> runs, DoneFn on_done,
                  std::uint64_t span);

  void issue(Op* op, pfs::ServerIndex target, bool is_hedge);
  void complete(Op* op, pfs::ServerIndex from, bool is_hedge);
  void arm_hedge(Op* op);
  void fire_hedge(Op* op);
  void record_latency(pfs::ServerIndex server, double seconds);

  /// The holder with the lowest EWMA, skipping `exclude`; never-sampled
  /// holders score the global median latency so a cold server is tried
  /// only over measured-slow ones. kNoServer when none.
  [[nodiscard]] pfs::ServerIndex pick_fastest(
      const std::vector<pfs::ServerIndex>& holders,
      pfs::ServerIndex exclude) const;

  static constexpr pfs::ServerIndex kNoServer = UINT32_MAX;

  sim::Simulator& sim_;
  net::Network& net_;
  pfs::Pfs& pfs_;
  StragglerConfig config_;
  std::vector<double> ewma_;
  std::vector<std::uint64_t> samples_;
  sim::Histogram latency_;
  /// The global median every read, hedge and pick consults, kept beside
  /// latency_ so it never waits on a re-sort of all samples.
  sim::RunningMedian median_;
  telemetry::Counter reads_issued_;
  telemetry::Counter reroutes_;
  telemetry::Counter hedges_issued_;
  telemetry::Counter hedges_won_;
  telemetry::Counter wasted_bytes_;
  std::vector<std::unique_ptr<Op>> ops_;
  std::vector<Op*> free_ops_;
};

}  // namespace das::traffic
