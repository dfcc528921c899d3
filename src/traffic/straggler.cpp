#include "traffic/straggler.hpp"

#include <algorithm>
#include <utility>

#include "simkit/assert.hpp"
#include "telemetry/registry.hpp"

namespace das::traffic {

StragglerScheduler::StragglerScheduler(sim::Simulator& simulator,
                                       net::Network& network, pfs::Pfs& pfs,
                                       const StragglerConfig& config)
    : sim_(simulator),
      net_(network),
      pfs_(pfs),
      config_(config),
      ewma_(pfs.num_servers(), 0.0),
      samples_(pfs.num_servers(), 0) {
  DAS_REQUIRE(config.reroute_multiplier > 0.0);
  DAS_REQUIRE(config.hedge_multiplier > 0.0);
  DAS_REQUIRE(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0);
}

StragglerScheduler::Op* StragglerScheduler::acquire_op() {
  if (free_ops_.empty()) {
    ops_.push_back(std::make_unique<Op>());
    return ops_.back().get();
  }
  Op* op = free_ops_.back();
  free_ops_.pop_back();
  return op;
}

void StragglerScheduler::release_op(Op* op) {
  op->on_done.reset();
  op->holders.clear();  // keeps capacity for the next read
  op->runs.clear();     // likewise
  op->hedge_armed = false;
  op->done = false;
  op->outstanding = 0;
  op->span = 0;
  free_ops_.push_back(op);
}

void StragglerScheduler::record_latency(pfs::ServerIndex server,
                                        double seconds) {
  latency_.record(seconds);
  median_.record(seconds);
  if (samples_[server] == 0) {
    ewma_[server] = seconds;
  } else {
    ewma_[server] = config_.ewma_alpha * seconds +
                    (1.0 - config_.ewma_alpha) * ewma_[server];
  }
  ++samples_[server];
}

pfs::ServerIndex StragglerScheduler::pick_fastest(
    const std::vector<pfs::ServerIndex>& holders,
    pfs::ServerIndex exclude) const {
  // A never-sampled holder must not score 0.0: it would win every pick, so
  // a cold replica (exactly what layout migration creates) would absorb all
  // rerouted and hedged traffic until its first reply landed. Score unknown
  // servers at the global median instead — competitive, but only chosen
  // over servers measured slower than the cluster norm.
  const double unsampled = median_.count() > 0 ? median_.median() : 0.0;
  pfs::ServerIndex best = kNoServer;
  double best_score = 0.0;
  for (const pfs::ServerIndex h : holders) {
    if (h == exclude) continue;
    const double score = samples_[h] > 0 ? ewma_[h] : unsampled;
    if (best == kNoServer || score < best_score) {
      best = h;
      best_score = score;
    }
  }
  return best;
}

void StragglerScheduler::enroll(telemetry::Registry& registry) const {
  registry.enroll_counter("straggler.reads", {}, reads_issued_);
  registry.enroll_counter("straggler.reroutes", {}, reroutes_);
  registry.enroll_counter("straggler.hedges", {}, hedges_issued_);
  registry.enroll_counter("straggler.hedges_won", {}, hedges_won_);
  registry.enroll_counter("straggler.wasted_bytes", {}, wasted_bytes_);
  registry.enroll_histogram("straggler.read_latency_s", {}, &latency_);
}

void StragglerScheduler::read_strip(net::NodeId client, net::TenantId tenant,
                                    pfs::FileId file, std::uint64_t strip,
                                    DoneFn on_done, std::uint64_t span) {
  begin_read(client, tenant, file, strip, pfs_.meta(file).strip(strip).length,
             {}, std::move(on_done), span);
}

void StragglerScheduler::read_strip_runs(net::NodeId client,
                                         net::TenantId tenant,
                                         pfs::FileId file,
                                         std::vector<pfs::StripRun> runs,
                                         DoneFn on_done, std::uint64_t span) {
  DAS_REQUIRE(!runs.empty());
  const std::uint64_t strip = runs.front().strip;
  std::uint64_t payload = 0;
  for (const pfs::StripRun& r : runs) {
    DAS_REQUIRE(r.strip == strip && "one list read targets one strip");
    payload += r.length;
  }
  begin_read(client, tenant, file, strip, payload, std::move(runs),
             std::move(on_done), span);
}

void StragglerScheduler::begin_read(net::NodeId client, net::TenantId tenant,
                                    pfs::FileId file, std::uint64_t strip,
                                    std::uint64_t length,
                                    std::vector<pfs::StripRun> runs,
                                    DoneFn on_done, std::uint64_t span) {
  // Resolve against the layout this strip is currently served under (the
  // prior layout while a migration's frontier has not yet passed the strip).
  std::vector<pfs::ServerIndex> holders = pfs_.read_holders(file, strip);
  DAS_REQUIRE(!holders.empty());

  pfs::ServerIndex target = holders[0];
  if (config_.reroute && holders.size() > 1 &&
      latency_.count() >= config_.min_samples &&
      samples_[target] >= config_.min_samples &&
      ewma_[target] > config_.reroute_multiplier * median_.median()) {
    const pfs::ServerIndex fastest = pick_fastest(holders, kNoServer);
    if (fastest != kNoServer && fastest != target) {
      target = fastest;
      ++reroutes_;
    }
  }

  Op* op = acquire_op();
  op->file = file;
  op->strip = strip;
  op->length = length;
  op->runs = std::move(runs);
  op->client = client;
  op->tenant = tenant;
  op->first_server = target;
  // Snapshot the holder set at issue time: under migration the live layout
  // can change between issue and hedge-fire, and a hedge resolved against
  // the new layout could target a server that never held this strip.
  op->holders = std::move(holders);
  op->on_done = std::move(on_done);
  op->span = span;

  ++reads_issued_;
  issue(op, target, /*is_hedge=*/false);
  if (config_.hedge && op->holders.size() > 1) arm_hedge(op);
}

void StragglerScheduler::issue(Op* op, pfs::ServerIndex target,
                               bool is_hedge) {
  if (is_hedge) {
    op->hedge_issued_at = sim_.now();
  } else {
    op->first_issued_at = sim_.now();
  }
  ++op->outstanding;
  pfs::PfsServer& server = pfs_.server(target);
  if (op->runs.empty()) {
    // Request travels as a tenant-tagged control message; the server reads
    // the strip (through any installed disk scheduler) and ships the payload
    // back.
    net_.send(net::Message{
        op->client, server.node(), 0, net::TrafficClass::kControl,
        [this, op, &server, target, is_hedge]() {
          server.serve_read(op->file, op->strip, 0, op->length, op->client,
                            net::TrafficClass::kClientServer,
                            [this, op, target, is_hedge](
                                const pfs::StripBuffer& /*payload*/) {
                              complete(op, target, is_hedge);
                            },
                            op->tenant, op->span);
        },
        op->tenant, op->span});
    return;
  }
  // List read: the request itself carries the run descriptors, so it bills
  // real header bytes on the data-plane class. The server coalesces the
  // runs into disk extents and replies with one packed payload. The op's
  // run list stays intact — a hedge re-issues a copy of the same list.
  net_.send(net::Message{
      op->client, server.node(),
      pfs::RegionList::request_bytes(pfs::RegionEncoding::kStrided,
                                     op->runs.size()),
      net::TrafficClass::kClientServer,
      [this, op, &server, target, is_hedge]() {
        server.serve_read_list(op->file, op->runs, op->client,
                               net::TrafficClass::kClientServer,
                               [this, op, target, is_hedge](
                                   const pfs::StripBuffer& /*payload*/) {
                                 complete(op, target, is_hedge);
                               },
                               op->tenant, op->span);
      },
      op->tenant, op->span});
}

void StragglerScheduler::complete(Op* op, pfs::ServerIndex from,
                                  bool is_hedge) {
  const sim::SimTime issued =
      is_hedge ? op->hedge_issued_at : op->first_issued_at;
  record_latency(from, sim::to_seconds(sim_.now() - issued));

  DAS_REQUIRE(op->outstanding > 0);
  --op->outstanding;

  if (op->done) {
    // The other copy already won; these bytes moved for nothing.
    wasted_bytes_ += op->length;
  } else {
    op->done = true;
    if (op->hedge_armed) {
      sim_.cancel(op->hedge_timer);
      op->hedge_armed = false;
    }
    if (is_hedge) ++hedges_won_;
    DoneFn done = std::move(op->on_done);
    if (done) done();
  }
  if (op->outstanding == 0) release_op(op);
}

void StragglerScheduler::arm_hedge(Op* op) {
  // Before enough history exists the p95 is meaningless, so do not hedge at
  // all — better to miss the first few stragglers than to flood the cluster
  // with duplicates while the latency estimate is still warming up.
  if (latency_.count() < config_.min_samples) return;
  // Trigger off the median, not a tail quantile: the tail is exactly the
  // straggler latency being fought, so a p95-based timer could never fire
  // before the straggler itself replied.
  const sim::SimDuration delay = std::max(
      config_.hedge_floor,
      sim::seconds(config_.hedge_multiplier * median_.median()));
  op->hedge_armed = true;
  op->hedge_timer = sim_.schedule_after(
      delay, [this, op]() { fire_hedge(op); }, "traffic.hedge");
}

void StragglerScheduler::fire_hedge(Op* op) {
  op->hedge_armed = false;
  if (op->done) return;
  // Use the holder set snapshotted at issue time, not the live layout: those
  // servers are guaranteed to still serve the strip (migration retires old
  // copies without deleting them until the file's epoch advances).
  const pfs::ServerIndex target = pick_fastest(op->holders, op->first_server);
  if (target == kNoServer) return;
  ++hedges_issued_;
  issue(op, target, /*is_hedge=*/true);
}

}  // namespace das::traffic
