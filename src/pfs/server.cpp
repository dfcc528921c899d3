#include "pfs/server.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "pfs/prefetch.hpp"
#include "simkit/assert.hpp"
#include "telemetry/plane.hpp"

namespace das::pfs {

PfsServer::PfsServer(sim::Simulator& simulator, net::Network& network,
                     net::NodeId node,
                     const storage::DiskConfig& disk_config)
    : sim_(simulator), net_(network), node_(node), disk_(disk_config) {
  disk_.set_trace_node(node);
  disk_.set_tracer(&sim_.tracer());
}

PfsServer::~PfsServer() = default;

void PfsServer::attach_prefetcher(std::unique_ptr<HaloPrefetcher> prefetcher) {
  DAS_REQUIRE(prefetcher_ == nullptr);
  DAS_REQUIRE(cache_ != nullptr &&
              "prefetched strips land in the strip cache");
  prefetcher_ = std::move(prefetcher);
}

PfsServer::ReadOp* PfsServer::acquire_read_op() {
  if (free_read_ops_.empty()) {
    read_ops_.push_back(std::make_unique<ReadOp>());
    return read_ops_.back().get();
  }
  ReadOp* op = free_read_ops_.back();
  free_read_ops_.pop_back();
  return op;
}

void PfsServer::release_read_op(ReadOp* op) {
  op->payload.reset();
  op->handler.reset();
  free_read_ops_.push_back(op);
}

PfsServer::AckOp* PfsServer::acquire_ack_op() {
  if (free_ack_ops_.empty()) {
    ack_ops_.push_back(std::make_unique<AckOp>());
    return ack_ops_.back().get();
  }
  AckOp* op = free_ack_ops_.back();
  free_ack_ops_.pop_back();
  return op;
}

void PfsServer::release_ack_op(AckOp* op) {
  op->on_ack.reset();
  free_ack_ops_.push_back(op);
}

void PfsServer::serve_read(FileId file, std::uint64_t strip,
                           std::uint64_t offset_in_strip, std::uint64_t length,
                           net::NodeId requester, net::TrafficClass cls,
                           StripDataFn on_data, net::TenantId tenant,
                           std::uint64_t span) {
  ReadRequest request{file,      strip, offset_in_strip,    length,
                      requester, cls,   tenant,             std::move(on_data),
                      span,      {}};
  if (read_scheduler_ != nullptr && tenant != net::kNoTenant &&
      read_scheduler_->intercept_read(*this, request)) {
    return;
  }
  serve_read_now(std::move(request));
}

void PfsServer::serve_read_list(FileId file, std::vector<StripRun> runs,
                                net::NodeId requester, net::TrafficClass cls,
                                StripDataFn on_data, net::TenantId tenant,
                                std::uint64_t span) {
  DAS_REQUIRE(!runs.empty());
  std::uint64_t payload = 0;
  for (const StripRun& r : runs) payload += r.length;
  // `length` carries the total payload so fair-queue costing and byte
  // accounting see the real transfer size; `strip`/`offset_in_strip` are
  // nominal (the first run) — serve_list_now regroups per strip itself.
  ReadRequest request{file,
                      runs.front().strip,
                      runs.front().offset_in_strip,
                      payload,
                      requester,
                      cls,
                      tenant,
                      std::move(on_data),
                      span,
                      std::move(runs)};
  if (read_scheduler_ != nullptr && tenant != net::kNoTenant &&
      read_scheduler_->intercept_read(*this, request)) {
    return;
  }
  serve_read_now(std::move(request));
}

void PfsServer::serve_read_now(ReadRequest request) {
  if (!request.runs.empty()) {
    serve_list_now(std::move(request));
    return;
  }
  const FileId file = request.file;
  const std::uint64_t strip = request.strip;
  // readable(), not has(): a request that resolved this server as holder
  // under the pre-migration layout may arrive after the frontier passed the
  // strip, at which point the copy is retired but its bytes must still flow.
  DAS_REQUIRE(store_.readable(file, strip));
  DAS_REQUIRE(request.offset_in_strip + request.length <=
              store_.length(file, strip));

  ++remote_reads_served_;
  remote_bytes_served_ += request.length;

  const std::uint64_t disk_off = store_.disk_offset(file, strip);
  const sim::SimTime read_done = disk_.read(
      sim_.now(), disk_off + request.offset_in_strip, request.length);

  if (request.span != 0) {
    if (telemetry::Plane* plane = sim_.context().telemetry) {
      plane->spans().add(request.span, telemetry::Hop::kDisk,
                         read_done - sim_.now());
    }
  }

  // Slice a shared view of the payload now (a later put would swap in a new
  // payload block; this handle keeps the bytes the read observed). No copy.
  ReadOp* op = acquire_read_op();
  const StripBuffer stored = store_.buffer(file, strip);
  if (!stored.empty()) {
    op->payload = stored.view(request.offset_in_strip, request.length);
  }
  op->handler = std::move(request.on_data);
  op->length = request.length;
  op->requester = request.requester;
  op->cls = request.cls;
  op->tenant = request.tenant;
  op->span = request.span;
  ship_read_op(op, read_done);
}

void PfsServer::serve_list_now(ReadRequest request) {
  const FileId file = request.file;

  ++remote_reads_served_;
  remote_bytes_served_ += request.length;
  ++list_requests_served_;
  list_runs_served_ += request.runs.size();

  // Coalesce and read per strip: runs arrive in ascending file order, so
  // same-strip runs are consecutive. Each strip's runs merge into minimal
  // disk extents; the disk serializes the extent reads, so the last
  // completion is when the whole gather is on the NIC side.
  sim::SimTime read_done = sim_.now();
  std::vector<Extent> extents;
  std::size_t i = 0;
  while (i < request.runs.size()) {
    const std::uint64_t strip = request.runs[i].strip;
    DAS_REQUIRE(store_.readable(file, strip));
    const std::uint64_t stored_len = store_.length(file, strip);
    extents.clear();
    for (; i < request.runs.size() && request.runs[i].strip == strip; ++i) {
      const StripRun& r = request.runs[i];
      DAS_REQUIRE(r.offset_in_strip + r.length <= stored_len);
      extents.push_back(Extent{r.offset_in_strip, r.length});
    }
    const std::vector<Extent> merged = coalesce_runs(std::move(extents));
    extents.clear();
    list_extents_read_ += merged.size();
    const std::uint64_t disk_off = store_.disk_offset(file, strip);
    for (const Extent& e : merged) {
      read_done = std::max(
          read_done, disk_.read(sim_.now(), disk_off + e.offset, e.length));
    }
  }

  if (request.span != 0) {
    if (telemetry::Plane* plane = sim_.context().telemetry) {
      plane->spans().add(request.span, telemetry::Hop::kDisk,
                         read_done - sim_.now());
    }
  }

  // Gather the run bytes into one pooled payload in request order (data
  // mode only). The client slices per-run views of this single buffer, so
  // the whole reply is one allocation end to end.
  ReadOp* op = acquire_read_op();
  if (request.length > 0 &&
      !store_.bytes(file, request.runs.front().strip).empty()) {
    StripBuffer gathered = StripBuffer::allocate(request.length);
    std::uint64_t at = 0;
    for (const StripRun& r : request.runs) {
      const auto stored = store_.bytes(file, r.strip);
      DAS_REQUIRE(!stored.empty());
      std::memcpy(gathered.mutable_data() + at,
                  stored.data() + r.offset_in_strip, r.length);
      at += r.length;
    }
    op->payload = std::move(gathered);
  }
  op->handler = std::move(request.on_data);
  // The reply wire size is the gathered payload plus per-run framing — the
  // enclosing strips never travel.
  op->length = request.length + RegionList::reply_framing_bytes(
                                    request.runs.size());
  op->requester = request.requester;
  op->cls = request.cls;
  op->tenant = request.tenant;
  op->span = request.span;
  ship_read_op(op, read_done);
}

void PfsServer::ship_read_op(ReadOp* op, sim::SimTime read_done) {
  sim_.schedule_at(
      read_done,
      [this, op]() {
        if (op->handler) {
          net_.send(net::Message{node_, op->requester, op->length, op->cls,
                                 [this, op]() {
                                   op->handler(op->payload);
                                   release_read_op(op);
                                 },
                                 op->tenant, op->span});
        } else {
          // No receiver-side handler: same message on the wire, but no
          // delivery event is scheduled (Network::send skips empty
          // callbacks), exactly like the pre-buffer code path.
          net_.send(net::Message{node_, op->requester, op->length, op->cls,
                                 nullptr, op->tenant, op->span});
          release_read_op(op);
        }
      },
      "pfs.read_done");
}

void PfsServer::serve_write(FileId file, const StripRef& strip,
                            StripBuffer data, net::NodeId requester,
                            net::TrafficClass cls, net::DeliveryFn on_ack) {
  const sim::SimTime write_done = write_local(file, strip, std::move(data));
  AckOp* op = acquire_ack_op();
  op->on_ack = std::move(on_ack);
  op->requester = requester;
  op->cls = cls;
  sim_.schedule_at(
      write_done,
      [this, op]() {
        net_.send(net::Message{node_, op->requester, 0, op->cls,
                               std::move(op->on_ack)});
        release_ack_op(op);
      },
      "pfs.write_done");
}

void PfsServer::enroll(telemetry::Registry& registry) const {
  const telemetry::Labels labels{telemetry::label("server", node_)};
  registry.enroll_counter("pfs.remote_reads", labels, remote_reads_served_);
  registry.enroll_counter("pfs.remote_bytes", labels, remote_bytes_served_);
  registry.enroll_counter("pfs.list_requests", labels, list_requests_served_);
  registry.enroll_counter("pfs.list_runs", labels, list_runs_served_);
  registry.enroll_counter("pfs.list_extents", labels, list_extents_read_);
  registry.enroll_gauge("disk.bytes_read", labels, [this]() {
    return static_cast<double>(disk_.bytes_read());
  });
  registry.enroll_gauge("disk.busy_s", labels, [this]() {
    return sim::to_seconds(disk_.busy_time());
  });
  if (cache_ != nullptr) cache_->enroll(registry, node_);
  if (prefetcher_ != nullptr) {
    const PrefetchStats& stats = prefetcher_->stats();
    registry.enroll_counter("prefetch.issued", labels, &stats.issued);
    registry.enroll_counter("prefetch.issued_bytes", labels,
                            &stats.issued_bytes);
    registry.enroll_counter("prefetch.dropped_stale", labels,
                            &stats.dropped_stale);
  }
}

sim::SimTime PfsServer::read_local(FileId file, std::uint64_t strip) {
  DAS_REQUIRE(store_.readable(file, strip));
  return disk_.read(sim_.now(), store_.disk_offset(file, strip),
                    store_.length(file, strip));
}

sim::SimTime PfsServer::write_local(FileId file, const StripRef& strip,
                                    StripBuffer data) {
  if (hub_ != nullptr) hub_->invalidate(cache::CacheKey{file, strip.index});
  store_.put(file, strip.index, strip.length, std::move(data));
  return disk_.write(sim_.now(), store_.disk_offset(file, strip.index),
                     strip.length);
}

}  // namespace das::pfs
