#include "pfs/pfs.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "simkit/assert.hpp"

namespace das::pfs {

Pfs::Pfs(sim::Simulator& simulator, net::Network& network,
         std::vector<net::NodeId> server_nodes,
         const storage::DiskConfig& disk_config)
    : Pfs(simulator, network, std::move(server_nodes),
          std::vector<storage::DiskConfig>(1, disk_config)) {}

Pfs::Pfs(sim::Simulator& simulator, net::Network& network,
         std::vector<net::NodeId> server_nodes,
         std::vector<storage::DiskConfig> disk_configs)
    : sim_(simulator), net_(network), server_nodes_(std::move(server_nodes)) {
  DAS_REQUIRE(!server_nodes_.empty());
  DAS_REQUIRE(disk_configs.size() == 1 ||
              disk_configs.size() == server_nodes_.size());
  servers_.reserve(server_nodes_.size());
  for (std::size_t i = 0; i < server_nodes_.size(); ++i) {
    const net::NodeId node = server_nodes_[i];
    DAS_REQUIRE(node < network.num_nodes());
    servers_.push_back(std::make_unique<PfsServer>(
        simulator, network, node,
        disk_configs.size() == 1 ? disk_configs[0] : disk_configs[i]));
  }
}

PfsServer& Pfs::server(ServerIndex index) {
  DAS_REQUIRE(index < servers_.size());
  return *servers_[index];
}

const PfsServer& Pfs::server(ServerIndex index) const {
  DAS_REQUIRE(index < servers_.size());
  return *servers_[index];
}

net::NodeId Pfs::server_node(ServerIndex index) const {
  DAS_REQUIRE(index < server_nodes_.size());
  return server_nodes_[index];
}

ServerIndex Pfs::server_of_node(net::NodeId node) const {
  const auto it =
      std::find(server_nodes_.begin(), server_nodes_.end(), node);
  if (it == server_nodes_.end()) return kInvalidServer;
  return static_cast<ServerIndex>(it - server_nodes_.begin());
}

FileId Pfs::create_file(FileMeta meta, std::unique_ptr<Layout> layout,
                        const std::vector<std::byte>* data) {
  DAS_REQUIRE(layout != nullptr);
  DAS_REQUIRE(layout->num_servers() == num_servers());
  DAS_REQUIRE(meta.size_bytes > 0);
  DAS_REQUIRE(meta.strip_size > 0);
  DAS_REQUIRE(data == nullptr || data->size() == meta.size_bytes);

  const auto file = static_cast<FileId>(files_.size());
  // One payload block for the whole file; every holder's strip is a shared
  // view into it (replicas share bytes with the primary — loading a
  // data-bearing file costs one copy total, not one per placed strip).
  // Each store derives its holdings and their disk offsets from the layout,
  // so placing a file costs O(1) per server, not O(strips).
  StripBuffer contents;
  if (data != nullptr) contents = StripBuffer::copy_of(*data);
  for (ServerIndex i = 0; i < num_servers(); ++i) {
    servers_[i]->store().place_file(file, *layout, i, meta, contents);
  }
  FileEntry entry;
  entry.meta = std::move(meta);
  entry.layout = std::move(layout);
  files_.push_back(std::move(entry));
  return file;
}

const FileMeta& Pfs::meta(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  return files_[file].meta;
}

const Layout& Pfs::layout(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  return *files_[file].layout;
}

const Layout& Pfs::read_layout(FileId file, std::uint64_t strip) const {
  DAS_REQUIRE(file < files_.size());
  const FileEntry& entry = files_[file];
  if (entry.migrating && strip >= entry.migrate_frontier) {
    return *entry.prior_layout;
  }
  return *entry.layout;
}

ServerIndex Pfs::read_primary(FileId file, std::uint64_t strip) const {
  return read_layout(file, strip).primary(strip);
}

std::vector<ServerIndex> Pfs::read_holders(FileId file,
                                           std::uint64_t strip) const {
  return read_layout(file, strip)
      .holders(strip, files_[file].meta.num_strips());
}

bool Pfs::migrating(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  return files_[file].migrating;
}

std::uint64_t Pfs::migrate_frontier(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  return files_[file].migrate_frontier;
}

std::uint32_t Pfs::layout_epoch(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  return files_[file].meta.layout_epoch;
}

void Pfs::begin_migration(FileId file, std::unique_ptr<Layout> target) {
  DAS_REQUIRE(file < files_.size());
  DAS_REQUIRE(target != nullptr);
  DAS_REQUIRE(target->num_servers() == num_servers());
  FileEntry& entry = files_[file];
  DAS_REQUIRE(!entry.migrating);
  entry.prior_layout = std::move(entry.layout);
  entry.layout = std::move(target);
  entry.migrate_frontier = 0;
  entry.migrating = true;
}

void Pfs::commit_migrated(FileId file, std::uint64_t new_frontier) {
  DAS_REQUIRE(file < files_.size());
  FileEntry& entry = files_[file];
  DAS_REQUIRE(entry.migrating);
  DAS_REQUIRE(new_frontier >= entry.migrate_frontier);
  const std::uint64_t n = entry.meta.num_strips();
  DAS_REQUIRE(new_frontier <= n);

  for (std::uint64_t s = entry.migrate_frontier; s < new_frontier; ++s) {
    // From this point reads of strip s resolve under the target layout;
    // any cached copy is invalidated so no cache serves across the flip.
    cache_hub_.invalidate(cache::CacheKey{file, s});
    const auto old_holders = entry.prior_layout->holders(s, n);
    const auto new_holders = entry.layout->holders(s, n);
    for (const ServerIndex holder : old_holders) {
      if (std::find(new_holders.begin(), new_holders.end(), holder) !=
          new_holders.end()) {
        continue;  // still a holder under the target layout
      }
      // Demote, don't erase: reads already in flight toward this holder
      // (issued under the prior layout) must still find the bytes.
      ServerStore& store = servers_[holder]->store();
      if (store.has(file, s)) store.retire(file, s);
    }
    for (const ServerIndex holder : new_holders) {
      DAS_REQUIRE(servers_[holder]->store().has(file, s) &&
                  "commit_migrated before the target copy landed");
    }
  }
  entry.migrate_frontier = new_frontier;
}

void Pfs::end_migration(FileId file) {
  DAS_REQUIRE(file < files_.size());
  FileEntry& entry = files_[file];
  DAS_REQUIRE(entry.migrating);
  DAS_REQUIRE(entry.migrate_frontier == entry.meta.num_strips());
  // Into the graveyard, not destroyed: holder snapshots and layout
  // references captured before the migration stay valid.
  entry.retired_layouts.push_back(std::move(entry.prior_layout));
  entry.migrating = false;
  entry.migrate_frontier = 0;
  ++entry.meta.layout_epoch;
  cache_hub_.advance_file_epoch(file, entry.meta.layout_epoch);
}

std::uint64_t Pfs::redistribute(FileId file,
                                std::unique_ptr<Layout> new_layout,
                                std::function<void()> on_complete) {
  DAS_REQUIRE(file < files_.size());
  DAS_REQUIRE(new_layout != nullptr);
  DAS_REQUIRE(new_layout->num_servers() == num_servers());

  FileEntry& entry = files_[file];
  DAS_REQUIRE(!entry.migrating &&
              "offline redistribute during an online migration");
  const std::uint64_t n = entry.meta.num_strips();
  std::uint64_t bytes_moved = 0;

  // The file's placement is about to change wholesale: any cached copy of
  // its strips may soon disagree with the authoritative holders.
  cache_hub_.invalidate_file(file);

  // Completion bookkeeping shared by all in-flight transfers.
  auto outstanding = std::make_shared<std::uint64_t>(0);
  auto finished_issuing = std::make_shared<bool>(false);
  auto done = std::make_shared<std::function<void()>>(std::move(on_complete));
  auto transfer_finished = [outstanding, finished_issuing, done]() {
    DAS_REQUIRE(*outstanding > 0);
    --*outstanding;
    if (*outstanding == 0 && *finished_issuing && *done) (*done)();
  };

  for (std::uint64_t s = 0; s < n; ++s) {
    const StripRef ref = entry.meta.strip(s);
    const auto old_holders = entry.layout->holders(s, n);
    const auto new_holders = new_layout->holders(s, n);
    const ServerIndex source = old_holders.front();  // primary copy

    for (const ServerIndex target : new_holders) {
      if (std::find(old_holders.begin(), old_holders.end(), target) !=
          old_holders.end()) {
        continue;  // already present
      }
      bytes_moved += ref.length;
      ++*outstanding;

      // Take a shared handle on the payload now: a later erase drops only
      // the store's reference, not the block this transfer carries.
      StripBuffer payload = servers_[source]->store().buffer(file, s);
      const net::NodeId src_node = server_nodes_[source];
      const net::NodeId dst_node = server_nodes_[target];
      PfsServer& src_server = *servers_[source];
      PfsServer& dst_server = *servers_[target];

      const sim::SimTime read_done = src_server.read_local(file, s);
      sim_.schedule_at(
          read_done,
          [this, &dst_server, file, ref, src_node, dst_node,
           payload = std::move(payload), transfer_finished]() mutable {
            net_.send(net::Message{
                src_node, dst_node, ref.length,
                net::TrafficClass::kServerServer,
                [&dst_server, file, ref, payload = std::move(payload),
                 transfer_finished]() mutable {
                  dst_server.write_local(file, ref, std::move(payload));
                  transfer_finished();
                }});
          },
          "pfs.redistribute");
    }

    // Drop copies no longer called for by the new layout (no time cost:
    // deletion is metadata-only).
    for (const ServerIndex holder : old_holders) {
      if (std::find(new_holders.begin(), new_holders.end(), holder) ==
          new_holders.end()) {
        servers_[holder]->store().erase(file, s);
      }
    }
  }

  *finished_issuing = true;
  if (*outstanding == 0 && *done) {
    // Nothing moved; complete after a metadata round-trip.
    sim_.schedule_after(net_.config().wire_latency,
                        [done]() { (*done)(); }, "pfs.redistribute_noop");
  }
  // Into the graveyard, not destroyed: the stores derive the placement of
  // create-time copies from the file's creation layout.
  entry.retired_layouts.push_back(std::move(entry.layout));
  entry.layout = std::move(new_layout);
  return bytes_moved;
}

std::vector<std::byte> Pfs::gather_bytes(FileId file) const {
  DAS_REQUIRE(file < files_.size());
  const FileEntry& entry = files_[file];
  std::vector<std::byte> out(entry.meta.size_bytes);
  const std::uint64_t n = entry.meta.num_strips();
  for (std::uint64_t s = 0; s < n; ++s) {
    const StripRef ref = entry.meta.strip(s);
    // Per-strip resolution: during a migration the primary of a strip the
    // frontier has not passed is still the prior layout's.
    const ServerIndex holder = read_layout(file, s).primary(s);
    const auto bytes = servers_[holder]->store().bytes(file, s);
    DAS_REQUIRE(bytes.size() == ref.length);
    std::copy(bytes.begin(), bytes.end(),
              out.begin() + static_cast<std::ptrdiff_t>(ref.offset));
  }
  return out;
}

std::uint64_t Pfs::total_stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->store().stored_bytes();
  return total;
}

void Pfs::enable_strip_caches(const cache::CacheConfig& config) {
  DAS_REQUIRE(caches_.empty());
  if (!config.active()) return;
  caches_.reserve(servers_.size());
  for (const auto& server : servers_) {
    caches_.push_back(std::make_unique<cache::StripCache>(config));
    caches_.back()->set_trace_node(server->node());
    caches_.back()->set_tracer(&sim_.tracer());
    cache_hub_.attach(caches_.back().get());
    server->attach_cache(caches_.back().get(), &cache_hub_);
  }
}

cache::CacheStats Pfs::cache_stats() const {
  cache::CacheStats total;
  for (const auto& c : caches_) total += c->stats();
  return total;
}

void Pfs::enable_prefetch(const PrefetchConfig& config) {
  DAS_REQUIRE(!prefetch_enabled_);
  if (!config.active()) return;
  DAS_REQUIRE(caching_enabled() &&
              "halo prefetch requires active strip caches");
  prefetch_enabled_ = true;
  for (const auto& server : servers_) {
    server->attach_prefetcher(std::make_unique<HaloPrefetcher>(
        sim_, net_, *server, config,
        [this](std::uint32_t index) -> PfsServer& {
          return this->server(index);
        }));
    HaloPrefetcher* prefetcher = server->prefetcher();
    cache_hub_.attach_listener(cache::InvalidationHub::Listener{
        [prefetcher](const cache::CacheKey& key) {
          prefetcher->invalidate(key);
        },
        [prefetcher](std::uint64_t file) {
          prefetcher->invalidate_file(file);
        }});
  }
}

PrefetchStats Pfs::prefetch_stats() const {
  PrefetchStats total;
  for (const auto& server : servers_) {
    if (const HaloPrefetcher* prefetcher = server->prefetcher()) {
      total += prefetcher->stats();
    }
  }
  return total;
}

}  // namespace das::pfs
