// Parallel file system facade.
//
// Owns the storage servers and the catalog of files (metadata + layout),
// loads file contents onto servers according to a layout, and implements
// layout reconfiguration ("Reconfig Parallel File System" in the paper's
// Fig. 3 workflow) with full accounting of the bytes it moves.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/strip_cache.hpp"
#include "net/network.hpp"
#include "pfs/file.hpp"
#include "pfs/layout.hpp"
#include "pfs/prefetch.hpp"
#include "pfs/server.hpp"
#include "simkit/simulator.hpp"
#include "storage/disk.hpp"

namespace das::pfs {

class Pfs {
 public:
  /// `server_nodes[i]` is the cluster node hosting server index i; every
  /// server gets the same disk.
  Pfs(sim::Simulator& simulator, net::Network& network,
      std::vector<net::NodeId> server_nodes,
      const storage::DiskConfig& disk_config);

  /// Heterogeneous variant: `disk_configs[i]` equips server index i
  /// (straggler studies). Sizes must match.
  Pfs(sim::Simulator& simulator, net::Network& network,
      std::vector<net::NodeId> server_nodes,
      std::vector<storage::DiskConfig> disk_configs);

  Pfs(const Pfs&) = delete;
  Pfs& operator=(const Pfs&) = delete;

  [[nodiscard]] std::uint32_t num_servers() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  [[nodiscard]] PfsServer& server(ServerIndex index);
  [[nodiscard]] const PfsServer& server(ServerIndex index) const;
  [[nodiscard]] net::NodeId server_node(ServerIndex index) const;

  /// Returned by server_of_node for nodes that host no server.
  static constexpr ServerIndex kInvalidServer = UINT32_MAX;

  /// Server index hosting `node`, or kInvalidServer.
  [[nodiscard]] ServerIndex server_of_node(net::NodeId node) const;

  /// Register a file and place its strips per `layout`. When `data` is
  /// non-null it must be exactly meta.size_bytes long and each holder
  /// receives a real copy of its strips; when null the placement is
  /// length-only (timing mode). Loading is instantaneous in simulated time
  /// (the experiments start from data at rest, as in the paper).
  FileId create_file(FileMeta meta, std::unique_ptr<Layout> layout,
                     const std::vector<std::byte>* data = nullptr);

  [[nodiscard]] const FileMeta& meta(FileId file) const;

  /// The file's authoritative layout. While an online migration is in
  /// progress this is already the *target* layout (placement decisions and
  /// capacity planning see where the file is going); per-strip read
  /// resolution must go through read_layout()/read_primary()/read_holders()
  /// instead, which honour the migration frontier.
  [[nodiscard]] const Layout& layout(FileId file) const;

  /// The layout strip `strip` of `file` is currently *served* under: the
  /// prior layout while an in-progress migration's frontier has not yet
  /// passed the strip, the authoritative layout otherwise.
  [[nodiscard]] const Layout& read_layout(FileId file,
                                          std::uint64_t strip) const;

  /// Primary holder of `strip` under read_layout(). Guaranteed to be able
  /// to serve the strip's bytes right now.
  [[nodiscard]] ServerIndex read_primary(FileId file,
                                         std::uint64_t strip) const;

  /// Holder set of `strip` under read_layout(), primary first.
  [[nodiscard]] std::vector<ServerIndex> read_holders(
      FileId file, std::uint64_t strip) const;

  /// True while an online migration of `file` is in progress.
  [[nodiscard]] bool migrating(FileId file) const;

  /// Strips below this index resolve under the authoritative layout; at or
  /// above it, under the prior layout. Only meaningful while migrating().
  [[nodiscard]] std::uint64_t migrate_frontier(FileId file) const;

  /// Current layout generation of `file` (see FileMeta::layout_epoch).
  [[nodiscard]] std::uint32_t layout_epoch(FileId file) const;

  // --- Online migration protocol, driven by pfs::LayoutMigrator. ---
  //
  // begin_migration() installs `target` as the authoritative layout and
  // keeps the old one as the read-resolution layout for strips the frontier
  // has not passed. The migrator then copies strips group by group (plain
  // serve_read/write_local traffic) and calls commit_migrated() as each
  // contiguous prefix lands: cached copies of the committed strips are
  // invalidated and copies held only under the prior layout are *retired* —
  // readable for reads already in flight, but no longer authoritative.
  // end_migration() (frontier == num_strips) drops the prior layout into a
  // graveyard (references captured before the migration stay valid for the
  // run's lifetime) and bumps the file's layout epoch through every cache.

  /// Requires no migration in progress. No data moves here.
  void begin_migration(FileId file, std::unique_ptr<Layout> target);

  /// Advance the frontier to `new_frontier` (monotonic): strips in
  /// [frontier, new_frontier) are now served under the target layout.
  /// Requires the target copies of those strips to be in place.
  void commit_migrated(FileId file, std::uint64_t new_frontier);

  /// Requires the frontier to have reached num_strips.
  void end_migration(FileId file);

  /// Replace the layout of `file` offline, physically moving/copying strips
  /// between servers over the network (server-server traffic + disk on both
  /// ends); reads issued while it runs race with the swap, so callers
  /// quiesce the file first (the online path above is the alternative).
  /// Requires no migration in progress. `on_complete` fires when every
  /// transfer has finished. Returns the number of bytes that had to move.
  std::uint64_t redistribute(FileId file, std::unique_ptr<Layout> new_layout,
                             std::function<void()> on_complete);

  /// Reassemble the full contents of `file` from primary strips
  /// (correctness mode; requires data-bearing strips).
  [[nodiscard]] std::vector<std::byte> gather_bytes(FileId file) const;

  /// Total bytes stored across all servers (capacity accounting, includes
  /// replicas).
  [[nodiscard]] std::uint64_t total_stored_bytes() const;

  /// Equip every server with a remote-strip cache of `config` and register
  /// the caches on one invalidation hub. No-op when the config is inactive
  /// (disabled or zero capacity), so byte flows stay bit-identical to the
  /// uncached system. Call at most once, before any traffic.
  void enable_strip_caches(const cache::CacheConfig& config);

  [[nodiscard]] bool caching_enabled() const { return !caches_.empty(); }

  /// Aggregate cache statistics over every server (zeroes when off).
  [[nodiscard]] cache::CacheStats cache_stats() const;

  /// Equip every server with a halo prefetcher of `config`, registered on
  /// the invalidation hub so in-flight fetches of a written/redistributed
  /// strip are dropped on landing. No-op when the config is inactive;
  /// requires active strip caches otherwise (prefetched strips land there).
  /// Call at most once, before any traffic.
  void enable_prefetch(const PrefetchConfig& config);

  [[nodiscard]] bool prefetch_enabled() const { return prefetch_enabled_; }

  /// Aggregate prefetch statistics over every server (zeroes when off).
  [[nodiscard]] PrefetchStats prefetch_stats() const;

 private:
  struct FileEntry {
    FileMeta meta;
    std::unique_ptr<Layout> layout;
    /// Read-resolution layout for strips at or past the migration frontier;
    /// null when no migration is in progress.
    std::unique_ptr<Layout> prior_layout;
    /// First strip still served under prior_layout.
    std::uint64_t migrate_frontier = 0;
    bool migrating = false;
    /// Layouts replaced by completed migrations and by redistribute(). Kept
    /// alive so `const Layout&` references captured before a migration
    /// never dangle, and because the servers' stores derive create-time
    /// placement from the file's creation layout.
    std::vector<std::unique_ptr<Layout>> retired_layouts;
  };

  sim::Simulator& sim_;
  net::Network& net_;
  std::vector<net::NodeId> server_nodes_;
  std::vector<std::unique_ptr<PfsServer>> servers_;
  std::vector<FileEntry> files_;
  std::vector<std::unique_ptr<cache::StripCache>> caches_;
  cache::InvalidationHub cache_hub_;
  bool prefetch_enabled_ = false;
};

}  // namespace das::pfs
