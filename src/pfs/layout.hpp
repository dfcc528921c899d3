// Strip-to-server placement policies.
//
// Three layouts model the paper's spectrum:
//  * RoundRobinLayout  — PVFS2/Lustre default (paper Fig. 5): strip s on
//    server s mod D.
//  * GroupedLayout     — r successive strips per server (paper Fig. 7,
//    Eq. 14 denominator r * strip_size): strip s on server (s / r) mod D.
//  * DasReplicatedLayout — GroupedLayout plus halo replication (paper
//    Fig. 9): the first `halo` strips of each group are also stored on the
//    preceding server and the last `halo` strips on the following server, so
//    stencil dependences that reach at most `halo` strips never cross
//    servers. Capacity overhead is 2*halo/r (the paper's "2/r" for halo=1).
//
// Besides the holder sets, every layout answers three placement questions
// in closed form, without allocating: does a server hold a strip, how many
// strips of a file does it hold, and what is a strip's rank among them.
// ServerStore derives each strip's disk position from that rank, so a
// server keeps no per-strip state for placement the layout already implies
// (the distribution-function view of PVFS's noncontiguous I/O work).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pfs/file.hpp"

namespace das::pfs {

/// Index of a storage server within the file system (0 .. D-1). The cluster
/// maps these to physical node ids.
using ServerIndex = std::uint32_t;

class Layout {
 public:
  virtual ~Layout() = default;

  /// D: number of storage servers data is spread over.
  [[nodiscard]] virtual std::uint32_t num_servers() const = 0;

  /// The server owning the authoritative copy of `strip`.
  [[nodiscard]] virtual ServerIndex primary(std::uint64_t strip) const = 0;

  /// Servers holding extra copies of `strip`. `num_strips` bounds the file so
  /// edge groups do not replicate past the ends. Default: none.
  [[nodiscard]] virtual std::vector<ServerIndex> replicas(
      std::uint64_t strip, std::uint64_t num_strips) const;

  /// All servers holding `strip` (primary first).
  [[nodiscard]] std::vector<ServerIndex> holders(
      std::uint64_t strip, std::uint64_t num_strips) const;

  /// True if `server` holds `strip` (as primary or replica).
  [[nodiscard]] virtual bool holds(ServerIndex server, std::uint64_t strip,
                                   std::uint64_t num_strips) const = 0;

  /// Number of strips `server` holds: local_strips(server, n).size().
  /// Requires num_strips > 0.
  [[nodiscard]] virtual std::uint64_t local_count(
      ServerIndex server, std::uint64_t num_strips) const = 0;

  /// Strips below `strip` that `server` holds — for a held strip, its index
  /// in local_strips(server, num_strips). Requires strip < num_strips.
  [[nodiscard]] virtual std::uint64_t local_ordinal(
      ServerIndex server, std::uint64_t strip,
      std::uint64_t num_strips) const = 0;

  /// Strips whose primary copy is on `server`, ascending.
  [[nodiscard]] std::vector<std::uint64_t> primary_strips(
      ServerIndex server, std::uint64_t num_strips) const;

  /// All strips present on `server` (primary + replica), ascending.
  [[nodiscard]] std::vector<std::uint64_t> local_strips(
      ServerIndex server, std::uint64_t num_strips) const;

  /// Bytes stored on `server` for a file with metadata `meta`.
  [[nodiscard]] std::uint64_t stored_bytes(ServerIndex server,
                                           const FileMeta& meta) const;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<Layout> clone() const = 0;
};

/// PVFS2/Lustre default placement: strip s -> server s mod D.
class RoundRobinLayout final : public Layout {
 public:
  explicit RoundRobinLayout(std::uint32_t num_servers);

  [[nodiscard]] std::uint32_t num_servers() const override { return d_; }
  [[nodiscard]] ServerIndex primary(std::uint64_t strip) const override;
  [[nodiscard]] bool holds(ServerIndex server, std::uint64_t strip,
                           std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_count(
      ServerIndex server, std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_ordinal(
      ServerIndex server, std::uint64_t strip,
      std::uint64_t num_strips) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layout> clone() const override;

 private:
  std::uint32_t d_;
};

/// r successive strips per server: strip s -> server (s / r) mod D.
class GroupedLayout : public Layout {
 public:
  GroupedLayout(std::uint32_t num_servers, std::uint64_t group_size);

  [[nodiscard]] std::uint32_t num_servers() const override { return d_; }
  [[nodiscard]] ServerIndex primary(std::uint64_t strip) const override;
  [[nodiscard]] bool holds(ServerIndex server, std::uint64_t strip,
                           std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_count(
      ServerIndex server, std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_ordinal(
      ServerIndex server, std::uint64_t strip,
      std::uint64_t num_strips) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layout> clone() const override;

  [[nodiscard]] std::uint64_t group_size() const { return r_; }

 protected:
  std::uint32_t d_;
  std::uint64_t r_;
};

/// Round-robin placement with `copies` full replicas of every strip on the
/// following servers: strip s lives on (s + k) mod D for k in [0, copies).
/// This is the layout the multi-tenant traffic engine gives its shared
/// datasets so a straggler-aware client can re-route or hedge a slow strip
/// read to a healthy holder (Tavakoli et al., client-side straggler-aware
/// scheduling). Capacity overhead is (copies - 1)x.
class ReplicatedRoundRobinLayout final : public Layout {
 public:
  /// `copies` = total holders per strip (primary included); clamped to D.
  ReplicatedRoundRobinLayout(std::uint32_t num_servers, std::uint32_t copies);

  [[nodiscard]] std::uint32_t num_servers() const override { return d_; }
  [[nodiscard]] ServerIndex primary(std::uint64_t strip) const override;
  [[nodiscard]] std::vector<ServerIndex> replicas(
      std::uint64_t strip, std::uint64_t num_strips) const override;
  [[nodiscard]] bool holds(ServerIndex server, std::uint64_t strip,
                           std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_count(
      ServerIndex server, std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_ordinal(
      ServerIndex server, std::uint64_t strip,
      std::uint64_t num_strips) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layout> clone() const override;

  [[nodiscard]] std::uint32_t copies() const { return copies_; }

 private:
  std::uint32_t d_;
  std::uint32_t copies_;
};

/// GroupedLayout + halo replication onto neighbouring servers (DAS layout).
class DasReplicatedLayout final : public GroupedLayout {
 public:
  /// `halo` = strips replicated at each group edge; must satisfy
  /// 2 * halo <= group_size so the copies fit within the neighbour groups.
  DasReplicatedLayout(std::uint32_t num_servers, std::uint64_t group_size,
                      std::uint64_t halo = 1);

  [[nodiscard]] std::vector<ServerIndex> replicas(
      std::uint64_t strip, std::uint64_t num_strips) const override;
  [[nodiscard]] bool holds(ServerIndex server, std::uint64_t strip,
                           std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_count(
      ServerIndex server, std::uint64_t num_strips) const override;
  [[nodiscard]] std::uint64_t local_ordinal(
      ServerIndex server, std::uint64_t strip,
      std::uint64_t num_strips) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Layout> clone() const override;

  [[nodiscard]] std::uint64_t halo() const { return halo_; }

  /// Capacity overhead relative to un-replicated placement (paper: 2/r).
  [[nodiscard]] double capacity_overhead() const {
    return 2.0 * static_cast<double>(halo_) / static_cast<double>(r_);
  }

 private:
  /// Strips of group `group` at positions below `positions` that `server`
  /// holds (own group, or a neighbour's halo edges).
  [[nodiscard]] std::uint64_t held_in_group(ServerIndex server,
                                            std::uint64_t group,
                                            std::uint64_t positions,
                                            std::uint64_t last_group) const;

  /// Strips of groups [0, groups) that `server` holds; requires every one
  /// of them to precede the file's last group.
  [[nodiscard]] std::uint64_t held_before_group(ServerIndex server,
                                                std::uint64_t groups) const;

  std::uint64_t halo_;
};

}  // namespace das::pfs
