#include "pfs/layout.hpp"

#include <algorithm>

#include "simkit/assert.hpp"

namespace das::pfs {

namespace {

/// Values x in [0, end) with x % modulus == residue (residue < modulus).
std::uint64_t count_congruent(std::uint64_t end, std::uint64_t residue,
                              std::uint64_t modulus) {
  return end > residue ? (end - 1 - residue) / modulus + 1 : 0;
}

}  // namespace

std::vector<ServerIndex> Layout::replicas(std::uint64_t /*strip*/,
                                          std::uint64_t /*num_strips*/) const {
  return {};
}

std::vector<ServerIndex> Layout::holders(std::uint64_t strip,
                                         std::uint64_t num_strips) const {
  std::vector<ServerIndex> out;
  out.push_back(primary(strip));
  for (const ServerIndex s : replicas(strip, num_strips)) {
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

std::vector<std::uint64_t> Layout::primary_strips(
    ServerIndex server, std::uint64_t num_strips) const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 0; s < num_strips; ++s) {
    if (primary(s) == server) out.push_back(s);
  }
  return out;
}

std::vector<std::uint64_t> Layout::local_strips(
    ServerIndex server, std::uint64_t num_strips) const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = 0; s < num_strips; ++s) {
    if (holds(server, s, num_strips)) out.push_back(s);
  }
  return out;
}

std::uint64_t Layout::stored_bytes(ServerIndex server,
                                   const FileMeta& meta) const {
  // Every strip is full-size except possibly the last one.
  const std::uint64_t n = meta.num_strips();
  DAS_REQUIRE(n > 0);
  std::uint64_t total = local_count(server, n) * meta.strip_size;
  if (holds(server, n - 1, n)) {
    total -= meta.strip_size - meta.strip(n - 1).length;
  }
  return total;
}

RoundRobinLayout::RoundRobinLayout(std::uint32_t num_servers)
    : d_(num_servers) {
  DAS_REQUIRE(num_servers > 0);
}

ServerIndex RoundRobinLayout::primary(std::uint64_t strip) const {
  return static_cast<ServerIndex>(strip % d_);
}

bool RoundRobinLayout::holds(ServerIndex server, std::uint64_t strip,
                             std::uint64_t /*num_strips*/) const {
  return strip % d_ == server;
}

std::uint64_t RoundRobinLayout::local_count(ServerIndex server,
                                            std::uint64_t num_strips) const {
  return count_congruent(num_strips, server, d_);
}

std::uint64_t RoundRobinLayout::local_ordinal(
    ServerIndex server, std::uint64_t strip,
    std::uint64_t /*num_strips*/) const {
  return count_congruent(strip, server, d_);
}

std::string RoundRobinLayout::name() const {
  return "round-robin(D=" + std::to_string(d_) + ")";
}

std::unique_ptr<Layout> RoundRobinLayout::clone() const {
  return std::make_unique<RoundRobinLayout>(*this);
}

ReplicatedRoundRobinLayout::ReplicatedRoundRobinLayout(
    std::uint32_t num_servers, std::uint32_t copies)
    : d_(num_servers), copies_(std::max(1u, std::min(copies, num_servers))) {
  DAS_REQUIRE(num_servers > 0);
}

ServerIndex ReplicatedRoundRobinLayout::primary(std::uint64_t strip) const {
  return static_cast<ServerIndex>(strip % d_);
}

std::vector<ServerIndex> ReplicatedRoundRobinLayout::replicas(
    std::uint64_t strip, std::uint64_t /*num_strips*/) const {
  std::vector<ServerIndex> out;
  out.reserve(copies_ - 1);
  for (std::uint32_t k = 1; k < copies_; ++k) {
    out.push_back(static_cast<ServerIndex>((strip + k) % d_));
  }
  return out;
}

bool ReplicatedRoundRobinLayout::holds(ServerIndex server, std::uint64_t strip,
                                       std::uint64_t /*num_strips*/) const {
  return (server + d_ - strip % d_) % d_ < copies_;
}

std::uint64_t ReplicatedRoundRobinLayout::local_count(
    ServerIndex server, std::uint64_t num_strips) const {
  // `server` holds the strips whose residue mod D lies in the cyclic
  // interval [server - copies + 1, server]: `copies` per full round of D
  // strips, plus the interval's residues below the partial round's length.
  const std::uint64_t tail = num_strips % d_;
  const std::uint64_t lo = (server + d_ + 1 - copies_) % d_;
  const std::uint64_t hi = lo + copies_;  // exclusive; may pass D (wraps)
  std::uint64_t in_tail = tail > lo ? std::min(tail, hi) - lo : 0;
  if (hi > d_) in_tail += std::min(tail, hi - d_);
  return num_strips / d_ * copies_ + in_tail;
}

std::uint64_t ReplicatedRoundRobinLayout::local_ordinal(
    ServerIndex server, std::uint64_t strip,
    std::uint64_t /*num_strips*/) const {
  return local_count(server, strip);
}

std::string ReplicatedRoundRobinLayout::name() const {
  return "replicated-rr(D=" + std::to_string(d_) +
         ",copies=" + std::to_string(copies_) + ")";
}

std::unique_ptr<Layout> ReplicatedRoundRobinLayout::clone() const {
  return std::make_unique<ReplicatedRoundRobinLayout>(*this);
}

GroupedLayout::GroupedLayout(std::uint32_t num_servers,
                             std::uint64_t group_size)
    : d_(num_servers), r_(group_size) {
  DAS_REQUIRE(num_servers > 0);
  DAS_REQUIRE(group_size > 0);
}

ServerIndex GroupedLayout::primary(std::uint64_t strip) const {
  return static_cast<ServerIndex>((strip / r_) % d_);
}

bool GroupedLayout::holds(ServerIndex server, std::uint64_t strip,
                          std::uint64_t /*num_strips*/) const {
  return primary(strip) == server;
}

std::uint64_t GroupedLayout::local_count(ServerIndex server,
                                         std::uint64_t num_strips) const {
  // Whole groups before the last one, then the (possibly short) last group.
  const std::uint64_t last_group = (num_strips - 1) / r_;
  std::uint64_t count = count_congruent(last_group, server, d_) * r_;
  if (last_group % d_ == server) count += num_strips - last_group * r_;
  return count;
}

std::uint64_t GroupedLayout::local_ordinal(ServerIndex server,
                                           std::uint64_t strip,
                                           std::uint64_t /*num_strips*/) const {
  const std::uint64_t group = strip / r_;
  std::uint64_t ordinal = count_congruent(group, server, d_) * r_;
  if (group % d_ == server) ordinal += strip % r_;
  return ordinal;
}

std::string GroupedLayout::name() const {
  return "grouped(D=" + std::to_string(d_) + ",r=" + std::to_string(r_) + ")";
}

std::unique_ptr<Layout> GroupedLayout::clone() const {
  return std::make_unique<GroupedLayout>(*this);
}

DasReplicatedLayout::DasReplicatedLayout(std::uint32_t num_servers,
                                         std::uint64_t group_size,
                                         std::uint64_t halo)
    : GroupedLayout(num_servers, group_size), halo_(halo) {
  DAS_REQUIRE(halo >= 1);
  DAS_REQUIRE(2 * halo <= group_size);
}

std::vector<ServerIndex> DasReplicatedLayout::replicas(
    std::uint64_t strip, std::uint64_t num_strips) const {
  std::vector<ServerIndex> out;
  if (d_ == 1) return out;  // one server holds everything; copies are moot

  const std::uint64_t group = strip / r_;
  const std::uint64_t pos = strip % r_;
  const std::uint64_t last_group = (num_strips - 1) / r_;
  const ServerIndex home = primary(strip);

  // First strips of a group also live on the server that owns the previous
  // group (it needs them as the "next" halo of its own data).
  if (pos < halo_ && group > 0) {
    out.push_back(static_cast<ServerIndex>((home + d_ - 1) % d_));
  }
  // Last strips of a group also live on the next group's server.
  if (pos + halo_ >= r_ && group < last_group) {
    const auto next_server = static_cast<ServerIndex>((home + 1) % d_);
    if (std::find(out.begin(), out.end(), next_server) == out.end()) {
      out.push_back(next_server);
    }
  }
  return out;
}

bool DasReplicatedLayout::holds(ServerIndex server, std::uint64_t strip,
                                std::uint64_t num_strips) const {
  // replicas() without the vector.
  const std::uint64_t group = strip / r_;
  const std::uint64_t pos = strip % r_;
  const std::uint64_t home = group % d_;
  if (home == server) return true;
  if (d_ == 1) return false;
  if (pos < halo_ && group > 0 && (home + d_ - 1) % d_ == server) return true;
  return pos + halo_ >= r_ && group < (num_strips - 1) / r_ &&
         (home + 1) % d_ == server;
}

std::uint64_t DasReplicatedLayout::held_in_group(
    ServerIndex server, std::uint64_t group, std::uint64_t positions,
    std::uint64_t last_group) const {
  const std::uint64_t home = group % d_;
  if (home == server) return positions;
  if (d_ == 1) return 0;
  std::uint64_t held = 0;
  // The first `halo` strips of a group are copied to the previous server;
  // group 0 has no previous group to serve.
  if (group > 0 && (home + d_ - 1) % d_ == server) {
    held += std::min(positions, halo_);
  }
  // The last `halo` strips are copied to the next server; the last group
  // has no next group to serve. (With D == 2 both apply to one neighbour.)
  if (group < last_group && (home + 1) % d_ == server &&
      positions > r_ - halo_) {
    held += positions - (r_ - halo_);
  }
  return held;
}

std::uint64_t DasReplicatedLayout::held_before_group(
    ServerIndex server, std::uint64_t groups) const {
  std::uint64_t held = count_congruent(groups, server, d_) * r_;
  if (d_ == 1 || groups == 0) return held;
  // Front halos from the next server's groups (never group 0), back halos
  // from the previous server's groups; all of these groups are full.
  const std::uint64_t next = (server + 1) % d_;
  const std::uint64_t prev = (server + d_ - 1) % d_;
  held += (count_congruent(groups, next, d_) - (next == 0 ? 1 : 0)) * halo_;
  held += count_congruent(groups, prev, d_) * halo_;
  return held;
}

std::uint64_t DasReplicatedLayout::local_count(ServerIndex server,
                                               std::uint64_t num_strips) const {
  const std::uint64_t last_group = (num_strips - 1) / r_;
  return held_before_group(server, last_group) +
         held_in_group(server, last_group, num_strips - last_group * r_,
                       last_group);
}

std::uint64_t DasReplicatedLayout::local_ordinal(
    ServerIndex server, std::uint64_t strip, std::uint64_t num_strips) const {
  const std::uint64_t group = strip / r_;
  return held_before_group(server, group) +
         held_in_group(server, group, strip % r_, (num_strips - 1) / r_);
}

std::string DasReplicatedLayout::name() const {
  return "das-replicated(D=" + std::to_string(d_) +
         ",r=" + std::to_string(r_) + ",halo=" + std::to_string(halo_) + ")";
}

std::unique_ptr<Layout> DasReplicatedLayout::clone() const {
  return std::make_unique<DasReplicatedLayout>(*this);
}

}  // namespace das::pfs
