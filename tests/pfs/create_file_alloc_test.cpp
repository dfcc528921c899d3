// Allocation bound for timing-only files: placing a file costs O(1) heap per
// server, however many strips it has. Built as its own test binary because
// it replaces the global operator new/delete to track the bytes live on the
// heap (each block carries its size in a small header).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "pfs/pfs.hpp"
#include "simkit/simulator.hpp"

namespace {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::int64_t g_live_bytes = 0;
std::int64_t g_peak_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes += static_cast<std::int64_t>(size);
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return static_cast<char*>(raw) + kHeader;
}

// GCC 12 takes `p` to come from operator new and so reports freeing the block
// around it as a mismatched pair; the operator new above mallocs that block.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  const std::size_t size = *reinterpret_cast<std::size_t*>(raw);
  g_live_bytes -= static_cast<std::int64_t>(size);
  std::free(raw);
}
#pragma GCC diagnostic pop

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}

namespace das::pfs {
namespace {

constexpr std::int64_t kBoundBytes = 64 * 1024;

TEST(CreateFileAllocationTest, TimingOnlyFileCostsConstantHeapPerServer) {
  constexpr std::uint32_t kServers = 12;
  constexpr std::uint64_t kStrips = 100'000;
  sim::Simulator simulator;
  net::NetworkConfig config;
  config.num_nodes = kServers;
  net::Network network(simulator, config);
  std::vector<net::NodeId> nodes;
  for (std::uint32_t i = 0; i < kServers; ++i) nodes.push_back(i);
  Pfs pfs(simulator, network, nodes, storage::DiskConfig{});

  std::vector<std::unique_ptr<Layout>> layouts;
  layouts.push_back(std::make_unique<RoundRobinLayout>(kServers));
  layouts.push_back(std::make_unique<GroupedLayout>(kServers, 64));
  layouts.push_back(std::make_unique<ReplicatedRoundRobinLayout>(kServers, 3));
  layouts.push_back(std::make_unique<DasReplicatedLayout>(kServers, 64, 1));
  for (auto& layout : layouts) {
    SCOPED_TRACE(layout->name());
    FileMeta meta;
    meta.name = "big";
    meta.strip_size = 64 * 1024;
    meta.size_bytes = kStrips * meta.strip_size - 1;  // short last strip

    const std::int64_t before = g_live_bytes;
    g_peak_bytes = before;
    const FileId file = pfs.create_file(meta, std::move(layout));
    const std::int64_t grown = g_live_bytes - before;
    const std::int64_t peak = g_peak_bytes - before;
    EXPECT_LE(grown, kBoundBytes);
    EXPECT_LE(peak, kBoundBytes);

    // The file is fully placed all the same.
    const Layout& placed = pfs.layout(file);
    std::uint64_t stored = 0;
    for (ServerIndex s = 0; s < kServers; ++s) {
      stored += placed.stored_bytes(s, meta);
      EXPECT_EQ(pfs.server(s).store().has(file, kStrips - 1),
                placed.holds(s, kStrips - 1, kStrips));
    }
    EXPECT_GE(stored, meta.size_bytes);
  }
}

}  // namespace
}  // namespace das::pfs
