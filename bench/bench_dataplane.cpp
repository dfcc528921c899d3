// Microbench for the zero-copy data plane.
//
// Replays the same deterministic halo-fetch churn — store lookup, payload
// hand-off to a delivery callback, cache admission with eviction, consumer
// copy into a compute slab — against the real data plane (flat-table
// ServerStore + shared StripBuffer payloads + InplaceFn callbacks +
// StripCache with pooled eviction nodes) and against a faithful replica of
// the pre-overhaul plane (map-indexed store, a fresh std::vector copy at
// every hop, std::function delivery callbacks whose captures exceed the
// small-buffer size).
//
// Besides wall-clock ops/sec it reports, per fetch, the heap allocation
// count (global counting operator new) and the payload bytes copied. The
// steady-state fetch loop of the new plane must perform ZERO heap
// allocations — the binary exits nonzero otherwise, and CI runs it as the
// perf-smoke regression gate. It also requires >= 2x ops/sec over the
// legacy replica.
//
// Deliberately not a google-benchmark binary: it emits one JSON document
// (BENCH_dataplane.json by default) that CI uploads as an artifact.
//
// Usage: bench_dataplane [--fetches=N] [--out=FILE]
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <list>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "cache/strip_cache.hpp"
#include "pfs/store.hpp"
#include "pfs/strip_buffer.hpp"
#include "simkit/inplace_fn.hpp"

namespace {

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in the process goes through
// here, so a steady-state window with g_allocs unchanged means the fetch
// path is allocation-free end to end (callbacks, cache, pool included).
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;

// Payload bytes memcpy'd, counted explicitly at every copy site.
std::uint64_t g_bytes_copied = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocs;
  g_alloc_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void copy_payload(std::byte* dst, const std::byte* src, std::uint64_t n) {
  std::memcpy(dst, src, n);
  g_bytes_copied += n;
}

constexpr std::uint64_t kStripBytes = 64 * 1024;
constexpr std::uint64_t kNumStrips = 256;
constexpr std::uint64_t kCacheStrips = kNumStrips / 2;  // cyclic churn: all miss

// ---------------------------------------------------------------------------
// The data plane as it existed before the zero-copy overhaul, kept here as
// a faithful replica so the comparison never drifts: ordered-map indexes
// keyed by (file, strip), a fresh vector copy at every hop, std::function
// callbacks.

class LegacyStore {
 public:
  void put(std::uint64_t file, std::uint64_t strip,
           std::vector<std::byte> bytes) {
    strips_[{file, strip}] = std::move(bytes);
  }

  [[nodiscard]] const std::vector<std::byte>& bytes(std::uint64_t file,
                                                    std::uint64_t strip) const {
    return strips_.at({file, strip});
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<std::byte>>
      strips_;
};

class LegacyCache {
 public:
  explicit LegacyCache(std::uint64_t capacity) : capacity_(capacity) {}

  [[nodiscard]] const std::vector<std::byte>* lookup(std::uint64_t file,
                                                     std::uint64_t strip) {
    const auto it = entries_.find({file, strip});
    if (it == entries_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.position);
    return &it->second.bytes;
  }

  void insert(std::uint64_t file, std::uint64_t strip,
              const std::vector<std::byte>& bytes) {
    while (used_ + bytes.size() > capacity_ && !order_.empty()) {
      const auto victim = order_.back();
      order_.pop_back();
      const auto it = entries_.find(victim);
      used_ -= it->second.bytes.size();
      entries_.erase(it);
    }
    order_.push_front({file, strip});
    Entry entry;
    entry.bytes = bytes;  // the copy-on-admit of the old cache
    g_bytes_copied += bytes.size();
    entry.position = order_.begin();
    entries_[{file, strip}] = std::move(entry);
    used_ += bytes.size();
  }

 private:
  using Key = std::pair<std::uint64_t, std::uint64_t>;
  struct Entry {
    std::vector<std::byte> bytes;
    std::list<Key>::iterator position;
  };

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Key> order_;
  std::map<Key, Entry> entries_;
};

struct ChurnResult {
  std::uint64_t fetches = 0;
  std::uint64_t checksum = 0;
  std::uint64_t allocs = 0;        // heap allocations in the measured window
  std::uint64_t bytes_copied = 0;  // payload bytes memcpy'd in the window
  double seconds = 0.0;
};

// One legacy halo fetch: cache lookup; on miss slice a fresh vector out of
// the store, deliver it through a freshly built std::function (captures a
// slab pointer, a checksum pointer, and the strip id — past the 16-byte
// small-buffer limit of common ABIs), copy into the consumer slab, and
// admit another copy into the cache.
ChurnResult run_legacy(std::uint64_t fetches, const LegacyStore& store) {
  LegacyCache cache(kCacheStrips * kStripBytes);
  std::vector<std::byte> slab(kStripBytes);
  std::uint64_t checksum = 0;

  const auto fetch_one = [&](std::uint64_t i) {
    const std::uint64_t strip = i % kNumStrips;
    const std::vector<std::byte>* cached = cache.lookup(0, strip);
    if (cached == nullptr) {
      const std::vector<std::byte>& stored = store.bytes(0, strip);
      std::vector<std::byte> payload(stored.begin(), stored.end());
      g_bytes_copied += payload.size();
      std::function<void(const std::vector<std::byte>&)> deliver =
          [slab_data = slab.data(), sum = &checksum,
           strip](const std::vector<std::byte>& bytes) {
            copy_payload(slab_data, bytes.data(), bytes.size());
            *sum += static_cast<std::uint64_t>(slab_data[0]) +
                    static_cast<std::uint64_t>(slab_data[bytes.size() - 1]) +
                    strip;
          };
      deliver(payload);
      cache.insert(0, strip, payload);
    } else {
      copy_payload(slab.data(), cached->data(), cached->size());
      checksum += static_cast<std::uint64_t>(slab[0]) +
                  static_cast<std::uint64_t>(slab[cached->size() - 1]) + strip;
    }
  };

  for (std::uint64_t i = 0; i < kNumStrips * 2; ++i) fetch_one(i);  // warm up

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t copied_before = g_bytes_copied;
  const auto start = std::chrono::steady_clock::now();
  checksum = 0;
  for (std::uint64_t i = 0; i < fetches; ++i) fetch_one(i);
  const auto stop = std::chrono::steady_clock::now();

  ChurnResult result;
  result.fetches = fetches;
  result.checksum = checksum;
  result.allocs = g_allocs - allocs_before;
  result.bytes_copied = g_bytes_copied - copied_before;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

// One zero-copy halo fetch: cache lookup; on miss slice a refcounted view
// of the stored payload, deliver it through an InplaceFn (same captures,
// inline), copy once into the consumer slab, and admit the SAME shared
// buffer into the cache. The only payload copy is the consumer's.
ChurnResult run_dataplane(std::uint64_t fetches,
                          const das::pfs::ServerStore& store) {
  das::cache::CacheConfig config;
  config.enabled = true;
  config.capacity_bytes = kCacheStrips * kStripBytes;
  das::cache::StripCache cache(config);
  std::vector<std::byte> slab(kStripBytes);
  std::uint64_t checksum = 0;

  const auto fetch_one = [&](std::uint64_t i) {
    const std::uint64_t strip = i % kNumStrips;
    const das::cache::CacheKey key{0, strip};
    if (const das::cache::CachedStrip* hit = cache.lookup(key)) {
      copy_payload(slab.data(), hit->bytes.data(), hit->bytes.size());
      checksum += static_cast<std::uint64_t>(slab[0]) +
                  static_cast<std::uint64_t>(slab[hit->bytes.size() - 1]) +
                  strip;
      return;
    }
    das::pfs::StripBuffer payload = store.buffer(0, strip);
    das::sim::InplaceFn<void(const das::pfs::StripBuffer&)> deliver =
        [slab_data = slab.data(), sum = &checksum,
         strip](const das::pfs::StripBuffer& bytes) {
          copy_payload(slab_data, bytes.data(), bytes.size());
          *sum += static_cast<std::uint64_t>(slab_data[0]) +
                  static_cast<std::uint64_t>(slab_data[bytes.size() - 1]) +
                  strip;
        };
    deliver(payload);
    const std::uint64_t length = payload.size();
    cache.insert(key, length, std::move(payload));
  };

  for (std::uint64_t i = 0; i < kNumStrips * 2; ++i) fetch_one(i);  // warm up

  const std::uint64_t allocs_before = g_allocs;
  const std::uint64_t copied_before = g_bytes_copied;
  const auto start = std::chrono::steady_clock::now();
  checksum = 0;
  for (std::uint64_t i = 0; i < fetches; ++i) fetch_one(i);
  const auto stop = std::chrono::steady_clock::now();

  ChurnResult result;
  result.fetches = fetches;
  result.checksum = checksum;
  result.allocs = g_allocs - allocs_before;
  result.bytes_copied = g_bytes_copied - copied_before;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t fetches = 2'000'000;
  std::string out_path = "BENCH_dataplane.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--fetches=", 10) == 0) {
      fetches = std::strtoull(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--fetches=N] [--out=FILE]\n", argv[0]);
      return 1;
    }
  }

  // Identical strip contents for both stores.
  LegacyStore legacy_store;
  das::pfs::ServerStore store;
  for (std::uint64_t s = 0; s < kNumStrips; ++s) {
    std::vector<std::byte> bytes(kStripBytes);
    for (std::uint64_t i = 0; i < kStripBytes; ++i) {
      bytes[i] = static_cast<std::byte>((s * 131 + i) % 251);
    }
    store.put(0, s, kStripBytes, das::pfs::StripBuffer::copy_of(bytes));
    legacy_store.put(0, s, std::move(bytes));
  }

  const ChurnResult legacy = run_legacy(fetches, legacy_store);
  const ChurnResult fresh = run_dataplane(fetches, store);

  if (legacy.checksum != fresh.checksum || legacy.fetches != fresh.fetches) {
    std::fprintf(stderr,
                 "FAIL: data planes diverged (legacy %llu/%llu, new "
                 "%llu/%llu)\n",
                 static_cast<unsigned long long>(legacy.fetches),
                 static_cast<unsigned long long>(legacy.checksum),
                 static_cast<unsigned long long>(fresh.fetches),
                 static_cast<unsigned long long>(fresh.checksum));
    return 1;
  }

  const double legacy_ops = static_cast<double>(legacy.fetches) /
                            legacy.seconds;
  const double fresh_ops = static_cast<double>(fresh.fetches) / fresh.seconds;
  const double speedup = fresh_ops / legacy_ops;
  const double fresh_allocs_per_fetch =
      static_cast<double>(fresh.allocs) / static_cast<double>(fresh.fetches);
  const double legacy_allocs_per_fetch =
      static_cast<double>(legacy.allocs) / static_cast<double>(legacy.fetches);

  char json[1536];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"dataplane\",\n"
      "  \"fetches\": %llu,\n"
      "  \"strip_bytes\": %llu,\n"
      "  \"checksum\": %llu,\n"
      "  \"new\": {\"ops_per_sec\": %.0f, \"allocs_per_fetch\": %.4f,\n"
      "          \"bytes_copied_per_fetch\": %.1f},\n"
      "  \"legacy\": {\"ops_per_sec\": %.0f, \"allocs_per_fetch\": %.4f,\n"
      "             \"bytes_copied_per_fetch\": %.1f},\n"
      "  \"speedup\": %.3f,\n"
      "  \"steady_state_allocs\": %llu\n"
      "}\n",
      static_cast<unsigned long long>(fresh.fetches),
      static_cast<unsigned long long>(kStripBytes),
      static_cast<unsigned long long>(fresh.checksum), fresh_ops,
      fresh_allocs_per_fetch,
      static_cast<double>(fresh.bytes_copied) /
          static_cast<double>(fresh.fetches),
      legacy_ops, legacy_allocs_per_fetch,
      static_cast<double>(legacy.bytes_copied) /
          static_cast<double>(legacy.fetches),
      speedup, static_cast<unsigned long long>(fresh.allocs));

  std::printf("%s", json);
  {
    std::ofstream out(out_path);
    out << json;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (fresh.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: steady-state fetch loop performed %llu heap "
                 "allocations (must be 0)\n",
                 static_cast<unsigned long long>(fresh.allocs));
    return 1;
  }
  if (speedup < 2.0) {
    std::fprintf(stderr, "FAIL: speedup %.3f < 2.0 over the legacy plane\n",
                 speedup);
    return 1;
  }
  return 0;
}
