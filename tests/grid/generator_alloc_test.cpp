// Heap bound for the input generators: making a data-mode raster costs
// memory in proportion to the raster, not to the DEM's covering square.
// Built as its own test binary because it replaces the global operator
// new/delete (plain and over-aligned: grids are 64-byte aligned) to track
// the bytes live on the heap; each block carries its size in a header.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "grid/dem.hpp"
#include "grid/image.hpp"

namespace {

constexpr std::size_t kHeader = alignof(std::max_align_t);
std::int64_t g_live_bytes = 0;
std::int64_t g_peak_bytes = 0;

void* track(void* raw, std::size_t header, std::size_t size) {
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  g_live_bytes += static_cast<std::int64_t>(size);
  g_peak_bytes = std::max(g_peak_bytes, g_live_bytes);
  return static_cast<char*>(raw) + header;
}

void* untrack(void* p, std::size_t header) {
  char* raw = static_cast<char*>(p) - header;
  g_live_bytes -= static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(raw));
  return raw;
}

}  // namespace

void* operator new(std::size_t size) {
  return track(std::malloc(size + kHeader), kHeader, size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  return track(std::aligned_alloc(a, (size + a + a - 1) / a * a), a, size);
}

void operator delete(void* p) noexcept {
  if (p != nullptr) std::free(untrack(p, kHeader));
}
void operator delete(void* p, std::align_val_t align) noexcept {
  if (p != nullptr) std::free(untrack(p, static_cast<std::size_t>(align)));
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
void operator delete(void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, std::size_t /*size*/) noexcept {
  ::operator delete(p);
}
void operator delete(void* p, std::size_t /*size*/,
                     std::align_val_t align) noexcept {
  ::operator delete(p, align);
}
void operator delete[](void* p, std::size_t /*size*/,
                       std::align_val_t align) noexcept {
  ::operator delete(p, align);
}

namespace das::grid {
namespace {

// The data-verify raster: one 8192-cell row per 32 KiB strip, 16 MiB.
constexpr std::uint32_t kWidth = 8192;
constexpr std::uint32_t kHeight = 512;
constexpr std::int64_t kOutputBytes =
    std::int64_t{kWidth} * kHeight * static_cast<std::int64_t>(sizeof(float));

/// Peak bytes live on the heap while `make` runs, over what was live before.
template <typename Make>
std::int64_t peak_heap(Make make) {
  const std::int64_t before = g_live_bytes;
  g_peak_bytes = before;
  {
    const Grid<float> out = make();
    EXPECT_EQ(out.size(), std::size_t{kWidth} * kHeight);
  }
  EXPECT_EQ(g_live_bytes, before);
  return g_peak_bytes - before;
}

TEST(GeneratorAllocationTest, DemHeapScalesWithTheRaster) {
  // The whole covering square would be 8193^2 doubles (512 MiB).
  const std::int64_t peak = peak_heap([] {
    DemOptions opt;
    opt.width = kWidth;
    opt.height = kHeight;
    return generate_dem(opt);
  });
  EXPECT_LE(peak, 4 * kOutputBytes);
}

TEST(GeneratorAllocationTest, ImageHeapStaysWithinOneMiBOfTheOutput) {
  const std::int64_t peak = peak_heap([] {
    ImageOptions opt;
    opt.width = kWidth;
    opt.height = kHeight;
    return generate_image(opt);
  });
  EXPECT_LE(peak, kOutputBytes + (std::int64_t{1} << 20));
}

}  // namespace
}  // namespace das::grid
