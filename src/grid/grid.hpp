// Dense row-major 2-D raster.
//
// This is the in-memory representation of the terrain maps and medical
// images the paper's kernels operate on. In the parallel file system a grid
// is stored as its row-major element stream, so "row width" and "strip size"
// interact exactly as in the paper's Figs. 4-7.
//
// Storage is 64-byte aligned (one cache line, one AVX-512 vector), so a
// grid's first row never straddles a line.
#pragma once

#include <cmath>
#include <cstdint>
#include <new>
#include <vector>

#include "simkit/assert.hpp"

namespace das::grid {

/// Alignment of every grid allocation: one cache line, which is also the
/// widest vector the kernel engine dispatches today.
inline constexpr std::size_t kGridAlignment = 64;

/// Minimal aligned allocator so the backing std::vector honours
/// kGridAlignment regardless of the element type's natural alignment.
template <typename T>
struct GridAllocator {
  using value_type = T;

  GridAllocator() = default;
  template <typename U>
  // NOLINTNEXTLINE(google-explicit-constructor)
  GridAllocator(const GridAllocator<U>&) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kGridAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kGridAlignment});
  }

  template <typename U>
  friend bool operator==(const GridAllocator&, const GridAllocator<U>&) {
    return true;
  }
};

template <typename T>
class Grid {
 public:
  Grid() = default;

  Grid(std::uint32_t width, std::uint32_t height, T fill_value = T{})
      : width_(width),
        height_(height),
        cells_(static_cast<std::size_t>(width) * height, fill_value) {
    DAS_REQUIRE(width > 0 && height > 0);
  }

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t height() const { return height_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(width_) * height_;
  }
  [[nodiscard]] bool empty() const { return cells_.empty(); }

  [[nodiscard]] bool in_bounds(std::int64_t x, std::int64_t y) const {
    return x >= 0 && y >= 0 && x < static_cast<std::int64_t>(width_) &&
           y < static_cast<std::int64_t>(height_);
  }

  [[nodiscard]] T& at(std::uint32_t x, std::uint32_t y) {
    DAS_ASSERT(in_bounds(x, y));
    return cells_[static_cast<std::size_t>(y) * width_ + x];
  }
  [[nodiscard]] const T& at(std::uint32_t x, std::uint32_t y) const {
    DAS_ASSERT(in_bounds(x, y));
    return cells_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Linear (row-major) element access; index < size().
  [[nodiscard]] T& operator[](std::size_t i) {
    DAS_ASSERT(i < cells_.size());
    return cells_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    DAS_ASSERT(i < cells_.size());
    return cells_[i];
  }

  [[nodiscard]] T* data() { return cells_.data(); }
  [[nodiscard]] const T* data() const { return cells_.data(); }

  [[nodiscard]] T* row(std::uint32_t y) {
    DAS_ASSERT(y < height_);
    return cells_.data() + static_cast<std::size_t>(y) * width_;
  }
  [[nodiscard]] const T* row(std::uint32_t y) const {
    DAS_ASSERT(y < height_);
    return cells_.data() + static_cast<std::size_t>(y) * width_;
  }

  void fill(T value) { cells_.assign(cells_.size(), value); }

  /// Copy rows [row_begin, row_end) into a new grid of the same width.
  [[nodiscard]] Grid<T> slice_rows(std::uint32_t row_begin,
                                   std::uint32_t row_end) const {
    DAS_REQUIRE(row_begin < row_end && row_end <= height_);
    Grid<T> out(width_, row_end - row_begin);
    for (std::uint32_t y = row_begin; y < row_end; ++y) {
      const T* src = row(y);
      T* dst = out.row(y - row_begin);
      for (std::uint32_t x = 0; x < width_; ++x) dst[x] = src[x];
    }
    return out;
  }

  /// Overwrite rows [row_begin, row_begin + src.height()) from `src`
  /// (same width).
  void paste_rows(std::uint32_t row_begin, const Grid<T>& src) {
    DAS_REQUIRE(src.width() == width_);
    DAS_REQUIRE(row_begin + src.height() <= height_);
    for (std::uint32_t y = 0; y < src.height(); ++y) {
      const T* s = src.row(y);
      T* d = row(row_begin + y);
      for (std::uint32_t x = 0; x < width_; ++x) d[x] = s[x];
    }
  }

  /// Equality: shape and contents.
  friend bool operator==(const Grid& a, const Grid& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.cells_ == b.cells_;
  }

 private:
  std::uint32_t width_ = 0;
  std::uint32_t height_ = 0;
  std::vector<T, GridAllocator<T>> cells_;
};

/// Largest absolute element-wise difference; grids must have equal shape.
template <typename T>
double max_abs_diff(const Grid<T>& a, const Grid<T>& b) {
  DAS_REQUIRE(a.width() == b.width() && a.height() == b.height());
  double worst = 0.0;
  for (std::uint32_t y = 0; y < a.height(); ++y) {
    const T* ra = a.row(y);
    const T* rb = b.row(y);
    for (std::uint32_t x = 0; x < a.width(); ++x) {
      const double d = std::fabs(static_cast<double>(ra[x]) -
                                 static_cast<double>(rb[x]));
      if (d > worst) worst = d;
    }
  }
  return worst;
}

}  // namespace das::grid
