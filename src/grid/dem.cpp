#include "grid/dem.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <vector>

namespace das::grid {
namespace {

/// Smallest power-of-two-plus-one square that covers (width, height).
std::uint32_t covering_side(std::uint32_t width, std::uint32_t height) {
  std::uint32_t side = 2;
  while (side + 1 < std::max(width, height)) side *= 2;
  return side + 1;
}

// Diamond-square over the covering square sets every cell from neighbours
// one half-step away, so the output, the square's top-left width x height
// corner, depends only on a band along its top and left edges. Let R(h) be
// the output grown by 2(h - 1) cells to the right and down. The square
// phase of the level with half-step h need only compute the edge
// midpoints inside R(h): they read cells h away, inside R(h) + h. Its
// diamond phase need only compute the centres inside R(h) + h, which read
// corners another h away, inside R(h) + 2h = R(2h). R(1) is the output, so
// by induction every cell outside these reaches is never read. The
// generator computes only the cells inside them and discards the random
// draws of the rest, keeping each computed cell's draw where it was.

/// Last column and row of a reach: [0, x] x [0, y].
struct Reach {
  std::uint32_t x;
  std::uint32_t y;
};

/// The output grown by `grow` cells right and down, clipped to the square.
Reach grown(std::uint32_t width, std::uint32_t height, std::uint64_t grow,
            std::uint32_t last) {
  const auto clip = [&](std::uint32_t extent) {
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(last, extent - 1 + grow));
  };
  return Reach{clip(width), clip(height)};
}

/// R(half): where the square phase of level `half` computes.
Reach square_reach(std::uint32_t width, std::uint32_t height,
                   std::uint32_t half, std::uint32_t last) {
  return grown(width, height, 2 * (std::uint64_t{half} - 1), last);
}

/// R(half) + half: where the diamond phase of level `half` computes.
Reach diamond_reach(std::uint32_t width, std::uint32_t height,
                    std::uint32_t half, std::uint32_t last) {
  return grown(width, height, 3 * std::uint64_t{half} - 2, last);
}

/// The cells of the covering square that some reach contains. A row other
/// than the first and last is written furthest by the diamond phase of the
/// level whose half-step is its lowest set bit (later levels reach less),
/// so it is stored up to that phase's last column; rows no reach touches
/// take no memory. The corner rows are stored whole.
class Band {
 public:
  Band(std::uint32_t side, std::uint32_t width, std::uint32_t height)
      : begin_(std::size_t{side} + 1, 0) {
    const std::uint32_t last = side - 1;
    for (std::uint32_t y = 0; y < side; ++y) {
      std::size_t cols = side;
      if (y != 0 && y != last) {
        const std::uint32_t half = std::uint32_t{1} << std::countr_zero(y);
        const Reach reach = diamond_reach(width, height, half, last);
        cols = y <= reach.y ? std::size_t{reach.x} + 1 : 0;
      }
      begin_[y + 1] = begin_[y] + cols;
    }
    cells_.assign(begin_[side], 0.0);
  }

  [[nodiscard]] double* row(std::uint32_t y) {
    return cells_.data() + begin_[y];
  }

 private:
  std::vector<std::size_t> begin_;
  std::vector<double> cells_;
};

void diamond_square(Band& g, std::uint32_t side, std::uint32_t width,
                    std::uint32_t height, sim::Rng& rng, double roughness,
                    double relief) {
  const std::uint32_t last = side - 1;
  double* top = g.row(0);
  double* bottom = g.row(last);
  top[0] = rng.uniform_real(-relief, relief);
  top[last] = rng.uniform_real(-relief, relief);
  bottom[0] = rng.uniform_real(-relief, relief);
  bottom[last] = rng.uniform_real(-relief, relief);

  double amplitude = relief * roughness;
  for (std::uint32_t step = last; step > 1; step /= 2) {
    const std::uint32_t half = step / 2;
    // Squares per side: the diamond phase has this many rows of this many
    // centres; the square phase has 2 * per_row + 1 rows, the even ones
    // (counted in half-steps) with per_row midpoints, the odd ones with
    // per_row + 1.
    const std::uint64_t per_row = last / step;

    // Diamond phase: centre of each square.
    const Reach di = diamond_reach(width, height, half, last);
    std::uint64_t rows = 0;
    for (std::uint32_t y = half; y <= di.y; y += step, ++rows) {
      const double* above = g.row(y - half);
      const double* below = g.row(y + half);
      double* row = g.row(y);
      std::uint64_t drawn = 0;
      for (std::uint32_t x = half; x <= di.x; x += step, ++drawn) {
        const double avg = (above[x - half] + above[x + half] +
                            below[x - half] + below[x + half]) /
                           4.0;
        row[x] = avg + rng.uniform_real(-amplitude, amplitude);
      }
      rng.discard(per_row - drawn);
    }
    rng.discard((per_row - rows) * per_row);

    // Square phase: midpoint of each edge.
    const Reach sq = square_reach(width, height, half, last);
    std::uint32_t y = 0;
    for (; y <= sq.y; y += half) {
      const bool odd = (y / half) % 2 == 1;
      const double* above = y >= half ? g.row(y - half) : nullptr;
      const double* below = y + half < side ? g.row(y + half) : nullptr;
      double* row = g.row(y);
      std::uint64_t drawn = 0;
      for (std::uint32_t x = odd ? 0 : half; x <= sq.x; x += step, ++drawn) {
        double sum = 0.0;
        int n = 0;
        if (x >= half) {
          sum += row[x - half];
          ++n;
        }
        if (x + half < side) {
          sum += row[x + half];
          ++n;
        }
        if (above != nullptr) {
          sum += above[x];
          ++n;
        }
        if (below != nullptr) {
          sum += below[x];
          ++n;
        }
        row[x] = sum / n + rng.uniform_real(-amplitude, amplitude);
      }
      rng.discard(per_row + (odd ? 1 : 0) - drawn);
    }
    // The rows past the reach, y / half .. 2 * per_row in half-steps, draw
    // per_row each plus one more if odd: per_row rows are odd in all, and
    // first / 2 of them lie before the first row skipped.
    const std::uint64_t first = y / half;
    rng.discard((2 * per_row + 1 - first) * per_row + per_row - first / 2);

    amplitude *= roughness;
  }
}

}  // namespace

Grid<float> generate_dem(const DemOptions& options) {
  DAS_REQUIRE(options.width >= 1 && options.height >= 1);
  DAS_REQUIRE(options.roughness > 0.0 && options.roughness < 1.0);

  sim::Rng rng(options.seed);
  const std::uint32_t side = covering_side(options.width, options.height);
  Band fractal(side, options.width, options.height);
  diamond_square(fractal, side, options.width, options.height, rng,
                 options.roughness, options.relief);

  Grid<float> out(options.width, options.height);
  for (std::uint32_t y = 0; y < options.height; ++y) {
    const double* src = fractal.row(y);
    float* dst = out.row(y);
    for (std::uint32_t x = 0; x < options.width; ++x) {
      const double ramp =
          options.ramp * (static_cast<double>(x) + static_cast<double>(y));
      dst[x] = static_cast<float>(src[x] - ramp);
    }
  }
  return out;
}

Grid<float> generate_ramp(std::uint32_t width, std::uint32_t height,
                          double slope_x, double slope_y) {
  Grid<float> out(width, height);
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      out.at(x, y) = static_cast<float>(
          -(slope_x * static_cast<double>(x) +
            slope_y * static_cast<double>(y)));
    }
  }
  return out;
}

Grid<float> generate_cone(std::uint32_t width, std::uint32_t height) {
  Grid<float> out(width, height);
  const double cx = (static_cast<double>(width) - 1.0) / 2.0;
  const double cy = (static_cast<double>(height) - 1.0) / 2.0;
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      const double dx = static_cast<double>(x) - cx;
      const double dy = static_cast<double>(y) - cy;
      out.at(x, y) = static_cast<float>(std::sqrt(dx * dx + dy * dy));
    }
  }
  return out;
}

}  // namespace das::grid
