// Reference input generators for the bit-identity tests.
//
// These are the original whole-square implementations of generate_dem and
// generate_image, kept verbatim (apart from the DEM's shape precondition,
// which now admits one-cell-wide rasters like the production generator).
// The production generators in src/grid/ compute only the cells the
// requested raster depends on and skip blob terms that round away; every
// output float must still equal what these produce.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "grid/dem.hpp"
#include "grid/grid.hpp"
#include "grid/image.hpp"
#include "simkit/random.hpp"

namespace das::grid::reference {
namespace detail {

/// Smallest power-of-two-plus-one square that covers (width, height).
inline std::uint32_t covering_side(std::uint32_t width, std::uint32_t height) {
  std::uint32_t side = 2;
  while (side + 1 < std::max(width, height)) side *= 2;
  return side + 1;
}

inline void diamond_square(Grid<double>& g, sim::Rng& rng, double roughness,
                           double relief) {
  const std::uint32_t side = g.width();
  g.at(0, 0) = rng.uniform_real(-relief, relief);
  g.at(side - 1, 0) = rng.uniform_real(-relief, relief);
  g.at(0, side - 1) = rng.uniform_real(-relief, relief);
  g.at(side - 1, side - 1) = rng.uniform_real(-relief, relief);

  double amplitude = relief * roughness;
  for (std::uint32_t step = side - 1; step > 1; step /= 2) {
    const std::uint32_t half = step / 2;

    // Diamond phase: centre of each square.
    for (std::uint32_t y = half; y < side; y += step) {
      for (std::uint32_t x = half; x < side; x += step) {
        const double avg = (g.at(x - half, y - half) + g.at(x + half, y - half) +
                            g.at(x - half, y + half) +
                            g.at(x + half, y + half)) /
                           4.0;
        g.at(x, y) = avg + rng.uniform_real(-amplitude, amplitude);
      }
    }

    // Square phase: midpoint of each edge.
    for (std::uint32_t y = 0; y < side; y += half) {
      for (std::uint32_t x = (y / half) % 2 == 0 ? half : 0; x < side;
           x += step) {
        double sum = 0.0;
        int n = 0;
        if (x >= half) { sum += g.at(x - half, y); ++n; }
        if (x + half < side) { sum += g.at(x + half, y); ++n; }
        if (y >= half) { sum += g.at(x, y - half); ++n; }
        if (y + half < side) { sum += g.at(x, y + half); ++n; }
        g.at(x, y) = sum / n + rng.uniform_real(-amplitude, amplitude);
      }
    }

    amplitude *= roughness;
  }
}

}  // namespace detail

inline Grid<float> generate_dem(const DemOptions& options) {
  DAS_REQUIRE(options.width >= 1 && options.height >= 1);
  DAS_REQUIRE(options.roughness > 0.0 && options.roughness < 1.0);

  sim::Rng rng(options.seed);
  const std::uint32_t side =
      detail::covering_side(options.width, options.height);
  Grid<double> fractal(side, side, 0.0);
  detail::diamond_square(fractal, rng, options.roughness, options.relief);

  Grid<float> out(options.width, options.height);
  for (std::uint32_t y = 0; y < options.height; ++y) {
    for (std::uint32_t x = 0; x < options.width; ++x) {
      const double ramp =
          options.ramp * (static_cast<double>(x) + static_cast<double>(y));
      out.at(x, y) = static_cast<float>(fractal.at(x, y) - ramp);
    }
  }
  return out;
}

inline Grid<float> generate_image(const ImageOptions& options) {
  DAS_REQUIRE(options.width > 0 && options.height > 0);
  sim::Rng rng(options.seed);

  struct Blob {
    double x, y, sigma, intensity;
  };
  std::vector<Blob> blobs;
  blobs.reserve(options.num_blobs);
  const double min_side = std::min(options.width, options.height);
  for (std::uint32_t i = 0; i < options.num_blobs; ++i) {
    blobs.push_back(Blob{
        rng.uniform_real(0.0, static_cast<double>(options.width)),
        rng.uniform_real(0.0, static_cast<double>(options.height)),
        rng.uniform_real(min_side / 40.0, min_side / 8.0),
        rng.uniform_real(0.3, 1.0) * options.blob_intensity,
    });
  }

  Grid<float> out(options.width, options.height);
  for (std::uint32_t y = 0; y < options.height; ++y) {
    for (std::uint32_t x = 0; x < options.width; ++x) {
      double v = options.background;
      for (const Blob& b : blobs) {
        const double dx = static_cast<double>(x) - b.x;
        const double dy = static_cast<double>(y) - b.y;
        v += b.intensity *
             std::exp(-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma));
      }
      v += rng.normal(0.0, options.noise_stddev);
      out.at(x, y) = static_cast<float>(v);
    }
  }
  return out;
}

}  // namespace das::grid::reference
