#include "grid/image.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace das::grid {

Grid<float> generate_image(const ImageOptions& options) {
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

  // With a positive background and positive intensities every blob term is
  // non-negative, so a pixel's running sum never drops below `background`
  // and a term under half the spacing of doubles just above `background`
  // rounds away exactly. A blob then matters only within the radius where
  // its term can reach that size; one extra e-fold and one extra pixel
  // absorb the rounding of exp and of the radius. Beyond it the term is
  // skipped, which changes no bit. Otherwise every blob reaches every pixel.
  const double bg = options.background;
  const bool cull = bg > 0.0 && options.blob_intensity > 0.0 &&
                    std::isfinite(bg) && std::isfinite(options.blob_intensity);
  const double negligible =
      (std::nextafter(bg, std::numeric_limits<double>::infinity()) - bg) / 2.0;
  std::vector<double> reach2;  // squared radius, in pixels
  reach2.reserve(blobs.size());
  for (const Blob& b : blobs) {
    reach2.push_back(cull ? 2.0 * b.sigma * b.sigma *
                                (std::log(b.intensity / negligible) + 1.0)
                          : std::numeric_limits<double>::infinity());
  }

  // Summing a row blob by blob still adds each pixel's terms in blob order,
  // and the noise is then drawn pixel by pixel, as in a per-pixel loop.
  const double last_x = static_cast<double>(options.width - 1);
  std::vector<double> sum(options.width);
  Grid<float> out(options.width, options.height);
  for (std::uint32_t y = 0; y < options.height; ++y) {
    std::fill(sum.begin(), sum.end(), bg);
    for (std::size_t i = 0; i < blobs.size(); ++i) {
      const Blob& b = blobs[i];
      const double dy = static_cast<double>(y) - b.y;
      if (dy * dy > reach2[i]) continue;
      const double r = std::sqrt(reach2[i] - dy * dy) + 1.0;
      const auto x_end =
          static_cast<std::uint32_t>(std::min(last_x, std::floor(b.x + r)));
      for (auto x = static_cast<std::uint32_t>(
               std::max(0.0, std::ceil(b.x - r)));
           x <= x_end; ++x) {
        const double dx = static_cast<double>(x) - b.x;
        sum[x] += b.intensity *
                  std::exp(-(dx * dx + dy * dy) / (2.0 * b.sigma * b.sigma));
      }
    }
    float* dst = out.row(y);
    for (std::uint32_t x = 0; x < options.width; ++x) {
      dst[x] = static_cast<float>(sum[x] +
                                  rng.normal(0.0, options.noise_stddev));
    }
  }
  return out;
}

Grid<float> generate_impulse_noise(std::uint32_t width, std::uint32_t height,
                                   float base_value, float impulse_value,
                                   double impulse_rate, std::uint64_t seed) {
  DAS_REQUIRE(impulse_rate >= 0.0 && impulse_rate <= 1.0);
  sim::Rng rng(seed);
  Grid<float> out(width, height, base_value);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng.bernoulli(impulse_rate)) out[i] = impulse_value;
  }
  return out;
}

}  // namespace das::grid
