#include "kernels/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/simd.hpp"

namespace das::kernels {

double RasterSummary::mean() const {
  DAS_REQUIRE(count > 0);
  return sum / static_cast<double>(count);
}

double RasterSummary::variance() const {
  DAS_REQUIRE(count > 0);
  const double m = mean();
  return std::max(0.0, sum_squares / static_cast<double>(count) - m * m);
}

double RasterSummary::stddev() const { return std::sqrt(variance()); }

void RasterSummary::merge(const RasterSummary& other) {
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  sum_squares += other.sum_squares;
}

RasterSummary RasterSummary::of(const grid::Grid<float>& g) {
  return of_rows(g, 0, g.height());
}

RasterSummary RasterSummary::of_rows(const grid::Grid<float>& g,
                                     std::uint32_t row_begin,
                                     std::uint32_t row_end) {
  DAS_REQUIRE(row_begin <= row_end && row_end <= g.height());
  RasterSummary s;
  // Dispatched per-row reduction. min/max vectorize (order-free without
  // NaN); sum and sum_squares stay sequential scalar double adds on every
  // ISA so the summary is bit-identical to the naive loop.
  const simd::StatsRowFn row_fn =
      simd::row_kernels(simd::active_isa()).statistics;
  for (std::uint32_t y = row_begin; y < row_end; ++y) {
    row_fn(g.row(y), g.width(), s.count, s.min, s.max, s.sum,
           s.sum_squares);
  }
  return s;
}

std::string StatisticsKernel::description() const {
  return "Scan-style reduction: count/min/max/mean/stddev of the raster "
         "(the classic active-storage workload; no data dependence)";
}

KernelFeatures StatisticsKernel::features() const {
  KernelFeatures f;
  f.name = name();
  return f;  // element-local: empty dependence list
}

grid::Grid<float> StatisticsKernel::run_reference(
    const grid::Grid<float>& input) const {
  const RasterSummary s = RasterSummary::of(input);
  grid::Grid<float> out(5, 1);
  out.at(0, 0) = static_cast<float>(s.count);
  out.at(1, 0) = s.min;
  out.at(2, 0) = s.max;
  out.at(3, 0) = static_cast<float>(s.mean());
  out.at(4, 0) = static_cast<float>(s.stddev());
  return out;
}

void StatisticsKernel::run_tile(const grid::Grid<float>& /*buffer*/,
                                std::uint32_t /*buffer_row0*/,
                                std::uint32_t /*grid_height*/,
                                std::uint32_t /*out_row_begin*/,
                                std::uint32_t /*out_row_end*/,
                                grid::Grid<float>& /*out*/) const {
  DAS_REQUIRE(false && "reduction kernels do not execute through run_tile");
}

}  // namespace das::kernels
