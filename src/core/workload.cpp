#include "core/workload.hpp"

#include <stdexcept>

#include "grid/dem.hpp"
#include "grid/image.hpp"
#include "kernels/flow_routing.hpp"
#include "simkit/assert.hpp"

namespace das::core {

bool WorkloadSpec::geometry_aligned() const {
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(width()) * element_size;
  if (data_bytes % row_bytes != 0) return false;
  return strip_size % row_bytes == 0 || row_bytes % strip_size == 0;
}

void WorkloadSpec::require_aligned() const {
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(width()) * element_size;
  if (data_bytes % row_bytes != 0) {
    throw std::invalid_argument(
        "workload geometry misaligned: data_bytes=" +
        std::to_string(data_bytes) + " is not a whole number of rows (" +
        std::to_string(width()) + " elements x " +
        std::to_string(element_size) + " B = " + std::to_string(row_bytes) +
        " B/row, remainder " + std::to_string(data_bytes % row_bytes) +
        " B would be silently dropped)");
  }
  if (!geometry_aligned()) {
    throw std::invalid_argument(
        "workload geometry misaligned: row length " +
        std::to_string(row_bytes) + " B does not align with strip_size " +
        std::to_string(strip_size) +
        " B (one must divide the other for strips to cover whole rows)");
  }
}

pfs::FileMeta WorkloadSpec::make_meta(std::string name) const {
  DAS_REQUIRE(data_bytes > 0);
  DAS_REQUIRE(strip_size > 0);
  DAS_REQUIRE(element_size > 0);
  pfs::FileMeta meta;
  meta.name = std::move(name);
  meta.size_bytes = data_bytes;
  meta.element_size = element_size;
  meta.strip_size = strip_size;
  meta.raster_width = width();
  meta.raster_height = height();
  return meta;
}

grid::Grid<float> make_input(const WorkloadSpec& spec,
                             const kernels::ProcessingKernel& kernel) {
  spec.require_aligned();
  const std::uint32_t w = spec.width();
  const std::uint32_t h = spec.height();

  if (kernel.name() == "flow-routing" || kernel.name() == "surface-slope") {
    grid::DemOptions opt;
    opt.width = w;
    opt.height = h;
    opt.seed = spec.seed;
    return grid::generate_dem(opt);
  }
  if (kernel.name() == "flow-accumulation") {
    grid::DemOptions opt;
    opt.width = w;
    opt.height = h;
    opt.seed = spec.seed;
    const grid::Grid<float> dem = grid::generate_dem(opt);
    return kernels::FlowRoutingKernel{}.run_reference(dem);
  }
  grid::ImageOptions opt;
  opt.width = w;
  opt.height = h;
  opt.seed = spec.seed;
  return grid::generate_image(opt);
}

}  // namespace das::core
