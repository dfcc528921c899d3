// Prints the to_csv row of every report run_pipeline returns for two
// chains under TS, NAS and DAS: flow-routing -> flow-accumulation in timing
// mode, and gaussian-2d -> median-3x3 -> gaussian-2d in data mode with the
// strip cache, halo prefetch and two passes per stage. The driver_baseline
// gate compares this output with tests/data/driver_baseline/pipeline.csv;
// regenerate that file by redirecting this program's stdout into it.
#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/scheme.hpp"

namespace {

using das::core::Scheme;
using das::core::SchemeRunOptions;

SchemeRunOptions terrain_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "flow-routing";
  o.workload.data_bytes = 1ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  return o;
}

SchemeRunOptions filter_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "gaussian-2d";
  o.workload.data_bytes = 2ULL << 20;
  o.workload.strip_size = 16ULL << 10;  // one 4096-cell row per strip
  o.workload.with_data = true;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.server_cache.enabled = true;
  o.cluster.server_cache.capacity_bytes = 256ULL << 10;
  o.cluster.server_cache.policy = "lfu";
  o.cluster.prefetch.enabled = true;
  o.cluster.prefetch.depth = 4;
  o.repeat_count = 2;
  return o;
}

}  // namespace

int main() {
  const std::vector<std::string> terrain{"flow-routing", "flow-accumulation"};
  const std::vector<std::string> filters{"gaussian-2d", "median-3x3",
                                         "gaussian-2d"};
  std::printf("%s\n", das::core::report_csv_header().c_str());
  for (const Scheme scheme : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
    for (const auto& r : das::core::run_pipeline(terrain_options(scheme),
                                                 terrain)) {
      std::printf("%s\n", das::core::to_csv(r).c_str());
    }
    for (const auto& r : das::core::run_pipeline(filter_options(scheme),
                                                 filters)) {
      std::printf("%s\n", das::core::to_csv(r).c_str());
    }
  }
  return 0;
}
