// Prints run-driver report rows that das_sim cannot print, for the golden
// manifest (tests/golden/CMakeLists.txt) to pin:
//
//   das_golden_dump pipeline   the to_csv row of every report run_pipeline
//       returns for two chains under TS, NAS and DAS: flow-routing ->
//       flow-accumulation in timing mode, and gaussian-2d -> median-3x3 ->
//       gaussian-2d in data mode with the strip cache, halo prefetch and two
//       passes per stage (pipeline.csv).
//   das_golden_dump data-mode  every raster kernel under TS, NAS and DAS in
//       data mode, with no cache and with the strip cache, halo prefetch and
//       two passes, on a 4 MiB raster of 32 KiB strips over 4 + 4 nodes.
//       Each row is followed by its timing-only twin and ends in the
//       output_verified flag that to_csv omits (data_mode.csv).
#include <cstdio>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/scheme.hpp"
#include "kernels/registry.hpp"
#include "runner/sweep.hpp"

namespace {

using das::core::RunReport;
using das::core::Scheme;
using das::core::SchemeRunOptions;

constexpr Scheme kSchemes[] = {Scheme::kTS, Scheme::kNAS, Scheme::kDAS};

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

/// The strip cache, halo prefetch and two passes per stage.
void enable_cache(SchemeRunOptions& o, std::uint64_t capacity_bytes) {
  o.cluster.server_cache.enabled = true;
  o.cluster.server_cache.capacity_bytes = capacity_bytes;
  o.cluster.server_cache.policy = "lfu";
  o.cluster.prefetch.enabled = true;
  o.cluster.prefetch.depth = 4;
  o.repeat_count = 2;
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
  enable_cache(o, 256ULL << 10);
  return o;
}

int print_pipeline() {
  const std::vector<std::string> terrain{"flow-routing", "flow-accumulation"};
  const std::vector<std::string> filters{"gaussian-2d", "median-3x3",
                                         "gaussian-2d"};
  std::printf("%s\n", das::core::report_csv_header().c_str());
  for (const Scheme scheme : kSchemes) {
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

int print_data_mode() {
  std::vector<SchemeRunOptions> cells;
  const auto registry = das::kernels::standard_registry();
  for (const std::string& kernel : registry.names()) {
    if (registry.create(kernel)->is_reduction()) continue;
    for (const bool cached : {false, true}) {
      for (const Scheme scheme : kSchemes) {
        SchemeRunOptions o;
        o.scheme = scheme;
        o.workload.kernel_name = kernel;
        o.workload.data_bytes = 4ULL << 20;
        o.workload.strip_size = 32ULL << 10;  // one 8192-cell row per strip
        o.cluster.storage_nodes = 4;
        o.cluster.compute_nodes = 4;
        if (cached) enable_cache(o, 4ULL << 20);
        for (const bool with_data : {true, false}) {
          o.workload.with_data = with_data;
          cells.push_back(o);
        }
      }
    }
  }
  std::vector<RunReport> reports(cells.size());
  das::runner::parallel_for_indexed(4, cells.size(), [&](std::size_t i) {
    reports[i] = das::core::run_scheme(cells[i]);
  });
  std::printf("%s,output_verified\n", das::core::report_csv_header().c_str());
  for (const RunReport& r : reports) {
    std::printf("%s,%d\n", das::core::to_csv(r).c_str(),
                r.output_verified ? 1 : 0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string block = argc == 2 ? argv[1] : "";
  if (block == "pipeline") return print_pipeline();
  if (block == "data-mode") return print_data_mode();
  std::fprintf(stderr, "usage: %s pipeline|data-mode\n", argv[0]);
  return 2;
}
