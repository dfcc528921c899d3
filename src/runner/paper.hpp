// Paper-experiment helpers: the exact configurations of the paper's
// evaluation (§IV-A) and the shape-check report shared by the experiment
// registry (runner/experiments.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/scheme.hpp"

namespace das::runner {

/// The paper's Table-I kernels, in its order.
[[nodiscard]] std::vector<std::string> paper_kernels();

/// Cluster of `total_nodes` with the paper's default 1:1 storage:compute
/// split (experiments used 24-60 nodes).
[[nodiscard]] core::ClusterConfig paper_cluster(std::uint32_t total_nodes);

/// Workload of `gib` gibibytes on `kernel` with the paper-scale geometry
/// (1 MiB strips, 4-byte elements, one raster row per strip).
[[nodiscard]] core::WorkloadSpec paper_workload(const std::string& kernel,
                                                std::uint64_t gib);

/// Run one (scheme, kernel, size, nodes) cell of the evaluation.
[[nodiscard]] core::RunReport run_cell(core::Scheme scheme,
                                       const std::string& kernel,
                                       std::uint64_t gib,
                                       std::uint32_t total_nodes);

/// One paper-vs-measured check line for EXPERIMENTS.md.
struct ShapeCheck {
  std::string what;       // e.g. "DAS vs TS speedup, flow-routing, 24 GB"
  std::string paper;      // the paper's qualitative/quantitative claim
  double measured = 0.0;  // our value
  bool holds = false;     // does the measured value match the claim's shape
};

[[nodiscard]] std::string format_checks(const std::vector<ShapeCheck>& checks);

}  // namespace das::runner
