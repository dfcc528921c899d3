// Scheme runs: one call reproduces one bar/point of the paper's evaluation
// (TS / NAS / DAS on one kernel, one data size, one cluster size), or a
// chain of successive operations over the same data, returning the
// RunReports the benches aggregate into tables. Both go through one
// stage-chain driver (DESIGN §5, "Run driver").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/list_access.hpp"
#include "core/metrics.hpp"
#include "core/migration_planner.hpp"
#include "core/workload.hpp"
#include "simkit/context.hpp"

namespace das::core {

enum class Scheme { kTS, kNAS, kDAS };

[[nodiscard]] constexpr const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kTS: return "TS";
    case Scheme::kNAS: return "NAS";
    case Scheme::kDAS: return "DAS";
  }
  return "?";
}

/// Everything about a run except its kernels. Runs reject bad values with
/// std::invalid_argument naming the field and its value.
struct SchemeRunOptions {
  Scheme scheme = Scheme::kDAS;
  WorkloadSpec workload;
  ClusterConfig cluster;
  DistributionConfig distribution;
  /// DAS: the file is already stored in the planned distribution (the
  /// paper's evaluation setting). Set false to charge the runtime
  /// redistribution (ablation A4).
  bool pre_distributed = true;
  /// Successive operations sharing the dependence pattern (decision input).
  /// A chain's stages count themselves: stage i of n sees the n - i stages
  /// still to run plus pipeline_length - 1 more.
  std::uint32_t pipeline_length = 1;
  /// How many times each stage re-runs over its input within one
  /// simulation (recurring analyses of a hot dataset). Repeats past the
  /// first can hit the servers' strip caches when those are enabled.
  std::uint32_t repeat_count = 1;
  /// Online layout migration (NAS repeated passes): watch per-pass halo
  /// traffic and re-stripe the input in the background when the layout is
  /// demonstrably wrong for the observed pattern. Disabled by default —
  /// every byte flow then reproduces the migration-free system exactly.
  /// Single-stage runs only.
  MigrationConfig migration;
  /// Sparse access pattern (kNone = the full sweep). TS serves it as list
  /// I/O: each client issues one read_regions over its contiguous share of
  /// the runs and computes over the fetched rows, so client_server_bytes is
  /// the bytes-moved metric of EXPERIMENTS.md (runs + list headers only).
  /// NAS and DAS still sweep the whole file — active storage computes every
  /// output — and every scheme records the list-aware pricing in the
  /// decision note. Single-stage runs only.
  AccessSpec access;
  /// List-TS: expand every run to its enclosing whole strips before issuing
  /// — the pre-list-I/O behavior, kept as the A/B baseline experiment E3
  /// (`das_sim --figure=e3`) measures the bytes-moved reduction against.
  bool whole_strips = false;
  /// Run context (logger/tracer/rng) for this run; null gives the cluster's
  /// simulator its private default. Parallel sweeps give every run its own
  /// context so concurrent simulations never share mutable state.
  sim::RunContext* context = nullptr;
};

/// Run one scheme on one workload (a chain of one stage, the workload's
/// kernel) and report the result.
[[nodiscard]] RunReport run_scheme(const SchemeRunOptions& options);

/// Run a chain of kernels (e.g. flow-routing then flow-accumulation), each
/// consuming the previous operator's output, within ONE simulation —
/// the successive-operation scenario of the paper's introduction. Returns
/// one report per stage plus a combined report (last element, kernel
/// "pipeline").
[[nodiscard]] std::vector<RunReport> run_pipeline(
    const SchemeRunOptions& options,
    const std::vector<std::string>& kernel_chain);

}  // namespace das::core
