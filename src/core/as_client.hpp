// Active Storage Client — the public entry point applications use
// (paper Fig. 2: "Applications interact with ... the Active Storage Client
// [which] responds to active storage I/O requests").
//
// submit() runs the full Fig. 3 workflow: look up the operator's Kernel
// Features, predict the bandwidth cost under the file's current layout,
// optionally re-lay-out the file (charging the redistribution traffic), and
// then either offload the kernel to the storage servers or serve the request
// as normal I/O on the compute nodes. The static schemes (TS, NAS) use the
// same path with their action fixed instead of decided.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/active_executor.hpp"
#include "core/cluster.hpp"
#include "core/decision.hpp"
#include "core/ts_executor.hpp"
#include "kernels/catalog.hpp"
#include "kernels/registry.hpp"

namespace das::core {

struct ActiveRequest {
  pfs::FileId input = pfs::kInvalidFile;
  std::string kernel_name;
  /// Output size; 0 means "same as input" (true for all Table-I kernels).
  std::uint64_t output_bytes = 0;
  /// Successive operations expected to reuse the dependence pattern
  /// (paper: flow-routing is always followed by flow-accumulation).
  std::uint32_t pipeline_length = 1;
  /// How many times the whole request is re-run over the same input
  /// (recurring analyses of a hot dataset). Repeats past the first can be
  /// served from the servers' strip caches when those are enabled.
  std::uint32_t repeat_count = 1;
  /// Permit the engine to re-lay-out the file before offloading.
  bool allow_redistribution = true;
  /// Carry real bytes end to end (correctness mode).
  bool data_mode = false;
  /// Serve with this action instead of asking the decision engine: the
  /// static schemes (TS always serves normally, NAS always offloads onto
  /// the current layout). Redistribution cannot be forced.
  std::optional<OffloadAction> action;
  /// Called as each offloaded pass completes, before the next one starts
  /// (online layout migration watches every pass's halo traffic).
  std::function<void(const ActiveExecutor&)> on_offload_pass;
};

struct SubmissionResult {
  Decision decision;
  pfs::FileId output = pfs::kInvalidFile;
  bool offloaded = false;
  bool redistributed = false;
  std::uint64_t redistribution_bytes = 0;
};

class ActiveStorageClient {
 public:
  ActiveStorageClient(Cluster& cluster,
                      const kernels::KernelRegistry& registry,
                      const DistributionConfig& distribution);

  /// Serve one request. Creates the output file (named
  /// "<input-name>.<kernel>"), decides, optionally redistributes, and runs
  /// the appropriate executor. `on_done` fires at completion.
  SubmissionResult submit(const ActiveRequest& request,
                          std::function<void()> on_done);

  /// The active executor of the most recent offloaded submission (for halo
  /// fetch statistics); nullptr if the last request was served as normal.
  [[nodiscard]] const ActiveExecutor* last_active_executor() const;

  /// Halo-acquisition counters summed over every offloaded pass this client
  /// has run (all passes of all submissions) — the observed side of the
  /// decision audit.
  [[nodiscard]] HaloFetchTotals halo_totals() const;

  [[nodiscard]] const DecisionEngine& engine() const { return engine_; }

  /// Install a Kernel Features catalog (paper §III-B). Records in the
  /// catalog override the kernels' built-in dependence patterns; the
  /// catalog must outlive this client. Pass nullptr to remove.
  void set_features_catalog(const kernels::FeaturesCatalog* catalog) {
    catalog_ = catalog;
  }

 private:
  Cluster& cluster_;
  const kernels::KernelRegistry& registry_;
  DecisionEngine engine_;
  const kernels::FeaturesCatalog* catalog_ = nullptr;
  // Keep executors and kernels alive for the duration of the simulation.
  std::vector<std::unique_ptr<ActiveExecutor>> active_executors_;
  std::vector<std::unique_ptr<TsExecutor>> ts_executors_;
  std::vector<kernels::KernelPtr> kernels_;
  const ActiveExecutor* last_active_ = nullptr;
};

}  // namespace das::core
