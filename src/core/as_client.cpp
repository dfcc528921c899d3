#include "core/as_client.hpp"

#include <string>
#include <utility>

#include "core/bandwidth_model.hpp"
#include "core/completion.hpp"
#include "simkit/assert.hpp"
#include "simkit/trace.hpp"

namespace das::core {

ActiveStorageClient::ActiveStorageClient(
    Cluster& cluster, const kernels::KernelRegistry& registry,
    const DistributionConfig& distribution)
    : cluster_(cluster),
      registry_(registry),
      engine_(distribution, cluster.config().server_cache,
              cluster.config().prefetch, cluster.config().nic_bandwidth_bps) {}

const ActiveExecutor* ActiveStorageClient::last_active_executor() const {
  return last_active_;
}

HaloFetchTotals ActiveStorageClient::halo_totals() const {
  HaloFetchTotals totals;
  for (const auto& executor : active_executors_) totals += *executor;
  return totals;
}

SubmissionResult ActiveStorageClient::submit(const ActiveRequest& request,
                                             std::function<void()> on_done) {
  DAS_REQUIRE(request.input != pfs::kInvalidFile);
  pfs::Pfs& pfs = cluster_.pfs();
  const pfs::FileMeta meta = pfs.meta(request.input);

  kernels_.push_back(registry_.create(request.kernel_name));
  kernels::ProcessingKernel& kernel = *kernels_.back();
  // The Kernel Features catalog (paper §III-B) takes precedence over the
  // pattern compiled into the kernel.
  kernels::KernelFeatures features = kernel.features();
  if (catalog_ != nullptr) {
    if (auto record = catalog_->lookup(request.kernel_name)) {
      features = std::move(*record);
    }
  }
  const std::uint64_t output_bytes =
      request.output_bytes != 0 ? request.output_bytes
                                : kernel.output_bytes(meta.size_bytes);
  DAS_REQUIRE(kernel.is_reduction() || output_bytes == meta.size_bytes);

  SubmissionResult result;
  if (request.action) {
    DAS_REQUIRE(*request.action != OffloadAction::kOffloadAfterRedistribution);
    result.decision.action = *request.action;
  } else {
    result.decision =
        engine_.decide(meta, pfs.layout(request.input), features,
                       output_bytes, request.pipeline_length,
                       request.repeat_count);
  }
  if (!request.allow_redistribution &&
      result.decision.action == OffloadAction::kOffloadAfterRedistribution) {
    // Without permission to move data, fall back to the cheaper of the two
    // remaining plans.
    result.decision.action =
        result.decision.current_forecast.offload_beneficial()
            ? OffloadAction::kOffload
            : OffloadAction::kServeNormal;
  }
  const OffloadAction action = result.decision.action;
  result.offloaded = action != OffloadAction::kServeNormal;
  result.redistributed =
      action == OffloadAction::kOffloadAfterRedistribution;

  sim::Tracer& tracer = cluster_.simulator().tracer();
  if (tracer.enabled() && !request.action) {
    tracer.instant_now(
        cluster_.compute_node(0), sim::TraceTrack::kRequest, "decision",
        "request",
        "{\"action\":\"" + std::string(to_string(action)) +
            "\",\"predicted_bytes\":" +
            std::to_string(result.decision.predicted_bytes) +
            ",\"predicted_hit_rate\":" +
            std::to_string(result.decision.predicted_hit_rate) + "}");
  }

  // The output inherits the input's *final* layout, so successive
  // operations find their halos local (the paper's flow-routing ->
  // flow-accumulation argument). Reductions keep their summary on the
  // client: no output file.
  if (!kernel.is_reduction()) {
    pfs::FileMeta out_meta = meta;
    out_meta.name = meta.name + "." + kernel.name();
    out_meta.size_bytes = output_bytes;
    std::unique_ptr<pfs::Layout> out_layout =
        result.redistributed ? result.decision.target->make_layout()
                             : pfs.layout(request.input).clone();
    result.output =
        pfs.create_file(std::move(out_meta), std::move(out_layout), nullptr);
  }

  const auto offsets = features.resolve(meta.raster_width);
  const std::uint64_t halo_strips =
      required_halo_strips(offsets, meta.element_size, meta.strip_size);

  // Each repeat pass runs a fresh executor (see run_passes).
  auto start_pass = [this, input = request.input, output = result.output,
                     data_mode = request.data_mode, &kernel, halo_strips,
                     offload = result.offloaded,
                     on_pass = request.on_offload_pass](
                        std::function<void()> pass_done) {
    if (offload) {
      active_executors_.push_back(std::make_unique<ActiveExecutor>(
          cluster_,
          ActiveExecutor::Options{&kernel, halo_strips, data_mode}));
      ActiveExecutor* exec = active_executors_.back().get();
      last_active_ = exec;
      if (on_pass) {
        pass_done = [on_pass, exec, pass_done = std::move(pass_done)]() {
          on_pass(*exec);
          pass_done();
        };
      }
      exec->start(input, output, std::move(pass_done));
    } else {
      ts_executors_.push_back(std::make_unique<TsExecutor>(
          cluster_, TsExecutor::Options{&kernel, halo_strips, data_mode}));
      last_active_ = nullptr;
      ts_executors_.back()->start(input, output, std::move(pass_done));
    }
  };
  auto launch = [passes = request.repeat_count, start_pass,
                 on_done = std::move(on_done)]() {
    run_passes(passes, start_pass, on_done);
  };

  // Fig. 3, first steps: fetch the file's distribution information from the
  // metadata service (one round trip, cached per client), then either move
  // the strips (server-server traffic, charged) or start right away.
  if (result.redistributed) {
    result.redistribution_bytes = result.decision.redistribution_bytes;
  }
  cluster_.metadata_cache(0).lookup(
      request.input,
      [this, launch, redistribute = result.redistributed,
       input = request.input,
       target = result.decision.target](pfs::FileInfo) {
        if (redistribute) {
          cluster_.pfs().redistribute(input, target->make_layout(), launch);
        } else {
          launch();
        }
      });
  return result;
}

}  // namespace das::core
