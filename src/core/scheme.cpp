#include "core/scheme.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "cache/strip_cache.hpp"
#include "core/as_client.hpp"
#include "core/bandwidth_model.hpp"
#include "core/cluster.hpp"
#include "core/completion.hpp"
#include "core/distribution_planner.hpp"
#include "grid/serialize.hpp"
#include "kernels/registry.hpp"
#include "pfs/migrate.hpp"
#include "simkit/assert.hpp"
#include "simkit/context.hpp"
#include "telemetry/plane.hpp"

namespace das::core {
namespace {

/// The cumulative network, cache and prefetch counters a report shows:
/// a stage row shows their change over the stage, the run's total row
/// their change since the start.
struct Counters {
  std::uint64_t client_server = 0;
  std::uint64_t server_server = 0;
  std::uint64_t control = 0;
  cache::CacheStats cache;
  pfs::PrefetchStats prefetch;

  static Counters take(Cluster& cluster) {
    const net::Network& network = cluster.network();
    return Counters{
        network.bytes_delivered(net::TrafficClass::kClientServer),
        network.bytes_delivered(net::TrafficClass::kServerServer),
        network.messages_delivered(net::TrafficClass::kControl),
        cluster.pfs().cache_stats(), cluster.pfs().prefetch_stats()};
  }
};

void fill_counters(RunReport& report, Cluster& cluster,
                   const Counters& before) {
  const Counters now = Counters::take(cluster);
  report.client_server_bytes = now.client_server - before.client_server;
  report.server_server_bytes = now.server_server - before.server_server;
  report.control_messages = now.control - before.control;

  cache::CacheStats stats = now.cache;
  stats -= before.cache;
  report.cache_hits = stats.hits;
  report.cache_misses = stats.misses;
  report.cache_evictions = stats.evictions;
  report.cache_hit_bytes = stats.hit_bytes;
  report.prefetch_hits = stats.prefetch_hits;
  report.prefetch_hit_bytes = stats.prefetch_hit_bytes;

  pfs::PrefetchStats prefetch = now.prefetch;
  prefetch -= before.prefetch;
  report.prefetch_issued = prefetch.issued;
  report.prefetch_issued_bytes = prefetch.issued_bytes;
  report.prefetch_coalesced = prefetch.coalesced;
  report.prefetch_dropped_stale = prefetch.dropped_stale;
}

/// One stage of a run: a kernel applied to the previous stage's output (the
/// run's input for the first stage), every pass of it.
struct Stage {
  kernels::KernelPtr kernel;
  /// The stage row: its own time, deltas of its counters, its decision and
  /// its verification.
  RunReport report;
  sim::SimTime finish = -1;
  Counters before;
  /// What the client did with the stage (left empty by list-I/O stages,
  /// which write no output).
  SubmissionResult submission;
};

/// Reject every value the run would otherwise abort, hang or divide by zero
/// on deep inside the library.
void validate(const SchemeRunOptions& o, const std::vector<Stage>& stages) {
  require_option(!stages.empty(), "kernel_chain.size", stages.size(), ">= 1");
  for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
    // A reduction has no raster output to feed a successor.
    require_option(!stages[i].kernel->is_reduction(), "kernel_chain",
                   stages[i].kernel->name(),
                   "the last stage, being a reduction");
  }
  if (o.workload.with_data) {
    // The executors carry no real bytes for a reduction's partial results.
    for (const Stage& stage : stages) {
      require_option(!stage.kernel->is_reduction(), "kernel_chain",
                     stage.kernel->name(),
                     "raster kernels only when workload.with_data is set");
    }
  }
  const WorkloadSpec& w = o.workload;
  const ClusterConfig& c = o.cluster;
  const std::pair<const char*, double> positive[] = {
      {"workload.data_bytes", static_cast<double>(w.data_bytes)},
      {"workload.strip_size", static_cast<double>(w.strip_size)},
      {"workload.element_size", w.element_size},
      {"cluster.storage_nodes", c.storage_nodes},
      {"cluster.compute_nodes", c.compute_nodes},
      {"cluster.nic_bandwidth_bps", c.nic_bandwidth_bps},
      {"cluster.disk_bandwidth_bps", c.disk_bandwidth_bps},
      {"cluster.compute_rate_bps", c.compute_rate_bps},
      {"cluster.pipeline_window", c.pipeline_window},
      {"pipeline_length", o.pipeline_length},
      {"repeat_count", o.repeat_count}};
  for (const auto& [field, value] : positive) {
    require_option(value > 0.0, field, value, "> 0");
  }
  require_option(c.job_startup >= 0, "cluster.job_startup", c.job_startup,
                 ">= 0");
  require_option(c.disk_jitter >= 0.0 && c.disk_jitter < 1.0,
                 "cluster.disk_jitter", c.disk_jitter, "in [0, 1)");
  check_cluster(c);
  if (stages.size() > 1) {
    require_option(!o.access.active(), "access", o.access.label(),
                   "unset on a chain of stages");
    require_option(!o.migration.active(), "migration.enabled",
                   o.migration.enabled, "unset on a chain of stages");
  }
}

/// Choose the input layout for a run.
std::unique_ptr<pfs::Layout> choose_input_layout(
    const SchemeRunOptions& options, const pfs::FileMeta& meta,
    const std::vector<std::int64_t>& offsets) {
  const std::uint32_t servers = options.cluster.storage_nodes;
  if (options.scheme == Scheme::kDAS && options.pre_distributed) {
    const DistributionPlanner planner(options.distribution);
    if (const auto spec = planner.plan(meta, offsets, servers)) {
      return spec->make_layout();
    }
  }
  return std::make_unique<pfs::RoundRobinLayout>(servers);
}

/// Resource busy fractions over [0, finish], averaged per node class.
void fill_utilization(RunReport& report, Cluster& cluster,
                      sim::SimTime finish) {
  if (finish <= 0) return;
  const double span = sim::to_seconds(finish);
  const std::uint32_t servers = cluster.config().storage_nodes;
  const std::uint32_t clients = cluster.config().compute_nodes;

  double disk = 0.0, nic = 0.0, server_compute = 0.0, client_compute = 0.0;
  for (pfs::ServerIndex s = 0; s < servers; ++s) {
    const net::NodeId node = cluster.storage_node(s);
    disk += sim::to_seconds(cluster.pfs().server(s).disk().busy_time());
    nic += (sim::to_seconds(cluster.network().nic(node).egress_busy()) +
            sim::to_seconds(cluster.network().nic(node).ingress_busy())) /
           2.0;
    server_compute += sim::to_seconds(cluster.engine(node).busy_time());
  }
  for (std::uint32_t c = 0; c < clients; ++c) {
    client_compute +=
        sim::to_seconds(cluster.engine(cluster.compute_node(c)).busy_time());
  }
  report.server_disk_utilization = disk / (span * servers);
  report.server_nic_utilization = nic / (span * servers);
  report.server_compute_utilization = server_compute / (span * servers);
  report.client_compute_utilization = client_compute / (span * clients);
}

LatencyQuantiles quantiles_of(const sim::Histogram& histogram) {
  const sim::HistogramSummary s = histogram.summary();
  return LatencyQuantiles{s.p50, s.p95, s.p99};
}

/// Merge the per-resource wait/service histograms across nodes and surface
/// their quantiles: where a request's time went (NIC queue vs wire vs disk
/// vs compute), over everything the run moved.
void fill_latency_breakdown(RunReport& report, Cluster& cluster) {
  report.net_queue_wait =
      quantiles_of(cluster.network().queue_wait_histogram());
  report.net_wire = quantiles_of(cluster.network().wire_histogram());

  sim::Histogram disk;
  sim::Histogram compute;
  for (pfs::ServerIndex s = 0; s < cluster.config().storage_nodes; ++s) {
    disk.merge(cluster.pfs().server(s).disk().service_histogram());
  }
  for (net::NodeId n = 0; n < cluster.config().total_nodes(); ++n) {
    compute.merge(cluster.engine(n).service_histogram());
  }
  report.disk_service = quantiles_of(disk);
  report.compute_service = quantiles_of(compute);
}

/// Fill the predicted-vs-observed decision audit for a single-stage run.
/// DAS predictions come from the decision the engine actually took; NAS
/// (static offload) is audited against the model's forecast under the
/// file's layout, so the same residuals are comparable across schemes.
void fill_audit(RunReport& report, const SchemeRunOptions& options,
                Cluster& cluster, const pfs::FileMeta& meta,
                const std::vector<std::int64_t>& offsets, pfs::FileId input,
                const Stage& stage, const ActiveStorageClient& asc) {
  DecisionAudit& audit = report.audit;
  audit.valid = true;
  audit.repeats = options.repeat_count;
  const cache::CacheConfig& cache = options.cluster.server_cache;
  const pfs::PrefetchConfig& prefetch_cfg = options.cluster.prefetch;
  audit.cache_capacity_bytes = cache.active() ? cache.capacity_bytes : 0;
  audit.prefetch_depth = prefetch_cfg.active() ? prefetch_cfg.depth : 0;
  const bool prefetching = cache.active() && prefetch_cfg.active();

  // Predicted side.
  switch (options.scheme) {
    case Scheme::kTS:
      audit.action = "static-normal";
      break;
    case Scheme::kNAS: {
      audit.action = "static-offload";
      const PlacementSpec placement =
          PlacementSpec::from_layout(cluster.pfs().layout(input));
      const TrafficForecast forecast =
          forecast_traffic(meta, offsets, placement,
                           stage.kernel->output_bytes(meta.size_bytes));
      audit.predicted_halo_bytes = forecast.active_strip_fetch_bytes;
      if (cache.active()) {
        audit.predicted_cache_hit_rate = predicted_cache_hit_rate(
            forecast, placement, cache.capacity_bytes);
      }
      if (prefetching) {
        audit.predicted_overlap =
            prefetch_overlap_fraction(prefetch_cfg.depth);
      }
      break;
    }
    case Scheme::kDAS: {
      const SubmissionResult& das = stage.submission;
      audit.action = to_string(das.decision.action);
      if (das.offloaded) {
        const TrafficForecast& forecast =
            das.redistributed ? das.decision.target_forecast
                              : das.decision.current_forecast;
        audit.predicted_halo_bytes = forecast.active_strip_fetch_bytes;
        if (prefetching) {
          audit.predicted_overlap =
              prefetch_overlap_fraction(prefetch_cfg.depth);
        }
      }
      audit.predicted_cache_hit_rate = das.decision.predicted_hit_rate;
      break;
    }
  }

  // Observed side. Halo acquisitions = network fetches + cache hits +
  // demand waiters coalesced onto in-flight fetches, averaged per pass.
  const HaloFetchTotals totals = asc.halo_totals();
  const pfs::PrefetchStats prefetch = cluster.pfs().prefetch_stats();
  audit.observed_halo_bytes =
      static_cast<double>(totals.bytes_fetched + totals.cache_hit_bytes +
                          prefetch.coalesced_bytes) /
      static_cast<double>(audit.repeats);

  const std::uint64_t lookups = report.cache_hits + report.cache_misses;
  audit.observed_cache_hit_rate = report.cache_hit_rate();
  if (audit.repeats <= 1 || lookups == 0) {
    audit.observed_warm_cache_hit_rate = audit.observed_cache_hit_rate;
  } else {
    // Steady-state estimate: drop the (necessarily cold) first pass from
    // the denominator and the prefetcher-served hits from the numerator,
    // leaving cross-pass retention — what the prediction models.
    const double warm_lookups =
        static_cast<double>(lookups) -
        static_cast<double>(lookups) / static_cast<double>(audit.repeats);
    const double warm_hits = static_cast<double>(
        report.cache_hits - std::min(report.cache_hits, report.prefetch_hits));
    audit.observed_warm_cache_hit_rate =
        warm_lookups > 0.0 ? std::clamp(warm_hits / warm_lookups, 0.0, 1.0)
                           : 0.0;
  }

  const double overlap_denominator = static_cast<double>(
      totals.strips_fetched + totals.cache_hits + prefetch.coalesced);
  audit.observed_overlap =
      overlap_denominator > 0.0
          ? std::min(1.0, static_cast<double>(report.prefetch_hits +
                                              prefetch.coalesced) /
                              overlap_denominator)
          : 0.0;
}

/// Check each stage's output against the sequential reference chain that
/// starts from the run's own input grid: stage i against kernel_i applied to
/// the reference of stage i-1, for as long as every stage is tile-exact (a
/// non-exact stage's output legitimately diverges from the reference, and
/// so does everything downstream of it).
void verify_outputs(std::vector<Stage>& stages, Cluster& cluster,
                    const WorkloadSpec& workload,
                    std::optional<grid::Grid<float>> reference) {
  if (!reference) return;
  for (Stage& stage : stages) {
    const pfs::FileId output = stage.submission.output;
    if (output == pfs::kInvalidFile || !stage.kernel->tile_exact()) return;
    reference = stage.kernel->run_reference(*reference);
    const grid::Grid<float> produced =
        grid::from_bytes(cluster.pfs().gather_bytes(output),
                         workload.width(), workload.height());
    stage.report.output_max_error = grid::max_abs_diff(produced, *reference);
    stage.report.output_verified = produced == *reference;
  }
}

/// Expand a region list to the whole strips it touches (adjacent strips
/// merge into one run) — the pre-list-I/O fetch shape.
pfs::RegionList expand_to_strips(const pfs::FileMeta& meta,
                                 const pfs::RegionList& regions) {
  std::vector<pfs::Run> runs;
  std::uint64_t prev_strip = UINT64_MAX;
  for (const pfs::StripRun& r : split_by_strip(meta, regions)) {
    if (r.strip == prev_strip) continue;
    prev_strip = r.strip;
    const pfs::StripRef ref = meta.strip(r.strip);
    if (!runs.empty() && runs.back().offset + runs.back().length == ref.offset) {
      runs.back().length += ref.length;
    } else {
      runs.push_back(pfs::Run{ref.offset, ref.length});
    }
  }
  return pfs::RegionList::from_runs(std::move(runs));
}

/// The stage-chain driver behind run_scheme and run_pipeline: one set-up,
/// one stage launcher, one timed simulation, one report fill and one
/// verification. Returns every stage row, then the run's total row (its
/// kernel left for the caller to name when the chain has several).
std::vector<RunReport> drive(const SchemeRunOptions& options,
                             const std::vector<std::string>& kernel_chain) {
  RunReport row;  // what every row of the run shares
  row.scheme = to_string(options.scheme);
  row.data_bytes = options.workload.data_bytes;
  row.storage_nodes = options.cluster.storage_nodes;
  row.compute_nodes = options.cluster.compute_nodes;
  row.data_mode = options.workload.with_data;
  const kernels::KernelRegistry registry = kernels::standard_registry();
  std::vector<Stage> stages(kernel_chain.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    stages[i].kernel = registry.create(kernel_chain[i]);
    stages[i].report = row;
    stages[i].report.kernel = stages[i].kernel->name();
  }
  validate(options, stages);

  Cluster cluster(options.cluster, options.context);
  const WorkloadSpec& workload = options.workload;
  const kernels::ProcessingKernel& first = *stages.front().kernel;
  const pfs::FileMeta meta = workload.make_meta("input");
  const auto offsets = first.features().resolve(meta.raster_width);

  // The input raster is generated once; in data mode it also seeds the
  // verification reference.
  std::optional<grid::Grid<float>> reference;
  pfs::FileId input = pfs::kInvalidFile;
  {
    std::vector<std::byte> data;
    if (workload.with_data) {
      reference = make_input(workload, first);
      data = grid::to_bytes(*reference);
    }
    input = cluster.pfs().create_file(
        meta, choose_input_layout(options, meta, offsets),
        reference ? &data : nullptr);
  }

  // Sparse access: every scheme prices the list request itself (never the
  // whole-strip expansion) for its decision note; TS serves it, each client
  // reading one contiguous share of the runs so per-server batches stay
  // large (strided patterns land on few clients per server).
  const double cost_factor = options.cluster.compute_cost.factor_for(
      first.name(), first.cost_factor());
  std::string list_note;
  std::vector<pfs::RegionList> list_parts;
  if (options.access.active()) {
    const std::uint32_t halo_rows = halo_rows_for(meta, offsets);
    const pfs::RegionList regions =
        build_access_regions(meta, options.access, halo_rows);
    require_option(!regions.empty(), "access", options.access.label(),
                   "a pattern that selects at least one run");
    const std::uint64_t full_output = first.output_bytes(meta.size_bytes);
    list_note = decide_list_access(
                    meta, offsets,
                    list_stats(meta, regions, options.cluster.storage_nodes),
                    options.cluster, options.distribution, cost_factor,
                    full_output,
                    access_output_bytes(meta, options.access, halo_rows,
                                        full_output))
                    .rationale;
    if (options.scheme == Scheme::kTS) {
      const pfs::RegionList served =
          options.whole_strips ? expand_to_strips(meta, regions) : regions;
      const std::size_t runs = served.runs().size();
      const std::uint32_t clients = options.cluster.compute_nodes;
      list_parts.resize(clients);
      for (std::uint32_t c = 0; c < clients; ++c) {
        const std::size_t lo = c * runs / clients;
        const std::size_t hi = (c + 1) * runs / clients;
        if (hi > lo) list_parts[c] = served.subset(lo, hi);
      }
    }
  }

  ActiveStorageClient asc(cluster, registry, options.distribution);

  // Online layout migration (NAS repeated passes): after each pass but the
  // last, the planner tests that pass's halo traffic against the layout's
  // forecast; on a recommendation the migrator re-stripes the input in the
  // background while later passes keep reading it (per-strip frontier
  // resolution in Pfs). At most one migration per run.
  const bool migrating =
      options.migration.active() && options.scheme == Scheme::kNAS;
  MigrationPlanner planner(options.distribution, options.migration);
  pfs::LayoutMigrator migrator(cluster.simulator(), cluster.pfs());
  std::uint32_t passes_done = 0;
  auto migrate_after = [&](const ActiveExecutor& pass) {
    const std::uint32_t passes_left = options.repeat_count - ++passes_done;
    if (passes_left == 0 || migrator.busy() || planner.launched()) return;
    HaloFetchTotals observed;
    observed += pass;
    const std::optional<MigrationPlan> plan = planner.observe(
        cluster.pfs().meta(input), cluster.pfs().layout(input), offsets,
        observed.bytes_fetched + observed.cache_hit_bytes, passes_left);
    if (!plan) return;
    planner.notify_launched();
    pfs::MigrateOptions opt;
    opt.strips_per_round = planner.config().strips_per_round;
    migrator.migrate(input, plan->target.make_layout(), opt, nullptr);
  };

  // Enroll every component's counters with the telemetry plane before any
  // event runs, so the first sample already has the full column set.
  telemetry::Plane* plane =
      options.context != nullptr ? options.context->telemetry : nullptr;
  if (plane != nullptr) {
    cluster.network().enroll(plane->registry());
    for (pfs::ServerIndex s = 0; s < cluster.pfs().num_servers(); ++s) {
      cluster.pfs().server(s).enroll(plane->registry());
    }
    for (std::uint32_t c = 0; c < options.cluster.compute_nodes; ++c) {
      cluster.client(c).enroll(plane->registry());
    }
    if (migrating) migrator.enroll(plane->registry());
    plane->start(cluster.simulator());
  }

  // The stage launcher: stage i runs on `in` and, when its last pass
  // completes, closes its row and launches stage i + 1 on its output.
  std::function<void(std::size_t, pfs::FileId)> launch =
      [&](std::size_t i, pfs::FileId in) {
        Stage& stage = stages[i];
        stage.before = Counters::take(cluster);
        auto done = [&, i]() {
          Stage& st = stages[i];
          st.finish = cluster.simulator().now();
          fill_counters(st.report, cluster, st.before);
          st.report.exec_seconds =
              sim::to_seconds(st.finish) -
              (i == 0 ? sim::to_seconds(options.cluster.job_startup)
                      : sim::to_seconds(stages[i - 1].finish));
          if (i + 1 < stages.size()) launch(i + 1, st.submission.output);
        };
        if (!list_parts.empty()) {
          // One list-I/O pass: client c issues one read_regions over its
          // share, then computes over the rows it fetched (sampled rows +
          // halo); the sampled outputs stay client-side, nothing is written.
          auto start_pass = [&cluster, &list_parts, in, cost_factor](
                                std::function<void()> pass_done) {
            const BarrierPtr barrier =
                make_barrier(as_callback(std::move(pass_done)));
            for (std::uint32_t c = 0; c < list_parts.size(); ++c) {
              if (list_parts[c].empty()) continue;
              barrier->add();
              cluster.client(c).read_regions(
                  in, list_parts[c],
                  [&cluster, &list_parts, barrier, c, cost_factor]() {
                    sim::Simulator& sim = cluster.simulator();
                    const sim::SimTime computed =
                        cluster.engine(cluster.compute_node(c))
                            .execute(sim.now(), list_parts[c].total_bytes(),
                                     cost_factor);
                    sim.schedule_at(
                        computed, [barrier]() { barrier->arrive(); },
                        "list.compute");
                  });
            }
            barrier->seal();
          };
          run_passes(options.repeat_count, start_pass, done);
          return;
        }

        // TS and NAS are DAS with the action fixed: serve normally, or
        // offload onto the current layout.
        ActiveRequest request;
        request.input = in;
        request.kernel_name = stage.kernel->name();
        request.pipeline_length =
            options.pipeline_length +
            static_cast<std::uint32_t>(stages.size() - 1 - i);
        request.repeat_count = options.repeat_count;
        request.data_mode = workload.with_data;
        if (options.scheme != Scheme::kDAS) {
          request.action = options.scheme == Scheme::kNAS
                               ? OffloadAction::kOffload
                               : OffloadAction::kServeNormal;
        }
        if (migrating) request.on_offload_pass = migrate_after;
        stage.submission = asc.submit(request, done);
        stage.report.offloaded = stage.submission.offloaded;
        stage.report.redistributed = stage.submission.redistributed;
        stage.report.redistribution_bytes =
            stage.submission.redistribution_bytes;
        stage.report.decision_note = stage.submission.decision.rationale;
      };

  cluster.simulator().schedule_at(
      options.cluster.job_startup, [&launch, input]() { launch(0, input); },
      "job.start");
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.simulator().run();
  const auto wall_end = std::chrono::steady_clock::now();
  DAS_REQUIRE(stages.back().finish >= 0 && "run did not complete");
  if (plane != nullptr) plane->finish(cluster.simulator().now());
  verify_outputs(stages, cluster, workload, std::move(reference));

  // The total row: a single stage's own row, or the chain's sums.
  RunReport total = stages.front().report;
  if (stages.size() > 1) {
    total = row;
    for (const Stage& stage : stages) {
      total.redistribution_bytes += stage.report.redistribution_bytes;
      total.offloaded = total.offloaded || stage.report.offloaded;
      total.redistributed = total.redistributed || stage.report.redistributed;
    }
  }
  total.exec_seconds = sim::to_seconds(stages.back().finish);
  total.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  // Sampler ticks are observational scaffolding, not workload events; netting
  // them out keeps the reported event count identical with telemetry on/off.
  total.sim_events = cluster.simulator().events_delivered() -
                     (plane != nullptr ? plane->sampler_ticks() : 0);
  if (plane != nullptr) {
    total.spans_finished = plane->spans().spans_finished();
    for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
      total.span_hop_seconds[h] = sim::to_seconds(
          plane->spans().hop_total(static_cast<telemetry::Hop>(h)));
    }
  }
  fill_counters(total, cluster, Counters{});
  fill_utilization(total, cluster, stages.back().finish);
  fill_latency_breakdown(total, cluster);
  total.migrations = migrator.total_migrations();
  total.migration_bytes = migrator.total_bytes_moved();
  if (stages.size() == 1) {
    fill_audit(total, options, cluster, meta, offsets, input, stages.front(),
               asc);
  }
  if (options.access.active()) total.decision_note = list_note;

  std::vector<RunReport> reports;
  for (const Stage& stage : stages) reports.push_back(stage.report);
  reports.push_back(total);
  if (options.context != nullptr) {
    for (RunReport& r : reports) r.session_id = options.context->session;
  }
  return reports;
}

}  // namespace

RunReport run_scheme(const SchemeRunOptions& options) {
  return drive(options, {options.workload.kernel_name}).back();
}

std::vector<RunReport> run_pipeline(
    const SchemeRunOptions& options,
    const std::vector<std::string>& kernel_chain) {
  std::vector<RunReport> reports = drive(options, kernel_chain);
  reports.back().kernel = "pipeline";
  return reports;
}

}  // namespace das::core
