#include "traffic/engine.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "kernels/registry.hpp"
#include "pfs/layout.hpp"
#include "simkit/assert.hpp"
#include "telemetry/plane.hpp"

namespace das::traffic {
namespace {

/// Per-byte compute cost charged at the client for each job kind (raw reads
/// charge nothing). Resolved once from the kernel registry so the traffic
/// engine and the classic executors price a kernel identically.
struct KindCosts {
  double factor[kNumJobKinds] = {};

  KindCosts() {
    const kernels::KernelRegistry registry = kernels::standard_registry();
    factor[static_cast<std::size_t>(JobKind::kRawRead)] = 0.0;
    factor[static_cast<std::size_t>(JobKind::kFlowRouting)] =
        registry.create("flow-routing")->cost_factor();
    factor[static_cast<std::size_t>(JobKind::kGaussian)] =
        registry.create("gaussian-2d")->cost_factor();
    factor[static_cast<std::size_t>(JobKind::kFlowAccumulation)] =
        registry.create("flow-accumulation")->cost_factor();
  }

  [[nodiscard]] double of(JobKind kind) const {
    return factor[static_cast<std::size_t>(kind)];
  }
};

/// Reject, naming the field, every value the engine would otherwise abort
/// on (the DAS_REQUIREs below and in the arrival generator, the fair queue
/// and the Cluster constructor).
void validate(const TrafficConfig& config) {
  core::check_cluster(config.cluster);
  const ArrivalConfig& a = config.arrivals;
  core::require_option(a.tenants > 0, "arrivals.tenants", a.tenants, "> 0");
  core::require_option(a.datasets > 0, "arrivals.datasets", a.datasets, "> 0");
  core::require_option(a.strip_bytes > 0, "arrivals.strip_bytes",
                       a.strip_bytes, "> 0");
  if (config.trace_file.empty()) {  // Poisson arrivals
    core::require_option(a.rate_hz > 0.0, "arrivals.rate_hz", a.rate_hz, "> 0");
    core::require_option(a.job_bytes > 0, "arrivals.job_bytes", a.job_bytes,
                         "> 0");
  }
  const std::uint64_t dataset_bytes = a.dataset_strips * a.strip_bytes;
  core::require_option(a.job_bytes <= dataset_bytes, "arrivals.job_bytes",
                       a.job_bytes,
                       "<= " + std::to_string(dataset_bytes) +
                           ", one dataset's bytes");
  if (config.fair_queue) {
    for (const double weight : config.weights) {
      core::require_option(weight > 0.0, "weights", weight, "> 0");
    }
  }
}

/// One traffic run: owns the cluster, the control-plane state machines and
/// the per-job bookkeeping. Local to run_traffic().
class TrafficEngine {
 public:
  explicit TrafficEngine(const TrafficConfig& config)
      : config_(config),
        cluster_(config.cluster, config.context),
        straggler_(cluster_.simulator(), cluster_.network(), cluster_.pfs(),
                   config.straggler) {
    DAS_REQUIRE(config.arrivals.tenants > 0);
    DAS_REQUIRE(config.arrivals.strip_bytes > 0);
    DAS_REQUIRE(config.arrivals.datasets > 0);
    DAS_REQUIRE(config.cluster.compute_nodes > 0);
    plane_ = config.context != nullptr ? config.context->telemetry : nullptr;
    build_access_template();
    build_datasets();
    build_schedulers();
    build_tenants();
    if (plane_ != nullptr) enroll_instruments();
  }

  TrafficReport run();

 private:
  struct Job {
    JobArrival arrival;
    sim::SimTime admitted_at = 0;
    std::uint64_t strips_left = 0;
    std::uint64_t span = 0;  // causal span minted at submit; 0 untracked
  };

  /// --access=strided:K under traffic: precompute the within-strip run list
  /// once (every dataset strip is full-length, so one template fits all);
  /// each read stamps the strip number into a copy. Empty = whole strips.
  void build_access_template() {
    if (config_.access_stride <= 1) return;
    constexpr std::uint64_t kRowUnit = 4096;
    const std::uint64_t strip = config_.arrivals.strip_bytes;
    const std::uint64_t unit = std::min(kRowUnit, strip);
    const std::uint64_t step = unit * config_.access_stride;
    for (std::uint64_t off = 0; off < strip; off += step) {
      const std::uint64_t len = std::min(unit, strip - off);
      run_template_.push_back(pfs::StripRun{0, off, len});
      strip_payload_ += len;
    }
  }

  void build_datasets() {
    const ArrivalConfig& a = config_.arrivals;
    const std::uint64_t span = std::max<std::uint64_t>(
        1, (a.job_bytes + a.strip_bytes - 1) / a.strip_bytes);
    DAS_REQUIRE(a.dataset_strips >= span);
    for (std::uint32_t d = 0; d < a.datasets; ++d) {
      pfs::FileMeta meta;
      meta.name = "traffic-" + std::to_string(d);
      meta.size_bytes = a.dataset_strips * a.strip_bytes;
      meta.strip_size = a.strip_bytes;
      files_.push_back(cluster_.pfs().create_file(
          std::move(meta),
          std::make_unique<pfs::ReplicatedRoundRobinLayout>(
              cluster_.pfs().num_servers(), config_.replication)));
    }
  }

  void build_schedulers() {
    if (!config_.fair_queue) return;
    nic_wfq_ = std::make_unique<NicFairQueue>(cluster_.simulator(),
                                              cluster_.network());
    disk_wfq_ = std::make_unique<DiskFairQueue>(cluster_.simulator());
    if (!config_.weights.empty()) {
      for (std::uint32_t t = 0; t < config_.arrivals.tenants; ++t) {
        const double w = config_.weights[t % config_.weights.size()];
        nic_wfq_->set_weight(t, w);
        disk_wfq_->set_weight(t, w);
      }
    }
    cluster_.network().set_send_scheduler(nic_wfq_.get());
    for (pfs::ServerIndex s = 0; s < cluster_.pfs().num_servers(); ++s) {
      cluster_.pfs().server(s).set_read_scheduler(disk_wfq_.get());
    }
  }

  void build_tenants() {
    stats_.resize(config_.arrivals.tenants);
    for (std::uint32_t t = 0; t < config_.arrivals.tenants; ++t) {
      buckets_.emplace_back(config_.admission);
    }
  }

  /// Enroll every subsystem's instruments in the run's telemetry plane.
  /// Tenant-labelled series are capped at 32 tenants so huge fleets do not
  /// explode the column count; the cap is logged nowhere because the
  /// aggregate series (net, straggler, servers) still cover every tenant.
  void enroll_instruments() {
    telemetry::Registry& registry = plane_->registry();
    cluster_.network().enroll(registry);
    for (pfs::ServerIndex s = 0; s < cluster_.pfs().num_servers(); ++s) {
      cluster_.pfs().server(s).enroll(registry);
    }
    straggler_.enroll(registry);
    const std::uint32_t tenants =
        std::min<std::uint32_t>(config_.arrivals.tenants, 32);
    for (std::uint32_t t = 0; t < tenants; ++t) {
      const telemetry::Labels labels{telemetry::label("tenant", t)};
      registry.enroll_counter("tenant.jobs_completed", labels,
                              &stats_[t].jobs_completed);
      registry.enroll_counter("tenant.bytes_read", labels,
                              &stats_[t].bytes_read);
      const TokenBucket& bucket = buckets_[t];
      registry.enroll_gauge("admission.inflight_bytes", labels, [&bucket]() {
        return static_cast<double>(bucket.inflight_bytes());
      });
      registry.enroll_gauge("admission.queued", labels, [&bucket]() {
        return static_cast<double>(bucket.queued());
      });
    }
    plane_->enroll_slo_gauges(config_.arrivals.tenants);
  }

  /// Client node a tenant runs on (tenants cycle over the compute nodes).
  [[nodiscard]] net::NodeId client_of(std::uint32_t tenant) const {
    return cluster_.compute_node(tenant %
                                 config_.cluster.compute_nodes);
  }

  void submit(std::uint32_t j) {
    Job& job = jobs_[j];
    const std::uint32_t t = job.arrival.tenant;
    ++stats_[t].jobs_submitted;
    if (plane_ != nullptr) {
      job.span = plane_->spans().begin(t, cluster_.simulator().now(),
                                       client_of(t));
    }
    const bool immediate =
        buckets_[t].submit(job.arrival.bytes, [this, j]() { start(j); });
    if (!immediate) ++stats_[t].jobs_deferred;
  }

  void start(std::uint32_t j) {
    Job& job = jobs_[j];
    const std::uint32_t t = job.arrival.tenant;
    job.admitted_at = cluster_.simulator().now();
    stats_[t].admission_wait.record(
        sim::to_seconds(job.admitted_at - job.arrival.at));
    if (plane_ != nullptr) {
      plane_->spans().add(job.span, telemetry::Hop::kAdmission,
                          job.admitted_at - job.arrival.at);
    }
    job.strips_left = job.arrival.bytes / config_.arrivals.strip_bytes;
    DAS_REQUIRE(job.strips_left > 0);
    const pfs::FileId file = files_[job.arrival.dataset];
    const net::NodeId client = client_of(t);
    for (std::uint64_t s = 0; s < job.strips_left; ++s) {
      if (run_template_.empty()) {
        straggler_.read_strip(client, t, file, job.arrival.first_strip + s,
                              [this, j]() { strip_done(j); }, job.span);
      } else {
        std::vector<pfs::StripRun> runs = run_template_;
        for (pfs::StripRun& r : runs) r.strip = job.arrival.first_strip + s;
        straggler_.read_strip_runs(client, t, file, std::move(runs),
                                   [this, j]() { strip_done(j); }, job.span);
      }
    }
  }

  /// Bytes a job actually fetches (and computes over): the whole job under
  /// whole-strip reads, only the sampled runs under list-I/O access.
  [[nodiscard]] std::uint64_t job_payload(const Job& job) const {
    if (run_template_.empty()) return job.arrival.bytes;
    return job.arrival.bytes / config_.arrivals.strip_bytes * strip_payload_;
  }

  void strip_done(std::uint32_t j) {
    Job& job = jobs_[j];
    DAS_REQUIRE(job.strips_left > 0);
    if (--job.strips_left > 0) return;
    const double cost = costs_.of(job.arrival.kind);
    if (cost <= 0.0) {
      finish(j);
      return;
    }
    // Kernel jobs process the bytes on the client; the engine is a serial
    // per-node resource, so co-located tenants contend here too.
    sim::Simulator& sim = cluster_.simulator();
    const sim::SimTime done_at =
        cluster_.engine(client_of(job.arrival.tenant))
            .execute(sim.now(), job_payload(job), cost);
    if (plane_ != nullptr) {
      plane_->spans().add(job.span, telemetry::Hop::kCompute,
                          done_at - sim.now());
    }
    sim.schedule_at(done_at, [this, j]() { finish(j); }, "traffic.compute");
  }

  void finish(std::uint32_t j) {
    Job& job = jobs_[j];
    const std::uint32_t t = job.arrival.tenant;
    const sim::SimTime now = cluster_.simulator().now();
    TenantStats& stats = stats_[t];
    ++stats.jobs_completed;
    stats.bytes_read += job_payload(job);
    stats.sojourn.record(sim::to_seconds(now - job.arrival.at));
    stats.service.record(sim::to_seconds(now - job.admitted_at));
    last_finish_ = std::max(last_finish_, now);
    if (plane_ != nullptr) {
      plane_->spans().end(job.span, now, client_of(t));
      plane_->slo().record(t, now, sim::to_seconds(now - job.arrival.at));
    }
    buckets_[t].release(job.arrival.bytes);
  }

  TrafficConfig config_;
  core::Cluster cluster_;
  StragglerScheduler straggler_;
  KindCosts costs_;
  std::vector<pfs::FileId> files_;
  std::vector<TenantStats> stats_;
  std::deque<TokenBucket> buckets_;
  std::unique_ptr<NicFairQueue> nic_wfq_;
  std::unique_ptr<DiskFairQueue> disk_wfq_;
  std::vector<Job> jobs_;
  /// Within-strip run template for list-I/O access (empty = whole strips)
  /// and the payload bytes one strip's runs carry.
  std::vector<pfs::StripRun> run_template_;
  std::uint64_t strip_payload_ = 0;
  sim::SimTime last_finish_ = 0;
  telemetry::Plane* plane_ = nullptr;
};

TrafficReport TrafficEngine::run() {
  const std::vector<JobArrival> schedule =
      config_.trace_file.empty()
          ? generate_poisson(config_.arrivals)
          : load_trace(config_.trace_file, config_.arrivals);

  jobs_.reserve(schedule.size());
  for (const JobArrival& arrival : schedule) {
    jobs_.push_back(Job{arrival, 0, 0});
  }
  sim::Simulator& sim = cluster_.simulator();
  for (std::uint32_t j = 0; j < jobs_.size(); ++j) {
    sim.schedule_at(jobs_[j].arrival.at, [this, j]() { submit(j); },
                    "traffic.arrival");
  }
  if (plane_ != nullptr) plane_->start(sim);
  sim.run();
  if (plane_ != nullptr) plane_->finish(sim.now());

  TrafficReport report;
  report.tenants = stats_;
  for (const TenantStats& s : stats_) report.total.merge(s);
  DAS_REQUIRE(report.total.jobs_completed == jobs_.size());
  report.makespan_s = sim::to_seconds(last_finish_);
  // Sampler ticks are observability events, not simulated work: subtract
  // them so the reported event count is identical with telemetry on or off.
  report.events = sim.events_delivered() -
                  (plane_ != nullptr ? plane_->sampler_ticks() : 0);
  if (config_.context != nullptr) report.session = config_.context->session;
  if (plane_ != nullptr) {
    report.slo_alerts = plane_->slo().alerts_fired();
  }
  report.reads_issued = straggler_.reads_issued();
  report.reroutes = straggler_.reroutes();
  report.hedges_issued = straggler_.hedges_issued();
  report.hedges_won = straggler_.hedges_won();
  report.wasted_bytes = straggler_.wasted_bytes();
  if (nic_wfq_) report.nic_scheduled = nic_wfq_->messages_scheduled();
  if (disk_wfq_) report.disk_scheduled = disk_wfq_->reads_scheduled();
  report.read_latency = straggler_.latency_histogram().summary();
  return report;
}

}  // namespace

std::string TrafficReport::slo_csv() const {
  std::string csv = slo_csv_header();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    csv += slo_csv_row(std::to_string(t), tenants[t], session);
  }
  csv += slo_csv_row("all", total, session);
  return csv;
}

TrafficReport run_traffic(const TrafficConfig& config) {
  validate(config);
  TrafficEngine engine(config);
  return engine.run();
}

}  // namespace das::traffic
