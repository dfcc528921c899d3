// Multi-tenant traffic engine.
//
// Runs an open-loop workload — N tenants submitting strip-read/kernel jobs
// on a precomputed arrival schedule — against one shared simulated cluster,
// with the three contention controls this subsystem exists to study:
// per-tenant admission (token bucket on in-flight bytes), weighted fair
// queueing at the NIC and disk service points, and straggler-aware client
// reads (re-route + hedging). Everything is deterministic: the schedule
// comes from per-tenant RNG substreams, the simulation is single-threaded,
// and the SLO report renders with fixed precision, so one (seed, config)
// pair always produces the same bytes.
//
// A job is the traffic-engine unit of work: read `job_bytes` of strips from
// one dataset (through the straggler scheduler), then, for kernel jobs,
// charge the client's compute engine at the kernel's cost factor. Jobs do
// not run the full TS/active executors — the subsystem measures contention
// between tenants, not kernel semantics, and this keeps 10^4 concurrent
// clients affordable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "traffic/admission.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/fair_queue.hpp"
#include "traffic/straggler.hpp"
#include "traffic/tenant.hpp"

namespace das::traffic {

struct TrafficConfig {
  core::ClusterConfig cluster;
  ArrivalConfig arrivals;
  /// When non-empty, replay this trace file instead of Poisson arrivals.
  std::string trace_file;
  /// Copies of every strip (ReplicatedRoundRobinLayout); >= 2 gives the
  /// straggler scheduler replica holders to re-route/hedge to.
  std::uint32_t replication = 2;
  AdmissionConfig admission;
  /// Weighted fair queueing at every NIC egress and server disk.
  bool fair_queue = false;
  /// Per-tenant WFQ weights, cycled over tenants; empty means all 1.0.
  std::vector<double> weights;
  StragglerConfig straggler;
  /// Sparse list-I/O access (--access=strided:K under traffic mode): jobs
  /// fetch every K-th 4 KiB row unit of each strip through one list request
  /// (StragglerScheduler::read_strip_runs) instead of the whole strip, and
  /// compute over only the fetched bytes. 0 or 1 keeps the whole-strip
  /// reads byte for byte.
  std::uint32_t access_stride = 0;
  /// Run context (logger/tracer); null uses the cluster's private default.
  sim::RunContext* context = nullptr;
};

struct TrafficReport {
  std::vector<TenantStats> tenants;
  TenantStats total;
  double makespan_s = 0.0;
  std::uint64_t events = 0;
  /// Run session id stamped into the SLO CSV (joins traces/audits/metrics).
  std::uint64_t session = 0;
  /// SLO alerts fired by the telemetry plane (0 without one).
  std::uint64_t slo_alerts = 0;
  /// Straggler-scheduler counters (zero when the feature is off).
  std::uint64_t reads_issued = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t hedges_issued = 0;
  std::uint64_t hedges_won = 0;
  std::uint64_t wasted_bytes = 0;
  /// Fair-queue counters (zero when the feature is off).
  std::uint64_t nic_scheduled = 0;
  std::uint64_t disk_scheduled = 0;

  /// Aggregate strip-read latency seen by clients (seconds).
  sim::HistogramSummary read_latency;

  /// Deterministic per-tenant SLO table: slo_csv_header() + one row per
  /// tenant (label = tenant id) + an "all" aggregate row, each stamped with
  /// the session id.
  [[nodiscard]] std::string slo_csv() const;
};

/// Run the configured workload to completion and report per-tenant SLOs.
/// Bad values are rejected first with std::invalid_argument naming the field
/// ("invalid run option <field>=<value> (must be ...)").
[[nodiscard]] TrafficReport run_traffic(const TrafficConfig& config);

}  // namespace das::traffic
