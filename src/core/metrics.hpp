// Per-run result record and report formatting.
//
// A RunReport captures everything the paper's evaluation plots: execution
// time, bytes moved per traffic class, sustained bandwidth, and — in
// correctness mode — whether the distributed output matched the sequential
// reference bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/audit.hpp"

namespace das::core {

/// p50/p95/p99 of one per-request latency component (seconds).
struct LatencyQuantiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

struct RunReport {
  std::string scheme;       // "TS" / "NAS" / "DAS"
  std::string kernel;
  std::uint64_t data_bytes = 0;
  std::uint32_t storage_nodes = 0;
  std::uint32_t compute_nodes = 0;

  double exec_seconds = 0.0;

  /// Host-side cost of producing this report: real (wall-clock) seconds the
  /// simulation took and discrete events it delivered. Diagnostics only —
  /// machine-dependent, so deliberately excluded from to_csv(). Trended
  /// across PRs via the --diag sidecar instead.
  double wall_seconds = 0.0;
  std::uint64_t sim_events = 0;

  /// Run session id (0 when the driver minted none). Stamped into traces,
  /// audits, SLO CSVs, flight records and diag files (not the metrics CSV
  /// or Prometheus sidecars); excluded from to_csv() so the scheme CSV
  /// schema is unchanged.
  std::uint64_t session_id = 0;

  /// Causal-span critical-path attribution: total seconds charged to each
  /// hop across finished request spans, and the span count. All zero unless
  /// the run tracked spans (--spans).
  std::uint64_t spans_finished = 0;
  double span_hop_seconds[7] = {};  // indexed by telemetry::Hop

  std::uint64_t client_server_bytes = 0;
  std::uint64_t server_server_bytes = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t redistribution_bytes = 0;  // subset of server_server_bytes

  bool offloaded = false;
  bool redistributed = false;
  std::string decision_note;

  bool data_mode = false;
  bool output_verified = false;
  double output_max_error = 0.0;

  /// Server-side strip-cache counters, summed over all servers (all zero
  /// when caching is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_hit_bytes = 0;

  /// Halo-prefetcher counters, summed over all servers (all zero when
  /// prefetching is disabled). `prefetch_hits` is the subset of cache_hits
  /// served out of a not-yet-consumed prefetched entry, as opposed to
  /// cross-pass reuse hits.
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_issued_bytes = 0;
  std::uint64_t prefetch_coalesced = 0;
  std::uint64_t prefetch_dropped_stale = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_hit_bytes = 0;

  /// Online layout migrations the run launched, and the one-time bytes they
  /// moved server-to-server (zero unless migration is enabled and fired).
  std::uint64_t migrations = 0;
  std::uint64_t migration_bytes = 0;

  [[nodiscard]] double cache_hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups > 0
               ? static_cast<double>(cache_hits) /
                     static_cast<double>(lookups)
               : 0.0;
  }

  /// Per-request latency breakdown over the whole run: where a byte's
  /// journey spends its time. `net_queue_wait` is time behind earlier
  /// transfers in NIC queues, `net_wire` the serialization + propagation
  /// remainder, `disk_service` and `compute_service` the reserved spans on
  /// those resources (all in seconds, merged across every node).
  LatencyQuantiles net_queue_wait;
  LatencyQuantiles net_wire;
  LatencyQuantiles disk_service;
  LatencyQuantiles compute_service;

  /// Predicted-vs-observed decision audit (valid only when a scheme run
  /// filled it; emitted separately via audit_to_csv, not in to_csv).
  DecisionAudit audit;

  /// Mean busy fraction of each resource class over the whole run (0..1),
  /// averaged across the nodes of that class.
  double server_disk_utilization = 0.0;
  double server_nic_utilization = 0.0;     // mean of egress/ingress halves
  double server_compute_utilization = 0.0;
  double client_compute_utilization = 0.0;

  /// Application-visible sustained bandwidth: input bytes processed per
  /// second of end-to-end execution (the metric of the paper's Fig. 14).
  [[nodiscard]] double sustained_bandwidth_bps() const {
    return exec_seconds > 0.0
               ? static_cast<double>(data_bytes) / exec_seconds
               : 0.0;
  }
};

/// Aligned text table over the given reports.
[[nodiscard]] std::string format_report_table(
    const std::vector<RunReport>& reports);

/// CSV emission (header + one line per report).
[[nodiscard]] std::string report_csv_header();
[[nodiscard]] std::string to_csv(const RunReport& report);

/// "24 GB" / "512 MB" style rendering used in tables.
[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

}  // namespace das::core
