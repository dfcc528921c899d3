// das_sim — command-line driver for the simulator.
//
// Runs any (scheme, kernel, size, cluster) combination with full control
// over the model parameters, optionally repeating trials under disk jitter
// and reporting mean +- stddev, and optionally emitting CSV for plotting.
//
//   das_sim [--scheme=all|TS|NAS|DAS] [--kernel=all|<name>]
//           [--gib=24] [--nodes=24] [--trials=1] [--csv] [--jobs=1]
//           [--strip-kib=1024] [--group=16] [--budget-pct=25]
//           [--pipeline=1] [--window=4] [--pre-distributed=true] [--repeats=1]
//           [--cache-mib=0] [--cache-policy=lru]
//           [--prefetch=on|off] [--prefetch-depth=0]
//           [--migrate=off] [--migrate-threshold=4.0]
//           [--nic-mibps=110] [--disk-mibps=700] [--compute-mibps=450]
//           [--startup-s=12] [--jitter-pct=0] [--stragglers=0] [--slowdown=1]
//           [--trace=FILE] [--audit=FILE] [--log-level=LEVEL]
//           [--tenants=1] [--arrival-rate=1.0] [--tenant-jobs=8]
//           [--job-mib=16] [--datasets=1] [--replicas=2]
//           [--admission-mib=0] [--fair-queue=off] [--weights=1,...]
//           [--hedge=off] [--reroute=off] [--trace-file=FILE] [--slo=FILE]
//           [--metrics=FILE] [--metrics-prom=FILE] [--metrics-period-ms=50]
//           [--spans=off] [--flight-record=FILE] [--diag=FILE]
//           [--slo-target-ms=0] [--slo-budget=0.01] [--slo-window-s=1]
//           [--kernel-isa=auto|scalar|sse2|avx2] [--calibrate-kernels]
//           [--kernel-cost=NAME:FACTOR,...]
//           [--access=strided:K|column|trace:FILE] [--span-sample=N]
//   das_sim --figure=all|table1|fig10..fig14|a1..a9|e1..e4 [--jobs=1]
//
// --figure runs the paper-experiment registry (src/runner/experiments.hpp)
// and prints the chosen table or figure's series, report table and shape
// checks; it exits 1 if a shape check fails. It takes --jobs and no other
// flag.
//
// Sparse access (--access, src/core/list_access.hpp): instead of the full
// raster sweep, read only every K-th row (strided:K), the middle column
// (column), or the "offset length" runs of a trace file — each fetched run
// padded with the kernel's stencil halo — through the list-I/O request
// plane (pfs/region.hpp, DESIGN §15). TS then moves only runs + list
// headers over the wire (client_server_bytes is the bytes-moved metric);
// NAS/DAS still sweep the whole file (active storage computes every output)
// and the table gains one "list-io ..." pricing line per row showing which
// side the decision engine took. --access is semantic and joins the session
// id only when given. Under traffic mode, --access=strided:K makes every
// job fetch each strip's every-K-th 4 KiB row unit as one list request.
//
// --compute-mibps=auto runs the kernel calibration sweep once at startup
// and feeds the measured anchor rate plus per-kernel cost factors into the
// cluster (explicit --kernel-cost entries still win); the session id hashes
// the *resolved* values, so runs calibrated on different machines do not
// collide. --span-sample=N tracks 1 of every N request spans, chosen by a
// deterministic hash of the span mint counter (the same subset for any
// --jobs); multiply span hop totals by N to estimate whole-run attribution.
// The flag implies --spans and, being observational, never joins the
// session id.
//
// Vectorized kernel engine (src/kernels/simd.hpp): --kernel-isa pins the
// data-mode kernels to a narrower instruction set than the CPU supports
// (auto = widest detected; requesting an unsupported ISA is an error). Every
// ISA produces bit-identical outputs, so the flag changes wall-clock time
// only and is excluded from the session id. --calibrate-kernels measures the
// kernels' real cells/sec on this machine under the active ISA, prints the
// recommended --compute-mibps and --kernel-cost values, and exits.
// --kernel-cost overrides the per-kernel compute cost factors the simulated
// compute engines charge (unlisted kernels keep their built-in guess); it is
// semantic and joins the session id only when given.
//
// --jobs=N runs the sweep's independent (kernel, scheme, trial) cells, or
// the --figure experiments' cells, on N worker threads; --jobs=0 means one
// worker per hardware thread (runner::default_jobs()). Every cell
// simulates in its own run context, and all output is printed after the
// sweep in cell order, so stdout, CSV, trace and audit files are
// byte-identical for any N.
//
// Traffic mode (multi-tenant open-loop workload, src/traffic/) engages when
// --tenants > 1, a --trace-file is given, or any traffic feature
// (--admission-mib/--fair-queue/--hedge/--reroute) is enabled. N tenants
// then submit Poisson (--arrival-rate jobs/s each, --tenant-jobs each,
// --job-mib per job) or trace-replayed jobs against one shared cluster, and
// the per-tenant SLO table (p50/p95/p99 sojourn/service) goes to --slo=FILE
// or stdout. --tenants=1 with every feature off deliberately routes through
// the classic sweep path above, so the single-tenant system is byte-for-byte
// the pre-traffic simulator (like --prefetch=off).
// --trace=FILE writes a Chrome trace-event / Perfetto-loadable JSON
// timeline of every NIC, disk, compute, cache and prefetch event. Multiple
// runs in one invocation merge into one buffer and each restarts simulated
// time at zero, so the flag is most useful with a single
// scheme/kernel/trial. --audit=FILE writes one predicted-vs-observed
// decision-audit CSV row per run.
// --log-level=trace|debug|info|warn|error|off sets every run's logger.
//
// Telemetry plane (src/telemetry/): --metrics samples every enrolled counter
// /gauge/histogram into a columnar CSV time series, --metrics-prom writes a
// Prometheus text exposition of the final values, --spans tracks causal
// request spans (per-hop critical-path attribution in the report table),
// --slo-target-ms arms the per-tenant burn-rate monitor, and
// --flight-record dumps the span flight-recorder ring captured at each SLO
// alert. --diag writes a small JSON sidecar (wall seconds, event count) for
// CI trending. The trace, audit, SLO table, flight record and diag file
// are stamped with one session id hashed from the run's semantic
// configuration (never --jobs, output paths, or the telemetry flags
// themselves), so they join on one key; the --metrics and --metrics-prom
// sidecars carry no session id. With every telemetry flag off, outputs are
// byte-identical to a binary that never heard of them.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/scheme.hpp"
#include "kernels/calibrate.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "runner/args.hpp"
#include "runner/experiments.hpp"
#include "runner/paper.hpp"
#include "runner/sweep.hpp"
#include "simkit/context.hpp"
#include "simkit/log.hpp"
#include "simkit/trace.hpp"
#include "telemetry/plane.hpp"
#include "traffic/engine.hpp"

namespace {

std::vector<das::core::Scheme> parse_schemes(const std::string& arg) {
  using das::core::Scheme;
  if (arg == "all") return {Scheme::kNAS, Scheme::kDAS, Scheme::kTS};
  if (arg == "TS" || arg == "ts") return {Scheme::kTS};
  if (arg == "NAS" || arg == "nas") return {Scheme::kNAS};
  if (arg == "DAS" || arg == "das") return {Scheme::kDAS};
  throw std::invalid_argument("unknown scheme: " + arg);
}

std::vector<std::string> parse_kernels(const std::string& arg) {
  const auto registry = das::kernels::standard_registry();
  if (arg == "all") return registry.names();
  if (!registry.contains(arg)) {
    throw std::invalid_argument("unknown kernel: " + arg);
  }
  return {arg};
}

/// Parse --kernel-cost="name:factor,name:factor,..." into the cost model.
das::core::ComputeCostModel parse_kernel_cost(const std::string& arg) {
  das::core::ComputeCostModel model;
  if (arg.empty()) return model;
  const auto registry = das::kernels::standard_registry();
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = std::min(arg.find(',', pos), arg.size());
    const std::string entry = arg.substr(pos, comma - pos);
    const std::size_t colon = entry.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      throw std::invalid_argument(
          "bad --kernel-cost entry (want name:factor): " + entry);
    }
    const std::string name = entry.substr(0, colon);
    if (!registry.contains(name)) {
      throw std::invalid_argument("unknown kernel in --kernel-cost: " + name);
    }
    std::size_t used = 0;
    double factor = 0.0;
    try {
      factor = std::stod(entry.substr(colon + 1), &used);
    } catch (const std::exception&) {
      used = 0;  // non-numeric: fall through to the contextual error below
    }
    if (used != entry.size() - colon - 1 || !(factor > 0.0)) {
      throw std::invalid_argument("bad --kernel-cost factor for " + name +
                                  ": " + entry.substr(colon + 1));
    }
    model.kernel_cost_factor[name] = factor;
    pos = comma + 1;
  }
  return model;
}

/// Parse --weights="w,w,...": every entry must parse in full as a number
/// (range checks are run_traffic's).
std::vector<double> parse_weights(const std::string& arg) {
  std::vector<double> weights;
  for (std::size_t pos = 0; pos < arg.size();) {
    const std::size_t comma = std::min(arg.find(',', pos), arg.size());
    const std::string entry = arg.substr(pos, comma - pos);
    std::size_t used = 0;
    double weight = 0.0;
    try {
      weight = std::stod(entry, &used);
    } catch (const std::exception&) {
      used = 0;  // non-numeric: fall through to the error below
    }
    if (entry.empty() || used != entry.size()) {
      throw std::invalid_argument("--weights=" + arg +
                                  ": must be comma-separated numbers");
    }
    weights.push_back(weight);
    pos = comma + 1;
  }
  return weights;
}

/// Throw unless `ok`, naming the flag and the value it was given.
void check_flag(bool ok, const std::string& flag, std::int64_t value,
                const char* rule) {
  if (!ok) {
    throw std::invalid_argument("--" + flag + "=" + std::to_string(value) +
                                ": must be " + rule);
  }
}

/// A count or size flag: negative values are rejected instead of wrapping.
std::uint64_t get_unsigned(const das::runner::Args& args,
                           const std::string& flag, std::int64_t fallback) {
  const std::int64_t value = args.get_int(flag, fallback);
  check_flag(value >= 0, flag, value, ">= 0");
  return static_cast<std::uint64_t>(value);
}

/// A count flag held in 32 bits: values that do not fit are rejected
/// instead of truncating.
std::uint32_t get_count(const das::runner::Args& args,
                        const std::string& flag, std::int64_t fallback) {
  const std::uint64_t value = get_unsigned(args, flag, fallback);
  check_flag(value <= UINT32_MAX, flag, static_cast<std::int64_t>(value),
             "<= 4294967295");
  return static_cast<std::uint32_t>(value);
}

/// A size flag in units of 2^shift bytes, returned in bytes: values whose
/// byte count does not fit 64 bits are rejected instead of wrapping.
std::uint64_t get_bytes(const das::runner::Args& args,
                        const std::string& flag, std::int64_t fallback,
                        unsigned shift) {
  const std::uint64_t value = get_unsigned(args, flag, fallback);
  const std::uint64_t limit = UINT64_MAX >> shift;
  check_flag(value <= limit, flag, static_cast<std::int64_t>(value),
             ("<= " + std::to_string(limit) + " (bytes must fit 64 bits)")
                 .c_str());
  return value << shift;
}

/// The flag that sets a run option the driver's validate() (or
/// run_traffic) rejected, so the error names what was typed; null for any
/// other error.
const char* flag_of_rejected_option(const std::string& message) {
  constexpr std::string_view kPrefix = "invalid run option ";
  static const std::pair<const char*, const char*> kFlags[] = {
      {"workload.data_bytes=", "--gib"},
      {"cluster.nic_bandwidth_bps=", "--nic-mibps"},
      {"cluster.disk_bandwidth_bps=", "--disk-mibps"},
      {"cluster.compute_rate_bps=", "--compute-mibps"},
      {"cluster.job_startup=", "--startup-s"},
      {"cluster.disk_jitter=", "--jitter-pct"},
      {"cluster.pipeline_window=", "--window"},
      {"cluster.straggler_count=", "--stragglers"},
      {"cluster.straggler_slowdown=", "--slowdown"},
      {"pipeline_length=", "--pipeline"},
      {"repeat_count=", "--repeats"},
      {"arrivals.tenants=", "--tenants"},
      {"arrivals.rate_hz=", "--arrival-rate"},
      {"arrivals.job_bytes=", "--job-mib"},
      {"arrivals.datasets=", "--datasets"},
      {"weights=", "--weights"}};
  if (!message.starts_with(kPrefix)) return nullptr;
  const std::string_view field =
      std::string_view(message).substr(kPrefix.size());
  for (const auto& [option, flag] : kFlags) {
    if (field.starts_with(option)) return flag;
  }
  return nullptr;
}

/// Canonical configuration string the session id is hashed from: every flag
/// that shapes simulated behaviour, in fixed order, as given on the command
/// line (absent flags contribute their empty default). Worker count, output
/// file paths, and the telemetry switches are deliberately excluded, so one
/// experiment keeps one session id across --jobs settings and across
/// telemetry on/off reruns.
std::string canonical_config(const das::runner::Args& args) {
  static const char* const kSemantic[] = {
      "scheme",        "kernel",          "gib",
      "nodes",         "trials",          "strip-kib",
      "nic-mibps",     "disk-mibps",      "compute-mibps",
      "startup-s",     "jitter-pct",      "stragglers",
      "slowdown",      "group",           "budget-pct",
      "pipeline",      "window",          "pre-distributed",
      "repeats",       "cache-mib",       "cache-policy",
      "prefetch",      "prefetch-depth",  "migrate",
      "migrate-threshold", "tenants",     "tenant-jobs",
      "arrival-rate",  "job-mib",         "datasets",
      "replicas",      "admission-mib",   "fair-queue",
      "weights",       "hedge",           "reroute",
      "trace-file"};
  std::string out;
  for (const char* name : kSemantic) {
    out += name;
    out += '=';
    out += args.get(name, "");
    out += ';';
  }
  // Appended only when given, so every pre-existing configuration keeps the
  // session id it had before the flag existed. (--kernel-isa is deliberately
  // absent: all ISAs produce bit-identical outputs; --span-sample is absent
  // because sampling is observational — it changes which spans are tracked,
  // never the simulated byte flows.)
  if (const std::string kc = args.get("kernel-cost", ""); !kc.empty()) {
    out += "kernel-cost=";
    out += kc;
    out += ';';
  }
  if (const std::string ac = args.get("access", ""); !ac.empty()) {
    out += "access=";
    out += ac;
    out += ';';
  }
  return out;
}

void write_file(const std::string& path, const std::string& content,
                const char* what) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    throw std::runtime_error(std::string("cannot write ") + what + " file: " +
                             path);
  }
  out << content;
}

/// The --diag sidecar: host-side run cost for CI trending, keyed by session.
std::string diag_json(std::uint64_t session, double wall_seconds,
                      std::uint64_t sim_events) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"session\": \"%s\", \"wall_seconds\": %.6f, "
                "\"sim_events\": %llu}\n",
                das::telemetry::session_hex(session).c_str(), wall_seconds,
                static_cast<unsigned long long>(sim_events));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using das::core::RunReport;

  try {
    const das::runner::Args args(argc, argv);
    const auto reject_unused = [&args] {
      if (const std::string u = args.unused(); !u.empty()) {
        std::cerr << "unknown flags: " << u << "\n";
        return true;
      }
      return false;
    };
    const auto get_jobs = [&args] {
      const unsigned jobs = get_count(args, "jobs", 1);
      return jobs == 0 ? das::runner::default_jobs() : jobs;
    };

    // The paper-experiment registry takes --jobs and nothing else.
    if (args.has("figure")) {
      const std::string figure = args.get("figure", "");
      const unsigned jobs = get_jobs();
      if (reject_unused()) return 2;
      const auto output = das::runner::run_experiments(figure, jobs);
      std::fputs(output.text.c_str(), stdout);
      return output.all_hold ? 0 : 1;
    }

    // ISA pinning first: it also governs --calibrate-kernels below.
    if (const std::string isa = args.get("kernel-isa", "");
        !isa.empty() && isa != "auto") {
      const auto parsed = das::kernels::simd::isa_from_string(isa);
      if (!parsed) {
        throw std::invalid_argument("unknown --kernel-isa: " + isa +
                                    " (want auto, scalar, sse2 or avx2)");
      }
      das::kernels::simd::set_isa_override(*parsed);
    }
    if (args.get_bool("calibrate-kernels", false)) {
      const auto report = das::kernels::calibrate_kernels();
      std::fputs(report.format().c_str(), stdout);
      return 0;
    }

    const auto schemes = parse_schemes(args.get("scheme", "all"));
    const auto kernels = parse_kernels(args.get("kernel", "flow-routing"));
    const std::uint64_t data_bytes = get_bytes(args, "gib", 24, 30);
    const std::uint32_t nodes = get_count(args, "nodes", 24);
    check_flag(nodes >= 2 && nodes % 2 == 0, "nodes", nodes,
               "even and >= 2 (half storage, half compute nodes)");
    const std::uint32_t trials = get_count(args, "trials", 1);
    check_flag(trials >= 1, "trials", trials, ">= 1");
    const bool csv = args.get_bool("csv", false);

    das::core::SchemeRunOptions base;
    base.workload.data_bytes = data_bytes;
    base.workload.strip_size = get_bytes(args, "strip-kib", 1024, 10);
    check_flag(base.workload.strip_size > 0, "strip-kib", 0, "> 0");
    base.workload.raster_width = static_cast<std::uint32_t>(
        base.workload.strip_size / base.workload.element_size - 1);
    base.cluster = das::runner::paper_cluster(nodes);
    base.cluster.nic_bandwidth_bps =
        static_cast<double>(args.get_int("nic-mibps", 110)) * 1024 * 1024;
    base.cluster.disk_bandwidth_bps =
        static_cast<double>(args.get_int("disk-mibps", 700)) * 1024 * 1024;
    // --compute-mibps=auto runs the kernel calibration sweep once and feeds
    // the measured anchor rate (and, below, the measured per-kernel cost
    // factors) into the cluster, so the scheme decisions rest on this
    // machine's real compute throughput. The resolved values join the
    // session id (see below): two hosts calibrating differently are two
    // different experiments.
    std::optional<das::kernels::CalibrationReport> calibrated;
    if (args.get("compute-mibps", "") == "auto") {
      calibrated = das::kernels::calibrate_kernels();
      base.cluster.compute_rate_bps = calibrated->anchor_mibps * 1024 * 1024;
    } else {
      base.cluster.compute_rate_bps =
          static_cast<double>(args.get_int("compute-mibps", 450)) * 1024 *
          1024;
    }
    base.cluster.job_startup =
        das::sim::seconds(args.get_int("startup-s", 12));
    base.cluster.disk_jitter = args.get_double("jitter-pct", 0) / 100.0;
    base.cluster.straggler_count = get_count(args, "stragglers", 0);
    base.cluster.straggler_slowdown = args.get_double("slowdown", 1);
    base.distribution.group_size = get_unsigned(args, "group", 16);
    check_flag(base.distribution.group_size >= 1, "group", 0, ">= 1");
    const std::int64_t budget_pct = args.get_int("budget-pct", 25);
    check_flag(budget_pct >= 0, "budget-pct", budget_pct,
               ">= 0 (0 sets no capacity bound)");
    base.distribution.max_capacity_overhead =
        static_cast<double>(budget_pct) / 100.0;
    base.pipeline_length = get_count(args, "pipeline", 1);
    base.cluster.pipeline_window =
        get_count(args, "window", base.cluster.pipeline_window);
    base.pre_distributed = args.get_bool("pre-distributed", true);
    base.repeat_count = get_count(args, "repeats", 1);
    // Server-side strip cache: off unless a capacity is given.
    const std::uint64_t cache_bytes = get_bytes(args, "cache-mib", 0, 20);
    base.cluster.server_cache.enabled = cache_bytes > 0;
    base.cluster.server_cache.capacity_bytes = cache_bytes;
    base.cluster.server_cache.policy = args.get("cache-policy", "lru");
    // Halo prefetch: off unless a depth is given; --prefetch=off forces the
    // PR-1 demand-fetch path bit for bit regardless of depth.
    const bool prefetch_on = args.get_bool("prefetch", true);
    const std::uint32_t prefetch_depth = get_count(args, "prefetch-depth", 0);
    base.cluster.prefetch.enabled = prefetch_on && prefetch_depth > 0;
    base.cluster.prefetch.depth = prefetch_depth;
    if (base.cluster.prefetch.active() &&
        !base.cluster.server_cache.active()) {
      throw std::invalid_argument(
          "--prefetch-depth requires --cache-mib > 0 (prefetched strips land "
          "in the server strip cache)");
    }
    // Online layout migration (NAS repeated passes): off by default, so the
    // classic byte flows reproduce the migration-free system exactly.
    base.migration.enabled = args.get_bool("migrate", false);
    base.migration.divergence_threshold =
        args.get_double("migrate-threshold",
                        base.migration.divergence_threshold);
    // Calibrated per-kernel compute cost factors (--calibrate-kernels
    // prints a ready-made value). Empty = kernel defaults, bit for bit.
    // Under --compute-mibps=auto the calibration's factors fill in every
    // kernel an explicit --kernel-cost entry did not pin.
    base.cluster.compute_cost = parse_kernel_cost(args.get("kernel-cost", ""));
    if (calibrated) {
      for (const auto& k : calibrated->kernels) {
        base.cluster.compute_cost.kernel_cost_factor.try_emplace(
            k.name, k.cost_factor);
      }
    }
    const std::string trace_path = args.get("trace", "");
    const std::string audit_path = args.get("audit", "");
    std::optional<das::sim::LogLevel> log_level;
    if (const std::string level = args.get("log-level", ""); !level.empty()) {
      log_level = das::sim::log_level_from_string(level);
      if (!log_level) {
        throw std::invalid_argument("unknown --log-level: " + level);
      }
    }
    const unsigned jobs = get_jobs();

    // Sparse list-I/O access (--access=strided:K|column|trace:FILE): in the
    // classic sweep a run option like any other (TS fetches only the runs,
    // other schemes price the list but sweep in full); traffic mode
    // supports the strided pattern on every job's strip reads.
    das::core::AccessSpec& access = base.access;
    if (const std::string a = args.get("access", ""); !a.empty()) {
      access = das::core::AccessSpec::parse(a);
    }

    // Traffic mode (see header comment). All its flags are parsed here —
    // before the unknown-flag check — whether or not the mode engages.
    das::traffic::TrafficConfig traffic;
    traffic.cluster = base.cluster;
    traffic.arrivals.tenants = get_count(args, "tenants", 1);
    check_flag(traffic.arrivals.tenants >= 1, "tenants",
               traffic.arrivals.tenants, ">= 1");
    traffic.arrivals.jobs_per_tenant = get_count(args, "tenant-jobs", 8);
    traffic.arrivals.rate_hz = args.get_double("arrival-rate", 1.0);
    traffic.arrivals.job_bytes = get_bytes(args, "job-mib", 16, 20);
    traffic.arrivals.strip_bytes = base.workload.strip_size;
    traffic.arrivals.datasets = get_count(args, "datasets", 1);
    traffic.arrivals.dataset_strips = std::max<std::uint64_t>(
        1, data_bytes / base.workload.strip_size /
               std::max(1u, traffic.arrivals.datasets));
    traffic.arrivals.seed = base.cluster.seed;
    traffic.trace_file = args.get("trace-file", "");
    traffic.replication = get_count(args, "replicas", 2);
    check_flag(traffic.replication >= 1, "replicas", traffic.replication,
               ">= 1");
    const std::uint64_t admission_bytes =
        get_bytes(args, "admission-mib", 0, 20);
    traffic.admission.enabled = admission_bytes > 0;
    traffic.admission.capacity_bytes = admission_bytes;
    traffic.fair_queue = args.get_bool("fair-queue", false);
    if (const std::string w = args.get("weights", ""); !w.empty()) {
      traffic.weights = parse_weights(w);
    }
    traffic.straggler.hedge = args.get_bool("hedge", false);
    traffic.straggler.reroute = args.get_bool("reroute", false);
    if (access.mode == das::core::AccessSpec::Mode::kStrided) {
      traffic.access_stride = access.stride;
    }
    const std::string slo_path = args.get("slo", "");
    const bool traffic_mode =
        traffic.arrivals.tenants > 1 || !traffic.trace_file.empty() ||
        traffic.admission.enabled || traffic.fair_queue ||
        traffic.straggler.active();

    // Telemetry plane flags (see header comment). The session id is minted
    // unconditionally: every run stamps its SLO/audit rows and traces so
    // artifacts join even when no telemetry output file was requested.
    const std::string metrics_path = args.get("metrics", "");
    const std::string metrics_prom_path = args.get("metrics-prom", "");
    const auto metrics_period_ms = args.get_int("metrics-period-ms", 50);
    if (metrics_period_ms <= 0) {
      throw std::invalid_argument("--metrics-period-ms must be > 0");
    }
    const bool spans_on = args.get_bool("spans", false);
    // --span-sample=N tracks 1-in-N requests (deterministic hash of the
    // span mint counter, so the subset is stable across --jobs); hop totals
    // then represent ~1/N of the traffic. Giving the flag implies --spans.
    const std::uint32_t span_sample = get_count(args, "span-sample", 1);
    check_flag(span_sample >= 1, "span-sample", span_sample, ">= 1");
    const std::string flight_path = args.get("flight-record", "");
    const double slo_target_ms = args.get_double("slo-target-ms", 0.0);
    const std::string diag_path = args.get("diag", "");
    das::telemetry::PlaneConfig plane_cfg;
    plane_cfg.metrics = !metrics_path.empty() || !metrics_prom_path.empty();
    plane_cfg.prometheus = !metrics_prom_path.empty();
    plane_cfg.spans = spans_on || !flight_path.empty() || span_sample > 1;
    plane_cfg.span_sample = span_sample;
    plane_cfg.sample_period = das::sim::milliseconds(metrics_period_ms);
    plane_cfg.slo.target_s = slo_target_ms / 1000.0;
    plane_cfg.slo.budget = args.get_double("slo-budget", 0.01);
    plane_cfg.slo.window_s = args.get_double("slo-window-s", 1.0);
    const bool plane_active = plane_cfg.metrics || plane_cfg.spans ||
                              plane_cfg.slo.target_s > 0.0;
    std::unique_ptr<das::telemetry::Plane> plane;
    if (plane_active) {
      plane = std::make_unique<das::telemetry::Plane>(plane_cfg);
    }
    // --compute-mibps=auto resolves to machine-measured rates, so the
    // session id must record what was actually simulated, not the word
    // "auto": the resolved values are appended to the canonical string.
    std::string canonical = canonical_config(args);
    if (calibrated) {
      char resolved[64];
      std::snprintf(resolved, sizeof resolved,
                    "resolved-compute-mibps=%.1f;", calibrated->anchor_mibps);
      canonical += resolved;
      canonical +=
          "resolved-kernel-cost=" + calibrated->kernel_cost_flag() + ';';
    }
    const std::uint64_t session = das::telemetry::session_hash(canonical);
    const std::string session_hex = das::telemetry::session_hex(session);

    if (reject_unused()) return 2;

    if (traffic_mode) {
      if (access.active() &&
          access.mode != das::core::AccessSpec::Mode::kStrided) {
        throw std::invalid_argument(
            "traffic mode supports --access=strided:K only (column and "
            "trace patterns need the classic sweep's raster geometry)");
      }
      das::sim::RunContext context;
      if (!trace_path.empty()) context.tracer.enable();
      if (log_level) context.log.set_level(*log_level);
      context.telemetry = plane.get();
      context.session = session;
      context.tracer.set_session(session_hex);
      traffic.context = &context;

      const auto wall_start = std::chrono::steady_clock::now();
      const das::traffic::TrafficReport report =
          das::traffic::run_traffic(traffic);
      const double wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();

      std::string summary;
      summary += "traffic: tenants=" +
                 std::to_string(traffic.arrivals.tenants) +
                 " jobs=" + std::to_string(report.total.jobs_completed) +
                 " makespan_s=" + std::to_string(report.makespan_s) +
                 " events=" + std::to_string(report.events) + "\n";
      summary += "straggler: reads=" + std::to_string(report.reads_issued) +
                 " reroutes=" + std::to_string(report.reroutes) +
                 " hedges=" + std::to_string(report.hedges_issued) + "/" +
                 std::to_string(report.hedges_won) +
                 " wasted_bytes=" + std::to_string(report.wasted_bytes) +
                 "\n";
      // Printed only when the monitor is armed, so an unarmed run's stdout
      // is byte-identical to a binary without the telemetry plane.
      if (plane != nullptr && plane->slo().enabled()) {
        summary += "slo: alerts=" + std::to_string(report.slo_alerts) + "\n";
      }
      std::printf("%s", summary.c_str());
      if (slo_path.empty()) {
        std::printf("%s", report.slo_csv().c_str());
      } else {
        std::ofstream out(slo_path, std::ios::trunc);
        if (!out) {
          throw std::runtime_error("cannot write SLO file: " + slo_path);
        }
        out << report.slo_csv();
      }
      if (!trace_path.empty() && !context.tracer.write_json(trace_path)) {
        throw std::runtime_error("cannot write trace file: " + trace_path);
      }
      if (!metrics_path.empty()) {
        write_file(metrics_path, plane->sampler().csv(), "metrics");
      }
      if (!metrics_prom_path.empty()) {
        write_file(metrics_prom_path, plane->prometheus_snapshot(),
                   "metrics-prom");
      }
      if (!flight_path.empty()) {
        write_file(flight_path, plane->flight_json(session), "flight-record");
      }
      if (!diag_path.empty()) {
        write_file(diag_path, diag_json(session, wall_seconds, report.events),
                   "diag");
      }
      return 0;
    }

    // One cell per (kernel, scheme, trial), in output order. Cells simulate
    // independently — possibly concurrently — and all printing happens
    // afterwards in this order, so output never depends on --jobs.
    struct Cell {
      std::string kernel;
      das::core::Scheme scheme;
      std::uint32_t trial = 0;
    };
    std::vector<Cell> cells;
    for (const std::string& kernel : kernels) {
      for (const das::core::Scheme scheme : schemes) {
        for (std::uint32_t trial = 0; trial < trials; ++trial) {
          cells.push_back(Cell{kernel, scheme, trial});
        }
      }
    }

    // The plane is one registry + sampler, so classic-mode telemetry is
    // limited to a single cell; sweeps would interleave unrelated runs into
    // one time series. (--diag aggregates and stays legal for sweeps.)
    if (plane != nullptr && cells.size() > 1) {
      throw std::invalid_argument(
          "--metrics/--spans/--slo-target-ms/--flight-record require a "
          "single (scheme, kernel, trial) cell; narrow --scheme/--kernel/"
          "--trials");
    }

    std::vector<std::unique_ptr<das::sim::RunContext>> contexts;
    contexts.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      contexts.push_back(std::make_unique<das::sim::RunContext>());
      if (!trace_path.empty()) contexts.back()->tracer.enable();
      if (log_level) contexts.back()->log.set_level(*log_level);
      contexts.back()->session = session;
    }
    if (plane != nullptr) contexts.front()->telemetry = plane.get();

    std::vector<RunReport> reports(cells.size());
    das::runner::parallel_for_indexed(
        jobs, cells.size(), [&](std::size_t i) {
          das::core::SchemeRunOptions o = base;
          o.scheme = cells[i].scheme;
          o.workload.kernel_name = cells[i].kernel;
          o.cluster.seed = base.cluster.seed + cells[i].trial * 1000003;
          o.context = contexts[i].get();
          reports[i] = das::core::run_scheme(o);
        });

    std::vector<std::string> audit_rows;
    if (csv) std::printf("%s,trial\n", das::core::report_csv_header().c_str());

    std::vector<RunReport> table;
    std::size_t cell = 0;
    for (const std::string& kernel : kernels) {
      for (const das::core::Scheme scheme : schemes) {
        double sum = 0.0, sum2 = 0.0;
        for (std::uint32_t trial = 0; trial < trials; ++trial, ++cell) {
          const RunReport& report = reports[cell];
          sum += report.exec_seconds;
          sum2 += report.exec_seconds * report.exec_seconds;
          if (csv) {
            std::printf("%s,%u\n", das::core::to_csv(report).c_str(), trial);
          }
          if (!audit_path.empty() && report.audit.valid) {
            audit_rows.push_back(das::core::audit_to_csv(report) + "," +
                                 std::to_string(trial));
          }
        }
        table.push_back(reports[cell - 1]);
        if (trials > 1 && !csv) {
          const double n = trials;
          const double mean = sum / n;
          const double var = std::max(0.0, sum2 / n - mean * mean);
          std::printf("%s %-18s over %u trials: %.2f +- %.2f s\n",
                      to_string(scheme), kernel.c_str(), trials, mean,
                      std::sqrt(var));
        }
      }
    }
    if (!csv) {
      std::printf("\n%s", das::core::format_report_table(table).c_str());
      if (access.active()) {
        // One list-I/O pricing line per table row: what the access cost as
        // a list request and why the decision engine picked its side.
        for (const RunReport& r : table) {
          std::printf("list-io %s %s %s: %s\n", r.scheme.c_str(),
                      r.kernel.c_str(), access.label().c_str(),
                      r.decision_note.c_str());
        }
      }
    }

    if (!trace_path.empty()) {
      // Merging in cell order reproduces the buffer one shared tracer would
      // have accumulated running the cells serially.
      das::sim::Tracer merged;
      merged.enable();
      merged.set_session(session_hex);
      for (const auto& context : contexts) {
        merged.merge_from(context->tracer);
      }
      if (!merged.write_json(trace_path)) {
        throw std::runtime_error("cannot write trace file: " + trace_path);
      }
    }
    if (!audit_path.empty()) {
      std::ofstream out(audit_path, std::ios::trunc);
      if (!out) {
        throw std::runtime_error("cannot write audit file: " + audit_path);
      }
      out << das::core::audit_csv_header() << ",trial\n";
      for (const std::string& row : audit_rows) out << row << "\n";
    }
    if (!metrics_path.empty()) {
      write_file(metrics_path, plane->sampler().csv(), "metrics");
    }
    if (!metrics_prom_path.empty()) {
      write_file(metrics_prom_path, plane->prometheus_snapshot(),
                 "metrics-prom");
    }
    if (!flight_path.empty()) {
      write_file(flight_path, plane->flight_json(session), "flight-record");
    }
    if (!diag_path.empty()) {
      double wall = 0.0;
      std::uint64_t events = 0;
      for (const RunReport& r : reports) {
        wall += r.wall_seconds;
        events += r.sim_events;
      }
      write_file(diag_path, diag_json(session, wall, events), "diag");
    }
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "das_sim: " << error.what();
    if (const char* flag = flag_of_rejected_option(error.what())) {
      std::cerr << ", set by " << flag;
    }
    std::cerr << "\n";
    return 2;
  }
}
