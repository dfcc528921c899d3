// das_perfbench: host cost of the simulator, end to end and layer by layer.
//
// Runs one workload through the library's public entry points
// (core::run_scheme, traffic::run_traffic) pass after pass until --seconds
// have elapsed, checks every simulated result of every pass, and prints each
// metric as `name value unit` followed by one JSON result line:
//
//   das_perfbench --workload=paper-matrix|data-verify|tenant-storm
//       [--seed=20120901] [--arrival-seed=20120901] [--seconds=10]
//       [--trace=0|1]
//       [--records=DIR] [--out=DIR] [--write-records]
//
// --trace=0 reports the end-to-end metrics: host metrics are the median
// pass, scaled to a reference host speed; peak RSS is the high-water mark
// at the end of the first pass. --trace=1 is a separate run that
// alternates untraced passes with traced ones. A traced pass opens a
// host-time span around each call the benchmark makes into a layer and
// attaches a telemetry plane to every cell; the run reports the per-layer
// metrics and writes its spans to DIR/trace-<workload>-<seed>.json as Chrome
// trace-event JSON. --write-records stores the first pass's results in
// DIR/<workload>.txt as the record later runs are checked against.
// README.md in this directory defines every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory_resource>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/distribution_planner.hpp"
#include "core/metrics.hpp"
#include "core/scheme.hpp"
#include "core/workload.hpp"
#include "grid/serialize.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "pfs/layout.hpp"
#include "runner/args.hpp"
#include "runner/paper.hpp"
#include "simkit/context.hpp"
#include "simkit/stats.hpp"
#include "telemetry/plane.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/engine.hpp"

namespace {

namespace core = das::core;
namespace traffic = das::traffic;
namespace telemetry = das::telemetry;
using core::RunReport;
using core::Scheme;
using core::SchemeRunOptions;

/// The seed the records were taken at: the cluster and arrival seed of the
/// README commands.
constexpr std::uint64_t kDefaultSeed = 20120901;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = 1024.0 * kMiB;

// --- Host probes ------------------------------------------------------------

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

/// Host seconds since process start (steady clock).
double host_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

/// Steal ticks of the aggregate `cpu` line of /proc/stat (8th value).
std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  in >> label;
  for (std::uint64_t& f : fields) in >> f;
  return in ? fields[7] : 0;
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

/// Heap bytes in use (arena + mmapped chunks). Unlike resident pages this
/// also sees allocations that reuse memory freed by an earlier cell.
double heap_in_use_mib() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / kMiB;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// FNV-1a over the result lines, for the digest a held-out seed prints.
std::uint64_t digest(const std::vector<std::string>& lines) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (const char c : line + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// --- Host speed -------------------------------------------------------------

/// Seconds speed_probe() takes on the reference host: the 4-core x86-64 VM
/// (AVX2, Release build) the benchmark was tuned on, when quiet.
constexpr double kProbeReferenceS = 0.005;

/// Fixed host work that no library change touches, shaped like the
/// simulator's own (small allocations, pointer-linked and heap-ordered
/// state): the geometric mean of the seconds of a 64Ki-entry binary heap
/// churned 16Ki times and an 8Ki-entry map churned 8Ki times. Its memory
/// comes from a pool kept across calls: a probe that returned memory to the
/// process heap would slow the measured call that follows it.
double speed_probe() {
  using Entry = std::pair<std::uint64_t, std::uint64_t*>;
  static std::pmr::unsynchronized_pool_resource pool;
  static std::vector<Entry> heap;
  std::uint64_t x = 88172645463325252ULL;  // xorshift64
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto cell = [](std::uint64_t value) {
    auto* p = static_cast<std::uint64_t*>(
        pool.allocate(sizeof(std::uint64_t), alignof(std::uint64_t)));
    *p = value;
    return p;
  };
  const auto release = [](std::uint64_t* p) {
    pool.deallocate(p, sizeof(std::uint64_t), alignof(std::uint64_t));
  };
  const auto later = [](const Entry& a, const Entry& b) {
    return a.first > b.first;
  };
  std::uint64_t sink = 0;

  const double heap_begin = host_now();
  heap.clear();
  heap.reserve(1 << 16);
  for (int i = 0; i < (1 << 16); ++i) {
    const std::uint64_t key = next();
    heap.emplace_back(key, cell(key));
  }
  std::make_heap(heap.begin(), heap.end(), later);
  for (int i = 0; i < (1 << 14); ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Entry& top = heap.back();
    top.first += next() >> 40;
    release(top.second);
    top.second = cell(top.first);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  sink += *heap.front().second;
  for (const Entry& e : heap) release(e.second);

  const double map_begin = host_now();
  {
    std::pmr::map<std::uint64_t, std::uint64_t> map(&pool);
    for (std::uint64_t i = 0; i < (1 << 13); ++i) map.emplace(next(), i);
    for (std::uint64_t i = 0; i < (1 << 13); ++i) {
      const auto it = map.lower_bound(next());
      if (it != map.end()) {
        sink += it->second;
        map.erase(it);
      }
      map.emplace(next(), i);
    }
  }
  const double end = host_now();
  if (sink == 42) std::puts("");  // keep the work observable
  return std::sqrt((map_begin - heap_begin) * (end - map_begin));
}

/// Scales host seconds to the reference host's speed. The host this runs
/// on is shared, and its speed drifts by up to 2x within minutes, so every
/// call is bracketed by probes and each stretch of it is multiplied by
/// kProbeReferenceS over the mean of the probes at its two ends. Long calls
/// also probe from inside (probe_inside), which splits them into stretches
/// and is not counted in their time. A probe is reused as the next call's
/// first when nothing else ran in between.
class SpeedGauge {
 public:
  struct Timed {
    double begin_s = 0.0;   // host_now() when the call began
    double end_s = 0.0;     // ... and ended
    double seconds = 0.0;   // host seconds of the call, probes excluded
    double scaled_s = 0.0;  // the same at the reference speed

    [[nodiscard]] double factor() const {
      return seconds > 0.0 ? scaled_s / seconds : 1.0;
    }
  };

  /// `repeats` probes per measurement point, of which the median counts.
  explicit SpeedGauge(int repeats) : repeats_(repeats) {}

  template <typename Body>
  Timed run(Body&& body) {
    if (host_now() - last_end_ > kReuseWithinS) last_ = probe();
    inside_.clear();
    in_call_ = true;
    Timed t;
    t.begin_s = host_now();
    body();
    t.end_s = host_now();
    in_call_ = false;
    const double before = last_;
    last_ = probe();
    last_end_ = host_now();
    probes_.push_back(last_);

    double from = t.begin_s;
    double from_probe = before;
    const auto stretch = [&](double to, double to_probe) {
      t.seconds += to - from;
      t.scaled_s +=
          (to - from) * kProbeReferenceS / ((from_probe + to_probe) / 2.0);
    };
    for (const Mark& m : inside_) {
      stretch(m.begin_s, m.probe_s);
      from = m.end_s;
      from_probe = m.probe_s;
      probes_.push_back(m.probe_s);
    }
    stretch(t.end_s, last_);
    return t;
  }

  /// Probe from inside the running call, at most once per kInsideEveryS.
  void probe_inside() {
    const double now = host_now();
    if (!in_call_ || (!inside_.empty() && now - inside_.back().end_s <
                                              kInsideEveryS)) {
      return;
    }
    const double probe_s = probe();
    inside_.push_back(Mark{now, host_now(), probe_s});
  }

  [[nodiscard]] double median_probe_s() const { return median(probes_); }

 private:
  struct Mark {
    double begin_s = 0.0;
    double end_s = 0.0;
    double probe_s = 0.0;
  };

  static constexpr double kReuseWithinS = 0.001;
  static constexpr double kInsideEveryS = 0.25;

  double probe() const {
    std::vector<double> runs;
    for (int i = 0; i < repeats_; ++i) runs.push_back(speed_probe());
    return median(runs);
  }

  int repeats_;
  double last_ = 0.0;
  double last_end_ = -1.0;
  bool in_call_ = false;
  std::vector<Mark> inside_;
  std::vector<double> probes_;
};

// --- Spans ------------------------------------------------------------------

/// Host-time spans the traced passes record around each call into a layer.
/// Kept in memory and written once, at exit, as Chrome trace-event JSON.
struct Span {
  std::string name;        // "core.run_scheme", "simkit.loop", ...
  std::string layer;       // the layer the call enters (Chrome "cat")
  std::uint64_t cell = 0;  // shared by every span of one cell
  double begin_s = 0.0;
  double end_s = 0.0;
};

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& process) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"tid\": 1, \"args\": {\"name\": \"" +
         process + "\"}}";
  char buf[512];
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"cell\": %llu}}",
                  s.name.c_str(), s.layer.c_str(), s.begin_s * 1e6,
                  (s.end_s - s.begin_s) * 1e6,
                  static_cast<unsigned long long>(s.cell));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

/// Where a traced pass puts what it measures: spans, and per-layer values
/// summed over the pass (host seconds, counts) or set once (ratios).
struct TracedPass {
  std::vector<Span>* spans = nullptr;
  std::map<std::string, double> values;

  /// Run `body` inside a span and return its host seconds.
  template <typename Body>
  double span(const char* name, const char* layer, std::uint64_t cell,
              Body&& body) {
    const double begin = host_now();
    body();
    const double end = host_now();
    spans->push_back(Span{name, layer, cell, begin, end});
    return end - begin;
  }
};

/// Telemetry plane the traced passes attach to a scheme cell: metrics and
/// spans on, so every component enrolls its counters.
telemetry::PlaneConfig traced_plane_config() {
  telemetry::PlaneConfig config;
  config.metrics = true;
  config.spans = true;
  return config;
}

/// Sum over the closing sample of every series named `name`: an instrument
/// name matches all its label sets, a full column (`net.bytes{class=...}`)
/// only itself. The closing sample is taken after the event loop drains, so
/// these are the run's final counts.
double registry_total(telemetry::Plane& plane, const std::string& name) {
  const telemetry::Registry& registry = plane.registry();
  const telemetry::Sampler& sampler = plane.sampler();
  if (sampler.rows() == 0) return 0.0;
  const bool whole_column = name.find('{') != std::string::npos;
  double total = 0.0;
  for (std::size_t i = 0; i < registry.series_count(); ++i) {
    const std::string& column = registry.series_name(i);
    const bool match =
        whole_column ? column == name
                     : column.substr(0, column.find('{')) == name;
    if (match) total += sampler.value(sampler.rows() - 1, i);
  }
  return total;
}

/// Enroll a gauge that stamps the host clock whenever the sampler reads
/// the registry. Its first read is the first sampler tick, its last the
/// closing snapshot taken just after the event loop drains.
struct LoopClock {
  double first_s = -1.0;
  double last_s = -1.0;

  void enroll(telemetry::Plane& plane) {
    plane.registry().enroll_gauge("bench.host_clock_s", {}, [this]() {
      last_s = host_now();
      if (first_s < 0.0) first_s = last_s;
      return last_s;
    });
  }
};

// --- Workloads --------------------------------------------------------------

enum class Workload { kPaperMatrix, kDataVerify, kTenantStorm };

Workload parse_workload(const std::string& name) {
  if (name == "paper-matrix") return Workload::kPaperMatrix;
  if (name == "data-verify") return Workload::kDataVerify;
  if (name == "tenant-storm") return Workload::kTenantStorm;
  throw std::invalid_argument(
      "unknown --workload: " + name +
      " (want paper-matrix, data-verify or tenant-storm)");
}

/// `das_sim --scheme=all --kernel=all --gib=24 --nodes=24`: every kernel
/// under NAS, DAS and TS, timing only, in das_sim's cell order.
std::vector<SchemeRunOptions> paper_matrix_cells() {
  std::vector<SchemeRunOptions> cells;
  for (const std::string& kernel : das::kernels::standard_registry().names()) {
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS, Scheme::kTS}) {
      SchemeRunOptions o;
      o.scheme = scheme;
      o.workload = das::runner::paper_workload(kernel, 24);
      o.cluster = das::runner::paper_cluster(24);
      cells.push_back(o);
    }
  }
  return cells;
}

/// {flow-routing, gaussian-2d} x {TS, NAS, DAS} with real bytes: 16 MiB
/// raster, one 8192-cell row per 32 KiB strip, 4 servers + 4 clients, two
/// passes through a 4 MiB LFU strip cache with halo prefetch depth 4.
std::vector<SchemeRunOptions> data_verify_cells(std::uint64_t seed) {
  std::vector<SchemeRunOptions> cells;
  for (const char* kernel : {"flow-routing", "gaussian-2d"}) {
    for (const Scheme scheme : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
      SchemeRunOptions o;
      o.scheme = scheme;
      o.workload.kernel_name = kernel;
      o.workload.data_bytes = 16ULL << 20;
      o.workload.strip_size = 32ULL << 10;
      o.workload.element_size = 4;
      o.workload.raster_width = 0;  // strip_size / element_size = 8192
      o.workload.with_data = true;
      o.workload.seed = seed;
      o.cluster = das::runner::paper_cluster(8);
      o.cluster.server_cache.enabled = true;
      o.cluster.server_cache.capacity_bytes = 4ULL << 20;
      o.cluster.server_cache.policy = "lfu";
      o.cluster.prefetch.enabled = true;
      o.cluster.prefetch.depth = 4;
      o.repeat_count = 2;
      cells.push_back(o);
    }
  }
  return cells;
}

/// The README multi-tenant command at 96 jobs per tenant:
/// `das_sim --tenants=64 --arrival-rate=3 --tenant-jobs=96 --job-mib=4
///  --gib=1 --replicas=3 --stragglers=2 --slowdown=32 --hedge=on
///  --reroute=on --fair-queue=on --admission-mib=64` on 24 nodes.
traffic::TrafficConfig tenant_storm_config(std::uint64_t seed,
                                           std::uint64_t arrival_seed) {
  traffic::TrafficConfig t;
  t.cluster = das::runner::paper_cluster(24);
  t.cluster.straggler_count = 2;
  t.cluster.straggler_slowdown = 32.0;
  t.cluster.seed = seed;
  t.arrivals.tenants = 64;
  t.arrivals.jobs_per_tenant = 96;
  t.arrivals.rate_hz = 3.0;
  t.arrivals.job_bytes = 4ULL << 20;
  t.arrivals.strip_bytes = 1ULL << 20;
  t.arrivals.datasets = 1;
  t.arrivals.dataset_strips = (1ULL << 30) / t.arrivals.strip_bytes;
  t.arrivals.seed = arrival_seed;
  t.replication = 3;
  t.admission.enabled = true;
  t.admission.capacity_bytes = 64ULL << 20;
  t.fair_queue = true;
  t.straggler.hedge = true;
  t.straggler.reroute = true;
  return t;
}

/// The README SLO monitor: 50 ms target, 5% budget, 15 s window, spans on.
telemetry::PlaneConfig tenant_storm_plane() {
  telemetry::PlaneConfig config;
  config.spans = true;
  config.slo.target_s = 0.050;
  config.slo.budget = 0.05;
  config.slo.window_s = 15.0;
  return config;
}

/// The input layout run_scheme chooses: DAS stores the file in its planned
/// distribution, the other schemes round-robin.
std::unique_ptr<das::pfs::Layout> input_layout(
    const SchemeRunOptions& o, const das::pfs::FileMeta& meta,
    const std::vector<std::int64_t>& offsets) {
  if (o.scheme == Scheme::kDAS && o.pre_distributed) {
    const core::DistributionPlanner planner(o.distribution);
    if (const auto spec =
            planner.plan(meta, offsets, o.cluster.storage_nodes)) {
      return spec->make_layout();
    }
  }
  return std::make_unique<das::pfs::RoundRobinLayout>(
      o.cluster.storage_nodes);
}

// --- Result checks ----------------------------------------------------------

/// Failed / attempted operations, with the first few reasons kept for
/// printing.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::uint64_t count, std::string why) {
    failed += count;
    if (reasons.size() < 8) reasons.push_back(std::move(why));
  }
};

/// The inputs a record holds for: `any` where the results do not depend
/// on the seeds, else the arrival seed.
std::string record_key(Workload workload, std::uint64_t arrival_seed) {
  return workload == Workload::kTenantStorm
             ? "arrival-seed=" + std::to_string(arrival_seed)
             : "any";
}

/// A record: `# <record_key>` followed by the lines a pass must reproduce.
std::optional<std::vector<std::string>> load_record(const std::string& path,
                                                    const std::string& key) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string header;
  std::getline(in, header);
  if (header != "# " + key) return std::nullopt;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Checks every pass's results against the record (when one applies) and
/// against the first pass (the simulation is deterministic).
class ResultCheck {
 public:
  explicit ResultCheck(std::optional<std::vector<std::string>> record)
      : record_(std::move(record)) {}

  /// Compare line `i` of this pass; returns false on a mismatch.
  bool line_ok(std::size_t i, const std::string& line, std::string& why) {
    if (first_.size() <= i) first_.resize(i + 1);
    if (!have_first_) {
      first_[i] = line;
    } else if (first_[i] != line) {
      why = "differs from the first pass";
      return false;
    }
    if (record_ && (i >= record_->size() || (*record_)[i] != line)) {
      why = "differs from the record";
      return false;
    }
    return true;
  }

  void end_pass() { have_first_ = true; }

  [[nodiscard]] bool has_record() const { return record_.has_value(); }
  [[nodiscard]] const std::vector<std::string>& first() const {
    return first_;
  }

 private:
  std::optional<std::vector<std::string>> record_;
  std::vector<std::string> first_;
  bool have_first_ = false;
};

// --- Passes -----------------------------------------------------------------

/// Host cost of one pass over the workload, at the reference host speed
/// (see SpeedGauge) and as measured.
struct PassCost {
  double wall_s = 0.0;   // summed seconds of the workload's calls
  double setup_s = 0.0;  // the part outside the event loop (see README)
  double loop_s = 0.0;   // seconds the events_per_s rate is over
  double raw_wall_s = 0.0;
  double raw_setup_s = 0.0;
  double raw_loop_s = 0.0;
  std::uint64_t events = 0;

  void add(double wall, double loop, double factor) {
    wall_s += wall * factor;
    loop_s += loop * factor;
    setup_s += (wall - loop) * factor;
    raw_wall_s += wall;
    raw_loop_s += loop;
    raw_setup_s += wall - loop;
  }
};

/// Simulated results of a pass, for the end-to-end sim_* metrics.
struct SimSummary {
  double exec_s = 0.0;
  double net_bytes = 0.0;
  double p50_sojourn_s = 0.0;
  double p99_sojourn_s = 0.0;
  double das_gain_ts = 0.0;
  double das_gain_nas = 0.0;
};

/// Mean over `kernels` of 1 - DAS/other exec seconds.
double das_gain(const std::vector<RunReport>& reports,
                const std::vector<std::string>& kernels, const char* other) {
  double sum = 0.0;
  int n = 0;
  for (const std::string& k : kernels) {
    double das = 0.0, base = 0.0;
    for (const RunReport& r : reports) {
      if (r.kernel != k) continue;
      if (r.scheme == "DAS") das = r.exec_seconds;
      if (r.scheme == other) base = r.exec_seconds;
    }
    if (das > 0.0 && base > 0.0) {
      sum += 1.0 - das / base;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

SimSummary summarize(const std::vector<RunReport>& reports,
                     const std::vector<std::string>& gain_kernels) {
  SimSummary s;
  das::sim::Histogram exec;
  for (const RunReport& r : reports) {
    s.exec_s += r.exec_seconds;
    s.net_bytes += static_cast<double>(r.client_server_bytes +
                                       r.server_server_bytes);
    exec.record(r.exec_seconds);
  }
  // A scheme cell is one job submitted at t=0: its sojourn is its run time.
  s.p50_sojourn_s = exec.quantile(0.5);
  s.p99_sojourn_s = exec.quantile(0.99);
  s.das_gain_ts = das_gain(reports, gain_kernels, "TS");
  s.das_gain_nas = das_gain(reports, gain_kernels, "NAS");
  return s;
}

/// `span.<hop>_s`: simulated seconds charged to one request-span hop.
std::string hop_metric(std::size_t hop) {
  return std::string("span.") +
         telemetry::to_string(static_cast<telemetry::Hop>(hop)) + "_s";
}

/// Per-layer values every scheme cell of a traced pass contributes.
void add_cell_layers(TracedPass& t, const RunReport& r, double call_s,
                     telemetry::Plane& plane) {
  auto& v = t.values;
  const double exec = r.exec_seconds;
  v["simkit.events"] += static_cast<double>(r.sim_events);
  v["simkit.loop_s"] += r.wall_seconds;
  v["core.run_s"] += call_s;
  v["core.outside_loop_s"] += call_s - r.wall_seconds;
  v["core.offloads"] += r.offloaded ? 1.0 : 0.0;
  if (r.audit.valid) {
    v["bench.halo_abs_err"] += std::abs(r.audit.halo_bytes_residual());
    v["bench.halo_observed"] += r.audit.observed_halo_bytes;
  }
  v["pfs.remote_reads"] += registry_total(plane, "pfs.remote_reads");
  v["pfs.prefetch_issued"] += static_cast<double>(r.prefetch_issued);
  v["bench.prefetch_served"] +=
      static_cast<double>(r.prefetch_hits + r.prefetch_coalesced);
  v["pfs.prefetch_stale"] += static_cast<double>(r.prefetch_dropped_stale);
  v["cache.hits"] += static_cast<double>(r.cache_hits);
  v["cache.misses"] += static_cast<double>(r.cache_misses);
  v["cache.evictions"] += static_cast<double>(r.cache_evictions);
  v["net.msgs"] += registry_total(plane, "net.msgs");
  v["net.cli_srv_gib"] += static_cast<double>(r.client_server_bytes) / kGiB;
  v["net.srv_srv_gib"] += static_cast<double>(r.server_server_bytes) / kGiB;
  // Utilizations are weighted by simulated run time; quantiles take the
  // worst cell (quantiles of different runs do not add).
  v["bench.exec_s"] += exec;
  v["net.nic_util"] += r.server_nic_utilization * exec;
  v["storage.disk_util"] += r.server_disk_utilization * exec;
  v["storage.server_compute_util"] += r.server_compute_utilization * exec;
  v["storage.client_compute_util"] += r.client_compute_utilization * exec;
  v["net.queue_wait_p99_s"] =
      std::max(v["net.queue_wait_p99_s"], r.net_queue_wait.p99);
  v["net.wire_p99_s"] = std::max(v["net.wire_p99_s"], r.net_wire.p99);
  v["storage.disk_p99_s"] =
      std::max(v["storage.disk_p99_s"], r.disk_service.p99);
  v["telemetry.spans"] += static_cast<double>(r.spans_finished);
  for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
    v[hop_metric(h)] += r.span_hop_seconds[h];
  }
}

/// Turn a traced scheme pass's sums into the reported per-layer values.
void finish_scheme_layers(TracedPass& t) {
  auto& v = t.values;
  const double exec = v["bench.exec_s"];
  for (const char* util : {"net.nic_util", "storage.disk_util",
                           "storage.server_compute_util",
                           "storage.client_compute_util"}) {
    v[util] = exec > 0.0 ? v[util] / exec : 0.0;
  }
  v["core.halo_forecast_err"] =
      v["bench.halo_observed"] > 0.0
          ? v["bench.halo_abs_err"] / v["bench.halo_observed"]
          : 0.0;
  v["pfs.prefetch_useful"] =
      v["pfs.prefetch_issued"] > 0.0
          ? v["bench.prefetch_served"] / v["pfs.prefetch_issued"]
          : 0.0;
  const double lookups = v["cache.hits"] + v["cache.misses"];
  v["cache.hit_ratio"] = lookups > 0.0 ? v["cache.hits"] / lookups : 0.0;
}

/// pfs drill, outside the cell's run span: build the cell's cluster and
/// create its input file (with `data` as payload, or length only) and its
/// output file.
void drill_files(TracedPass& t, std::uint64_t cell, const SchemeRunOptions& o,
                 const std::vector<std::byte>* data) {
  das::sim::RunContext context;
  const auto kernel =
      das::kernels::standard_registry().create(o.workload.kernel_name);
  const das::pfs::FileMeta meta = o.workload.make_meta("input");
  const auto offsets = kernel->features().resolve(meta.raster_width);
  std::optional<core::Cluster> cluster;
  t.span("core.Cluster", "pfs", cell,
         [&]() { cluster.emplace(o.cluster, &context); });
  const double heap_before = heap_in_use_mib();
  std::unique_ptr<das::pfs::Layout> layout = input_layout(o, meta, offsets);
  std::unique_ptr<das::pfs::Layout> out_layout = layout->clone();
  t.values["pfs.create_file_s"] +=
      t.span("pfs.create_file", "pfs", cell, [&]() {
        static_cast<void>(
            cluster->pfs().create_file(meta, std::move(layout), data));
      });
  if (!kernel->is_reduction()) {
    das::pfs::FileMeta out_meta = meta;
    out_meta.name = "output";
    t.values["pfs.create_file_s"] +=
        t.span("pfs.create_file", "pfs", cell, [&]() {
          static_cast<void>(cluster->pfs().create_file(
              std::move(out_meta), std::move(out_layout), nullptr));
        });
  }
  t.values["pfs.create_file_mib"] = std::max(
      t.values["pfs.create_file_mib"], heap_in_use_mib() - heap_before);
}

/// data-verify drills for one kernel, outside every cell span: generate the
/// input (grid), store it with its payload (pfs), and run the kernel over
/// the whole raster both tiled and as the sequential reference (kernels).
void drill_data(TracedPass& t, std::uint64_t cell, const SchemeRunOptions& o,
                Tally& tally) {
  const auto kernel =
      das::kernels::standard_registry().create(o.workload.kernel_name);
  das::grid::Grid<float> input;
  const double gen_s = t.span("core.make_input", "grid", cell, [&]() {
    input = core::make_input(o.workload, *kernel);
  });
  t.values["grid.make_input_s"] += gen_s;
  t.values["bench.input_mib"] +=
      static_cast<double>(o.workload.data_bytes) / kMiB;
  const std::vector<std::byte> bytes = das::grid::to_bytes(input);
  drill_files(t, cell, o, &bytes);

  const std::uint32_t h = input.height();
  das::grid::Grid<float> tiled(input.width(), h);
  const double tile_s = t.span("kernels.run_tile", "kernels", cell, [&]() {
    kernel->run_tile(input, 0, h, 0, h, tiled);
  });
  das::grid::Grid<float> reference;
  t.values["kernels.reference_s"] +=
      t.span("kernels.run_reference", "kernels", cell,
             [&]() { reference = kernel->run_reference(input); });
  t.values["kernels." + kernel->name() + ".mcells_per_s"] =
      static_cast<double>(input.width()) * h / tile_s / 1e6;
  ++tally.attempted;
  if (!(tiled == reference)) {
    tally.fail(1, kernel->name() + ": whole-raster run_tile differs from "
                                   "run_reference");
  }
}

/// One pass over a scheme workload. `traced` null runs it untraced.
PassCost scheme_pass(Workload workload,
                     const std::vector<SchemeRunOptions>& cells,
                     SpeedGauge& gauge, ResultCheck& check, Tally& tally,
                     std::vector<RunReport>& reports, TracedPass* traced) {
  PassCost cost;
  reports.assign(cells.size(), RunReport{});
  std::string last_kernel;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SchemeRunOptions options = cells[i];
    das::sim::RunContext context;
    options.context = &context;
    std::optional<telemetry::Plane> plane;
    LoopClock loop_clock;
    if (traced != nullptr) {
      if (workload == Workload::kPaperMatrix) {
        drill_files(*traced, i, options, nullptr);
      } else if (options.workload.kernel_name != last_kernel) {
        drill_data(*traced, i, options, tally);
      }
      plane.emplace(traced_plane_config());
      loop_clock.enroll(*plane);
      context.telemetry = &*plane;
    }
    last_kernel = options.workload.kernel_name;

    const SpeedGauge::Timed call =
        gauge.run([&]() { reports[i] = core::run_scheme(options); });
    const RunReport& r = reports[i];
    cost.add(call.seconds, r.wall_seconds, call.factor());
    cost.events += r.sim_events;

    if (traced != nullptr) {
      traced->spans->push_back(
          Span{"core.run_scheme", "core", i, call.begin_s, call.end_s});
      // The closing sample is taken right after the loop drains.
      traced->spans->push_back(Span{"simkit.loop", "simkit", i,
                                    loop_clock.last_s - r.wall_seconds,
                                    loop_clock.last_s});
      add_cell_layers(*traced, r, call.seconds, *plane);
    }

    ++tally.attempted;
    std::string why;
    const std::string label = r.scheme + " " + r.kernel;
    if (!check.line_ok(i, core::to_csv(r), why)) {
      tally.fail(1, label + ": row " + why);
    } else if (workload == Workload::kDataVerify) {
      if (!r.output_verified || r.output_max_error != 0.0) {
        tally.fail(1, label + ": output differs from the reference");
      } else if (options.scheme == Scheme::kNAS &&
                 (r.cache_hits == 0 || r.cache_evictions == 0 ||
                  r.prefetch_issued == 0)) {
        tally.fail(1, label + ": no cache hits, evictions or prefetches");
      }
    }
  }
  check.end_pass();
  if (traced != nullptr) finish_scheme_layers(*traced);
  return cost;
}

/// The SLO table and counters a tenant-storm pass is checked on.
std::vector<std::string> storm_lines(const traffic::TrafficReport& r) {
  std::vector<std::string> lines;
  std::istringstream slo(r.slo_csv());
  for (std::string line; std::getline(slo, line);) lines.push_back(line);
  lines.push_back("straggler: reads=" + std::to_string(r.reads_issued) +
                  " reroutes=" + std::to_string(r.reroutes) +
                  " hedges=" + std::to_string(r.hedges_issued) + "/" +
                  std::to_string(r.hedges_won) +
                  " wasted_bytes=" + std::to_string(r.wasted_bytes));
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "traffic: jobs=%llu makespan_s=%.9f events=%llu "
                "slo_alerts=%llu",
                static_cast<unsigned long long>(r.total.jobs_completed),
                r.makespan_s, static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.slo_alerts));
  lines.push_back(buf);
  return lines;
}

/// The set-up run_traffic does before its event loop, through the same
/// public calls: the cluster, the replicated dataset, the arrival schedule.
/// Returns its host seconds.
double storm_setup(const traffic::TrafficConfig& config, TracedPass* traced) {
  das::sim::RunContext context;
  const double begin = host_now();
  std::optional<core::Cluster> cluster;
  cluster.emplace(config.cluster, &context);
  const double built = host_now();
  das::pfs::FileMeta meta;
  meta.name = "traffic-0";
  meta.size_bytes =
      config.arrivals.dataset_strips * config.arrivals.strip_bytes;
  meta.strip_size = config.arrivals.strip_bytes;
  const double heap_before = heap_in_use_mib();
  static_cast<void>(cluster->pfs().create_file(
      std::move(meta), std::make_unique<das::pfs::ReplicatedRoundRobinLayout>(
                           cluster->pfs().num_servers(), config.replication)));
  const double created = host_now();
  const double heap_after = heap_in_use_mib();
  const std::vector<traffic::JobArrival> schedule =
      traffic::generate_poisson(config.arrivals);
  const double end = host_now();
  if (traced != nullptr) {
    traced->spans->push_back(Span{"core.Cluster", "pfs", 0, begin, built});
    traced->spans->push_back(
        Span{"pfs.create_file", "pfs", 0, built, created});
    traced->spans->push_back(
        Span{"traffic.generate_poisson", "traffic", 0, created, end});
    traced->values["pfs.create_file_s"] += created - built;
    traced->values["pfs.create_file_mib"] = heap_after - heap_before;
  }
  if (schedule.size() != static_cast<std::size_t>(config.arrivals.tenants) *
                             config.arrivals.jobs_per_tenant) {
    throw std::runtime_error("arrival schedule has the wrong job count");
  }
  return end - begin;
}

/// The value of one Prometheus sample line `<metric>{...} value`.
double prometheus_value(const std::string& text, const std::string& metric) {
  const std::size_t at = text.find("\n" + metric);
  if (at == std::string::npos) return 0.0;
  const std::size_t space = text.find(' ', at + 1 + metric.size());
  return space == std::string::npos ? 0.0 : std::stod(text.substr(space + 1));
}

/// Set-up repeats per tenant-storm pass; the pass's set-up is their median.
constexpr int kStormSetups = 20;

/// Sampler period of the untraced tenant-storm plane (simulated time).
constexpr das::sim::SimDuration kStormSamplePeriod =
    das::sim::milliseconds(200);

/// One tenant-storm pass. `traced` null runs it untraced.
PassCost storm_pass(const traffic::TrafficConfig& base, SpeedGauge& gauge,
                    ResultCheck& check, Tally& tally,
                    traffic::TrafficReport& report, TracedPass* traced) {
  std::vector<double> setups;
  const SpeedGauge::Timed setup = gauge.run([&]() {
    for (int i = 0; i < kStormSetups; ++i) {
      setups.push_back(storm_setup(base, i == 0 ? traced : nullptr));
    }
  });
  traffic::TrafficConfig config = base;
  das::sim::RunContext context;
  // Untraced, the one seconds-long call is probed from inside, through a
  // registry gauge the sampler reads every kStormSamplePeriod of simulated
  // time. Traced, the sampler runs at its default period for the per-layer
  // counters and stamps the loop's host time instead.
  telemetry::PlaneConfig plane_config = tenant_storm_plane();
  plane_config.metrics = true;
  plane_config.prometheus = traced != nullptr;
  if (traced == nullptr) plane_config.sample_period = kStormSamplePeriod;
  telemetry::Plane plane(plane_config);
  LoopClock loop_clock;
  if (traced == nullptr) {
    plane.registry().enroll_gauge("bench.speed_probe", {}, [&gauge]() {
      gauge.probe_inside();
      return 0.0;
    });
  } else {
    loop_clock.enroll(plane);
  }
  context.telemetry = &plane;
  config.context = &context;

  const SpeedGauge::Timed call =
      gauge.run([&]() { report = traffic::run_traffic(config); });
  const double begin = call.begin_s;
  const double end = call.end_s;

  // run_traffic exposes no loop time: events_per_s is over the whole call,
  // and the set-up is the replica's.
  PassCost cost;
  cost.wall_s = cost.loop_s = call.scaled_s;
  cost.raw_wall_s = cost.raw_loop_s = call.seconds;
  cost.raw_setup_s = median(setups);
  cost.setup_s = cost.raw_setup_s * setup.factor();
  cost.events = report.events;

  const std::uint64_t jobs = static_cast<std::uint64_t>(
                                 config.arrivals.tenants) *
                             config.arrivals.jobs_per_tenant;
  tally.attempted += jobs;
  if (report.total.jobs_completed < jobs) {
    tally.fail(jobs - report.total.jobs_completed, "jobs did not complete");
  }
  const std::vector<std::string> lines = storm_lines(report);
  bool same = true;
  std::string why;
  for (std::size_t i = 0; i < lines.size() && same; ++i) {
    same = check.line_ok(i, lines[i], why);
  }
  if (!same) {
    // A differing SLO table fails the whole run.
    tally.fail(jobs, "SLO table or counters " + why);
  }
  check.end_pass();

  if (traced != nullptr) {
    auto& v = traced->values;
    const double loop_s = loop_clock.last_s - loop_clock.first_s;
    traced->spans->push_back(
        Span{"traffic.run_traffic", "core", 0, begin, end});
    // From the first sampler tick (50 ms simulated) to the closing sample.
    traced->spans->push_back(Span{"simkit.loop", "simkit", 0,
                                  loop_clock.first_s, loop_clock.last_s});
    v["simkit.events"] = static_cast<double>(report.events);
    v["simkit.loop_s"] = loop_s;
    v["core.run_s"] = end - begin;
    v["core.outside_loop_s"] = (end - begin) - loop_s;
    v["pfs.remote_reads"] = registry_total(plane, "pfs.remote_reads");
    v["net.msgs"] = registry_total(plane, "net.msgs");
    v["net.cli_srv_gib"] =
        registry_total(plane, "net.bytes{class=client-server}") / kGiB;
    v["net.srv_srv_gib"] =
        registry_total(plane, "net.bytes{class=server-server}") / kGiB;
    v["net.queue_wait_p99_s"] =
        prometheus_value(plane.prometheus_snapshot(),
                         "das_net_queue_wait_s{quantile=\"0.99\"}");
    const double servers = config.cluster.storage_nodes;
    v["storage.disk_util"] =
        report.makespan_s > 0.0
            ? registry_total(plane, "disk.busy_s") /
                  (servers * report.makespan_s)
            : 0.0;
    // Not exposed by run_traffic's report or registry at this commit.
    for (const char* missing : {"net.nic_util", "net.wire_p99_s",
                                "storage.disk_p99_s",
                                "storage.server_compute_util",
                                "storage.client_compute_util"}) {
      v[missing] = -1.0;
    }
    v["traffic.reads"] = static_cast<double>(report.reads_issued);
    v["traffic.hedges"] = static_cast<double>(report.hedges_issued);
    v["traffic.hedge_win_ratio"] =
        report.hedges_issued > 0
            ? static_cast<double>(report.hedges_won) /
                  static_cast<double>(report.hedges_issued)
            : 0.0;
    v["traffic.reroutes"] = static_cast<double>(report.reroutes);
    v["traffic.wasted_gib"] = static_cast<double>(report.wasted_bytes) / kGiB;
    v["traffic.deferred"] = static_cast<double>(report.total.jobs_deferred);
    v["traffic.admission_wait_p95_s"] =
        report.total.admission_wait.quantile(0.95);
    v["telemetry.spans"] =
        static_cast<double>(plane.spans().spans_finished());
    v["telemetry.slo_alerts"] = static_cast<double>(report.slo_alerts);
    for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
      v[hop_metric(h)] = das::sim::to_seconds(
          plane.spans().hop_total(static_cast<telemetry::Hop>(h)));
    }
  }
  return cost;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The per-layer metrics of the traced run, with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = [] {
    std::vector<std::pair<std::string, std::string>> list = {
        {"simkit.events", "count"},
        {"simkit.loop_s", "s"},
        {"simkit.ns_per_event", "ns"},
        {"core.run_s", "s"},
        {"core.outside_loop_s", "s"},
        {"core.offloads", "count"},
        {"core.halo_forecast_err", "ratio"},
        {"pfs.create_file_s", "s"},
        {"pfs.create_file_mib", "MiB"},
        {"pfs.remote_reads", "count"},
        {"pfs.prefetch_issued", "count"},
        {"pfs.prefetch_useful", "ratio"},
        {"pfs.prefetch_stale", "count"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.evictions", "count"},
        {"cache.hit_ratio", "ratio"},
        {"net.msgs", "count"},
        {"net.cli_srv_gib", "GiB"},
        {"net.srv_srv_gib", "GiB"},
        {"net.nic_util", "ratio"},
        {"net.queue_wait_p99_s", "sim_s"},
        {"net.wire_p99_s", "sim_s"},
        {"storage.disk_util", "ratio"},
        {"storage.disk_p99_s", "sim_s"},
        {"storage.server_compute_util", "ratio"},
        {"storage.client_compute_util", "ratio"},
        {"grid.make_input_s", "s"},
        {"grid.mib_per_s", "MiB/s"},
        {"kernels.flow-routing.mcells_per_s", "Mcells/s"},
        {"kernels.gaussian-2d.mcells_per_s", "Mcells/s"},
        {"kernels.reference_s", "s"},
        {"traffic.reads", "count"},
        {"traffic.hedges", "count"},
        {"traffic.hedge_win_ratio", "ratio"},
        {"traffic.reroutes", "count"},
        {"traffic.wasted_gib", "GiB"},
        {"traffic.deferred", "count"},
        {"traffic.admission_wait_p95_s", "sim_s"},
        {"telemetry.spans", "count"},
        {"telemetry.slo_alerts", "count"},
    };
    for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
      list.emplace_back(hop_metric(h), "sim_s");
    }
    list.emplace_back("bench.trace_overhead", "ratio");
    return list;
  }();
  return kList;
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

std::string record_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".txt";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const das::runner::Args args(argc, argv);
    const std::string name = args.get("workload", "");
    const Workload workload = parse_workload(name);
    const auto seed =
        static_cast<std::uint64_t>(args.get_int("seed", kDefaultSeed));
    const auto arrival_seed = static_cast<std::uint64_t>(
        args.get_int("arrival-seed", kDefaultSeed));
    const double seconds = args.get_double("seconds", 10.0);
    const bool trace = args.get_int("trace", 0) != 0;
    const std::string records = args.get("records", "");
    const std::string out_dir = args.get("out", ".");
    const bool write_records = args.get_bool("write-records", false);
    if (const std::string u = args.unused(); !u.empty()) {
      std::cerr << "unknown flags: " << u << "\n";
      return 2;
    }
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

    const double load1 = load_average_1m();
    const std::uint64_t steal_start = steal_ticks();
    const double start = host_now();

    std::vector<SchemeRunOptions> cells;
    traffic::TrafficConfig storm;
    std::vector<std::string> gain_kernels;
    switch (workload) {
      case Workload::kPaperMatrix:
        cells = paper_matrix_cells();
        gain_kernels = das::runner::paper_kernels();
        std::printf("seed: %llu ignored: paper-matrix runs at zero disk "
                    "jitter, so its results do not depend on the seed\n",
                    static_cast<unsigned long long>(seed));
        break;
      case Workload::kDataVerify:
        cells = data_verify_cells(seed);
        gain_kernels = {"flow-routing", "gaussian-2d"};
        std::printf("seed: %llu feeds the raster content; the simulated rows "
                    "do not depend on it\n",
                    static_cast<unsigned long long>(seed));
        break;
      case Workload::kTenantStorm:
        storm = tenant_storm_config(seed, arrival_seed);
        std::printf(
            "seed: %llu feeds the cluster seed (per-disk jitter streams, "
            "inert at zero jitter); arrivals use --arrival-seed=%llu. The "
            "sojourn quantiles swing 30-40%% between arrival seeds, so the "
            "timed schedule stays fixed; a held-out schedule is a run with "
            "another --arrival-seed\n",
            static_cast<unsigned long long>(seed),
            static_cast<unsigned long long>(arrival_seed));
        break;
    }

    std::optional<std::vector<std::string>> record;
    if (!records.empty() && !write_records) {
      record = load_record(record_path(records, name),
                           record_key(workload, arrival_seed));
    }
    ResultCheck check(record);
    Tally tally;
    std::vector<PassCost> untraced;
    std::vector<TracedPass> traced;
    std::vector<Span> spans;
    std::vector<RunReport> reports;
    std::vector<PassCost> traced_cost;
    traffic::TrafficReport storm_report;
    SimSummary sim;
    double first_pass_peak_mib = 0.0;
    // A paper-matrix cell lasts ~50 ms, so one probe brackets it; the
    // seconds-long calls of the other workloads take the median of three.
    SpeedGauge gauge(workload == Workload::kPaperMatrix ? 1 : 3);

    // Untraced passes until --seconds would be exceeded; a traced run
    // alternates untraced and traced passes and makes at least one of each.
    for (int pass = 0;; ++pass) {
      const bool traced_pass = trace && pass % 2 == 1;
      TracedPass* t = nullptr;
      if (traced_pass) {
        traced.emplace_back();
        traced.back().spans = &spans;
        t = &traced.back();
      }
      const double pass_begin = host_now();
      const PassCost cost =
          workload == Workload::kTenantStorm
              ? storm_pass(storm, gauge, check, tally, storm_report, t)
              : scheme_pass(workload, cells, gauge, check, tally, reports,
                            t);
      (traced_pass ? traced_cost : untraced).push_back(cost);
      if (pass == 0) {
        // Later passes can only raise the high-water mark through memory
        // the allocator kept from earlier ones, and how many passes fit in
        // --seconds follows the host's speed.
        first_pass_peak_mib = peak_rss_mib();
        if (workload == Workload::kTenantStorm) {
          const traffic::TenantStats& total = storm_report.total;
          sim.exec_s = storm_report.makespan_s;
          sim.net_bytes = static_cast<double>(total.bytes_read +
                                              storm_report.wasted_bytes);
          sim.p50_sojourn_s = total.sojourn.quantile(0.5);
          sim.p99_sojourn_s = total.sojourn.quantile(0.99);
          std::printf("sojourn: n=%zu jobs\n", total.sojourn.count());
        } else {
          sim = summarize(reports, gain_kernels);
        }
      }
      const double now = host_now();
      const bool enough = trace ? !traced.empty() : true;
      if (enough && now - start + (now - pass_begin) > seconds) break;
    }

    const std::vector<std::string>& lines = check.first();
    std::printf("results: passes=%zu lines=%zu digest=%016llx record=%s\n",
                untraced.size() + traced.size(), lines.size(),
                static_cast<unsigned long long>(digest(lines)),
                check.has_record() ? "checked" : "none for these inputs");
    for (const std::string& why : tally.reasons) {
      std::printf("FAILED: %s\n", why.c_str());
    }
    if (write_records) {
      const std::string path = record_path(records, name);
      std::ofstream out(path, std::ios::trunc);
      out << "# " << record_key(workload, arrival_seed) << "\n";
      for (const std::string& line : lines) out << line << "\n";
      if (!out) throw std::runtime_error("cannot write record " + path);
      std::printf("record written: %s\n", path.c_str());
    }

    std::vector<Metric> metrics;
    const auto pass_median = [](const std::vector<PassCost>& passes,
                                double PassCost::*field) {
      std::vector<double> values;
      for (const PassCost& c : passes) values.push_back(c.*field);
      return median(values);
    };
    if (!trace) {
      std::vector<double> rates, raw_rates;
      for (const PassCost& c : untraced) {
        rates.push_back(static_cast<double>(c.events) / c.loop_s);
        raw_rates.push_back(static_cast<double>(c.events) / c.raw_loop_s);
      }
      const double error_rate =
          static_cast<double>(tally.failed) /
          static_cast<double>(std::max<std::uint64_t>(1, tally.attempted));
      metrics = {
          {"wall_s", pass_median(untraced, &PassCost::wall_s), "s"},
          {"setup_s", pass_median(untraced, &PassCost::setup_s), "s"},
          {"events_per_s", median(rates), "1/s"},
          {"peak_rss_mib", first_pass_peak_mib, "MiB"},
          {"success_rate", 1.0 - error_rate, "ratio"},
          {"sim_exec_s", sim.exec_s, "sim_s"},
          {"sim_net_gib", sim.net_bytes / kGiB, "GiB"},
          {"sim_p50_sojourn_s", sim.p50_sojourn_s, "sim_s"},
          {"sim_p99_sojourn_s", sim.p99_sojourn_s, "sim_s"},
      };
      std::printf(
          "as measured: wall_s %.9g s, setup_s %.9g s, events_per_s %.9g "
          "1/s; speed probe %.6f s (reference %.6f s)\n",
          pass_median(untraced, &PassCost::raw_wall_s),
          pass_median(untraced, &PassCost::raw_setup_s), median(raw_rates),
          gauge.median_probe_s(), kProbeReferenceS);
      std::printf("error_rate %.9g ratio (%llu of %llu failed)\n",
                  error_rate, static_cast<unsigned long long>(tally.failed),
                  static_cast<unsigned long long>(tally.attempted));
      if (workload != Workload::kTenantStorm) {
        std::printf("sim_das_gain_ts %.6f ratio (paper: > 0.30)\n"
                    "sim_das_gain_nas %.6f ratio (paper: about 0.60)\n",
                    sim.das_gain_ts, sim.das_gain_nas);
      }
    } else {
      std::map<std::string, std::vector<double>> samples;
      for (TracedPass& t : traced) {
        auto& v = t.values;
        v["simkit.ns_per_event"] =
            v["simkit.events"] > 0.0
                ? v["simkit.loop_s"] / v["simkit.events"] * 1e9
                : 0.0;
        v["grid.mib_per_s"] = v["grid.make_input_s"] > 0.0
                                  ? v["bench.input_mib"] /
                                        v["grid.make_input_s"]
                                  : 0.0;
        for (const auto& [key, value] : v) samples[key].push_back(value);
      }
      samples["bench.trace_overhead"] = {
          pass_median(traced_cost, &PassCost::wall_s) /
          pass_median(untraced, &PassCost::wall_s)};
      for (const auto& [metric, unit] : layer_metrics()) {
        const auto it = samples.find(metric);
        metrics.push_back(
            {metric, it == samples.end() ? 0.0 : median(it->second), unit});
      }
      const std::string path = out_dir + "/trace-" + name + "-" +
                               std::to_string(seed) + ".json";
      std::ofstream out(path, std::ios::trunc);
      out << chrome_trace_json(spans, "das_perfbench " + name);
      if (!out) throw std::runtime_error("cannot write trace " + path);
      std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
    }

    std::printf(
        "host: nproc=%ld load1_start=%.2f steal_ticks=%llu isa=%s "
        "build=%s run_s=%.3f\n",
        sysconf(_SC_NPROCESSORS_ONLN), load1,
        static_cast<unsigned long long>(steal_ticks() - steal_start),
        das::kernels::simd::to_string(das::kernels::simd::active_isa()),
        PERFBENCH_BUILD_TYPE, host_now() - start);
    print_result(metrics, tally);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "das_perfbench: " << error.what() << "\n";
    return 2;
  }
}
