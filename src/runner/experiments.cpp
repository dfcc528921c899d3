#include "runner/experiments.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/as_client.hpp"
#include "core/bandwidth_model.hpp"
#include "core/ingest.hpp"
#include "core/scheme.hpp"
#include "core/ts_executor.hpp"
#include "core/workload.hpp"
#include "kernels/features.hpp"
#include "kernels/registry.hpp"
#include "runner/paper.hpp"
#include "runner/sweep.hpp"
#include "simkit/assert.hpp"
#include "simkit/context.hpp"

namespace das::runner {
namespace {

using core::RunReport;
using core::Scheme;
using Reports = std::vector<RunReport>;
using Checks = std::vector<ShapeCheck>;

/// One simulation of an experiment. A non-empty share key marks a paper
/// cell: every experiment that names the key reads the same run.
struct Cell {
  std::string share_key;
  std::function<RunReport(sim::RunContext&)> run;
  bool row = true;  // printed in the report table
};

struct Experiment {
  const char* id;
  const char* title;
  const char* claim;  // null for Table I, which has no cells
  std::vector<Cell> cells;
  /// Returns the text printed between the banner and the report table and
  /// appends the shape checks; `reports` are in cell order.
  std::function<std::string(const Reports& reports, Checks& checks)> derive;
};

/// printf onto the end of `out`.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out,
                                           const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list sizing;
  va_copy(sizing, args);
  const auto length =
      static_cast<std::size_t>(std::vsnprintf(nullptr, 0, format, sizing));
  va_end(sizing);
  const std::size_t at = out.size();
  out.resize(at + length + 1);
  std::vsnprintf(out.data() + at, length + 1, format, args);
  va_end(args);
  out.resize(at + length);
}

double gib_of(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1 << 30);
}

core::SchemeRunOptions paper_options(Scheme scheme, const std::string& kernel,
                                     std::uint64_t gib,
                                     std::uint32_t nodes = 24) {
  core::SchemeRunOptions o;
  o.scheme = scheme;
  o.workload = paper_workload(kernel, gib);
  o.cluster = paper_cluster(nodes);
  return o;
}

/// A run_scheme cell of its own.
Cell scheme_cell(core::SchemeRunOptions options, bool row = true) {
  return {"",
          [options = std::move(options)](sim::RunContext& context) {
            core::SchemeRunOptions o = options;
            o.context = &context;
            return core::run_scheme(o);
          },
          row};
}

/// One (scheme, kernel, GiB, nodes) point of the paper's grid, shared.
Cell paper_cell(Scheme scheme, const std::string& kernel, std::uint64_t gib,
                std::uint32_t nodes = 24) {
  Cell cell = scheme_cell(paper_options(scheme, kernel, gib, nodes));
  cell.share_key = std::string(to_string(scheme)) + '/' + kernel + '/' +
                   std::to_string(gib) + "GiB/" + std::to_string(nodes);
  return cell;
}

/// The combined report of a run_pipeline over `chain`.
Cell pipeline_cell(core::SchemeRunOptions options,
                   std::vector<std::string> chain) {
  return {"", [options = std::move(options),
               chain = std::move(chain)](sim::RunContext& context) {
            core::SchemeRunOptions o = options;
            o.context = &context;
            return core::run_pipeline(o, chain).back();
          }};
}

double average_step_growth(const std::vector<double>& times) {
  double total = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    total += times[i] / times[i - 1] - 1.0;
  }
  return total / static_cast<double>(times.size() - 1);
}

// ---------------------------------------------------------------- Table I

Experiment table1() {
  return {"table1", "Table I: description of data analysis kernels", nullptr,
          {}, [](const Reports&, Checks&) {
            std::string out;
            const auto registry = kernels::standard_registry();
            for (const std::string& name : registry.names()) {
              const auto kernel = registry.create(name);
              appendf(out, "%-18s  %s\n", kernel->name().c_str(),
                      kernel->description().c_str());
              appendf(out, "%-18s  %s\n", "",
                      kernel->features().format().c_str());
            }
            return out + "\n";
          }};
}

// ------------------------------------------------------- Figs. 10-14 (§IV)

const std::uint64_t kSizes[] = {24, 36, 48, 60};

// Ignoring data dependence makes "normal" active storage slower than
// traditional storage, 24-60 GB on 24 nodes.
Experiment fig10() {
  Experiment e{"fig10",
               "Fig. 10: Comparison of Execution Time for NAS and TS Schemes",
               "NAS is much slower than TS for every kernel and size",
               {},
               {}};
  for (const std::string& kernel : paper_kernels()) {
    for (const std::uint64_t gib : kSizes) {
      e.cells.push_back(paper_cell(Scheme::kNAS, kernel, gib));
      e.cells.push_back(paper_cell(Scheme::kTS, kernel, gib));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::size_t next = 0;
    for (const std::string& kernel : paper_kernels()) {
      for (const std::uint64_t gib : kSizes) {
        const RunReport& nas = r[next++];
        const RunReport& ts = r[next++];
        checks.push_back(
            {"NAS/TS time ratio, " + kernel + ", " + std::to_string(gib) +
                 " GiB",
             "NAS slower than TS (> 1.0)", nas.exec_seconds / ts.exec_seconds,
             nas.exec_seconds > ts.exec_seconds});
      }
    }
    return std::string();
  };
  return e;
}

// The paper reports DAS over 30% faster than TS and over 60% faster than
// NAS at 24 GB on 24 nodes.
Experiment fig11() {
  Experiment e{
      "fig11",
      "Fig. 11: Comparison of Execution Time for NAS, DAS and TS Schemes",
      "DAS > 30% faster than TS and > 60% faster than NAS at 24 GB",
      {},
      {}};
  for (const std::string& kernel : paper_kernels()) {
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS, Scheme::kTS}) {
      e.cells.push_back(paper_cell(scheme, kernel, 24));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::size_t next = 0;
    for (const std::string& kernel : paper_kernels()) {
      const double nas = r[next++].exec_seconds;
      const double das = r[next++].exec_seconds;
      const double ts = r[next++].exec_seconds;
      const double vs_ts = 1.0 - das / ts;
      const double vs_nas = 1.0 - das / nas;
      checks.push_back({"DAS improvement over TS, " + kernel, "over 30%",
                        vs_ts, vs_ts > 0.30});
      checks.push_back({"DAS improvement over NAS, " + kernel, "over 60%",
                        vs_nas, vs_nas > 0.60});
    }
    return std::string();
  };
  return e;
}

// DAS execution time grows ~15% per +12 GB step on average (24 -> 60 GB,
// 24 nodes) while NAS and TS grow over 30%.
Experiment fig12() {
  Experiment e{
      "fig12",
      "Fig. 12: Execution Time of NAS, TS and DAS as Data Size Increases",
      "DAS grows ~15% per +12 GB on average; NAS and TS grow over 30%",
      {},
      {}};
  for (const std::string& kernel : paper_kernels()) {
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS, Scheme::kTS}) {
      for (const std::uint64_t gib : kSizes) {
        e.cells.push_back(paper_cell(scheme, kernel, gib));
      }
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::size_t next = 0;
    for (const std::string& kernel : paper_kernels()) {
      double growth[3];  // NAS, DAS, TS
      for (double& g : growth) {
        std::vector<double> times;
        for (std::size_t i = 0; i < std::size(kSizes); ++i) {
          times.push_back(r[next++].exec_seconds);
        }
        g = average_step_growth(times);
      }
      const auto [nas, das, ts] = growth;
      checks.push_back({"DAS avg growth per +12 GiB, " + kernel,
                        "~15% (lowest of the three, tested < 0.25)", das,
                        das < ts && das < nas && das < 0.25});
      checks.push_back({"TS avg growth per +12 GiB, " + kernel,
                        "over 30% (tested > DAS)", ts, ts > das});
      checks.push_back({"NAS avg growth per +12 GiB, " + kernel,
                        "over 30% (tested > 0.25)", nas, nas > 0.25});
    }
    return std::string();
  };
  return e;
}

const std::uint32_t kNodes[] = {24, 36, 48, 60};

// Both schemes scale from 24 to 60 nodes (half storage, half compute) at a
// fixed 60 GB, with a similar trend; DAS stays ahead at every size.
Experiment fig13() {
  Experiment e{"fig13",
               "Fig. 13: Execution Time as the Number of Nodes Increases",
               "DAS and TS both scale; time falls with every +12 nodes",
               {},
               {}};
  for (const std::string& kernel : paper_kernels()) {
    for (const Scheme scheme : {Scheme::kDAS, Scheme::kTS}) {
      for (const std::uint32_t nodes : kNodes) {
        e.cells.push_back(paper_cell(scheme, kernel, 60, nodes));
      }
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::size_t next = 0;
    for (const std::string& kernel : paper_kernels()) {
      std::vector<double> times[2];  // DAS, TS
      for (const Scheme scheme : {Scheme::kDAS, Scheme::kTS}) {
        std::vector<double>& t = times[scheme == Scheme::kDAS ? 0 : 1];
        bool monotone = true;
        for (std::size_t i = 0; i < std::size(kNodes); ++i) {
          t.push_back(r[next++].exec_seconds);
          monotone = monotone && (i == 0 || t[i] < t[i - 1]);
        }
        checks.push_back(
            {std::string(to_string(scheme)) + " scales with nodes, " + kernel,
             "time falls 24 -> 60 nodes", t.back() / t.front(), monotone});
      }
      for (std::size_t i = 0; i < std::size(kNodes); ++i) {
        checks.push_back({"DAS/TS at " + std::to_string(kNodes[i]) +
                              " nodes, " + kernel,
                          "DAS faster (< 1.0)", times[0][i] / times[1][i],
                          times[0][i] < times[1][i]});
      }
    }
    return std::string();
  };
  return e;
}

const std::uint64_t kBandwidthSizes[] = {24, 36, 48};

// Normalized sustained bandwidth of flow-routing (TS = 1.0), 24 -> 48 GB on
// 24 nodes: DAS improves on TS by nearly one fold, NAS sits below TS.
Experiment fig14() {
  Experiment e{"fig14",
               "Fig. 14: Normalized Sustained Bandwidth (flow-routing)",
               "DAS ~2x TS; NAS below TS, at every data size",
               {},
               {}};
  for (const std::uint64_t gib : kBandwidthSizes) {
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS, Scheme::kTS}) {
      e.cells.push_back(paper_cell(scheme, "flow-routing", gib));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out = "\nnormalized sustained bandwidth (TS = 1.0):\n";
    appendf(out, "%8s %8s %8s %8s\n", "GiB", "NAS", "DAS", "TS");
    std::size_t next = 0;
    for (const std::uint64_t gib : kBandwidthSizes) {
      const double nas = r[next++].sustained_bandwidth_bps();
      const double das = r[next++].sustained_bandwidth_bps();
      const double ts = r[next++].sustained_bandwidth_bps();
      appendf(out, "%8llu %8.2f %8.2f %8.2f\n",
              static_cast<unsigned long long>(gib), nas / ts, das / ts, 1.0);
      checks.push_back({"DAS normalized bandwidth, " + std::to_string(gib) +
                            " GiB",
                        "well above TS (~2x, tested > 1.4)", das / ts,
                        das / ts > 1.4});
      checks.push_back({"NAS normalized bandwidth, " + std::to_string(gib) +
                            " GiB",
                        "below TS (< 1.0)", nas / ts, nas / ts < 1.0});
    }
    return out;
  };
  return e;
}

// ------------------------------------------------------ Ablations A1-A9

const std::uint64_t kGroupSizes[] = {4, 8, 16, 32, 64};

// The layout trades capacity (2*halo/r) against nothing at runtime, but
// small r multiplies output-replica propagation.
Experiment a1() {
  Experiment e{
      "a1", "Ablation A1: DAS group size r (capacity overhead 2/r vs traffic)",
      "larger r shrinks replica traffic toward zero; all r beat TS",
      {paper_cell(Scheme::kTS, "flow-routing", 24)},
      {}};
  for (const std::uint64_t r : kGroupSizes) {
    core::SchemeRunOptions o = paper_options(Scheme::kDAS, "flow-routing", 24);
    o.distribution.group_size = r;
    o.distribution.max_capacity_overhead = 1.0;  // let r alone control it
    e.cells.push_back(scheme_cell(o));
  }
  e.derive = [](const Reports& reports, Checks& checks) {
    std::string out;
    appendf(out, "\n%6s %10s %14s %16s\n", "r", "time(s)", "srv-srv GiB",
            "capacity +%");
    const RunReport& ts = reports[0];
    double previous_srv = 1e30;
    std::size_t next = 1;
    for (const std::uint64_t r : kGroupSizes) {
      const RunReport& rep = reports[next++];
      const double srv = gib_of(rep.server_server_bytes);
      appendf(out, "%6llu %10.2f %14.3f %16.2f\n",
              static_cast<unsigned long long>(r), rep.exec_seconds, srv,
              2.0 / static_cast<double>(r) * 100.0);
      checks.push_back({"DAS(r=" + std::to_string(r) + ") beats TS",
                        "faster than TS", rep.exec_seconds / ts.exec_seconds,
                        rep.exec_seconds < ts.exec_seconds});
      checks.push_back({"replica traffic shrinks, r=" + std::to_string(r),
                        "monotone in 1/r", srv,
                        static_cast<double>(rep.server_server_bytes) <=
                            previous_srv});
      previous_srv = static_cast<double>(rep.server_server_bytes);
    }
    return out;
  };
  return e;
}

const std::uint64_t kStripSizes[] = {256ULL << 10, 512ULL << 10, 1ULL << 20,
                                     2ULL << 20, 4ULL << 20};

// Strip size at a fixed raster geometry (1 MiB rows): Eqs. 1-4 make
// locality depend on where dependence offsets land relative to strip
// boundaries, so NAS traffic and the predicted bwcost move together.
Experiment a2() {
  constexpr std::uint32_t kRowElements = (1U << 20) / 4 - 1;
  Experiment e{
      "a2",
      "Ablation A2: strip size vs dependence traffic (rows fixed at 1 MiB)",
      "small strips multiply NAS halo fetches (whole rows per strip); DAS "
      "stays near zero at every strip size",
      {},
      {}};
  for (const std::uint64_t strip : kStripSizes) {
    core::SchemeRunOptions o;
    o.workload.kernel_name = "flow-routing";
    o.workload.data_bytes = 12ULL << 30;
    o.workload.strip_size = strip;
    o.workload.raster_width = kRowElements;
    o.cluster = paper_cluster(24);
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS}) {
      o.scheme = scheme;
      e.cells.push_back(scheme_cell(o));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%12s %12s %14s %14s %14s\n", "strip", "NAS time",
            "NAS srv-srv", "DAS srv-srv", "bwcost/elem");
    const auto offsets = kernels::eight_neighbor_pattern("flow-routing")
                             .resolve(kRowElements);
    std::size_t next = 0;
    for (const std::uint64_t strip : kStripSizes) {
      const RunReport& nas = r[next++];
      const RunReport& das = r[next++];
      const double bwcost = core::bwcost_per_element(
          offsets, 4, strip, core::PlacementSpec{12, 1, 0});
      appendf(out, "%9lluKiB %11.2fs %13.2fG %13.2fG %14.3f\n",
              static_cast<unsigned long long>(strip >> 10), nas.exec_seconds,
              gib_of(nas.server_server_bytes), gib_of(das.server_server_bytes),
              bwcost);
      const std::string kib = std::to_string(strip >> 10);
      checks.push_back({"DAS beats NAS at strip " + kib + " KiB",
                        "DAS faster", das.exec_seconds / nas.exec_seconds,
                        das.exec_seconds < nas.exec_seconds});
      checks.push_back(
          {"DAS dependence traffic small, strip " + kib + " KiB",
           "srv-srv well below NAS (tested < 0.5)",
           static_cast<double>(das.server_server_bytes) /
               static_cast<double>(nas.server_server_bytes),
           das.server_server_bytes < nas.server_server_bytes / 2});
    }
    return out;
  };
  return e;
}

// The offload decision (Fig. 3) on vs off. On a round-robin file with no
// successive operation to amortize a re-layout, DAS rejects the offload and
// lands at TS; a dependence-unaware offload lands at NAS.
Experiment a3() {
  Experiment e{"a3",
               "Ablation A3: offload decision on vs off (round-robin input, "
               "single operation)",
               "dynamic DAS rejects the offload and matches TS; forced "
               "offload pays the NAS penalty",
               {},
               {}};
  for (const std::string& kernel : paper_kernels()) {
    // Dynamic DAS, forced offload (= NAS), and the TS reference the
    // decision should land on, all on one round-robin file.
    for (const Scheme scheme : {Scheme::kDAS, Scheme::kNAS, Scheme::kTS}) {
      core::SchemeRunOptions o = paper_options(scheme, kernel, 24);
      o.pre_distributed = false;
      o.pipeline_length = 1;
      e.cells.push_back(scheme_cell(o));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::size_t next = 0;
    for (const std::string& kernel : paper_kernels()) {
      const RunReport& dynamic = r[next++];
      const RunReport& forced = r[next++];
      const RunReport& ts = r[next++];
      checks.push_back({"decision rejects the offload, " + kernel,
                        "served as normal I/O", dynamic.offloaded ? 1.0 : 0.0,
                        !dynamic.offloaded});
      checks.push_back({"dynamic DAS ~ TS, " + kernel,
                        "within 5% of TS (tested < 1.05)",
                        dynamic.exec_seconds / ts.exec_seconds,
                        dynamic.exec_seconds < ts.exec_seconds * 1.05});
      checks.push_back({"forced offload pays the NAS penalty, " + kernel,
                        "well above dynamic DAS (tested > 1.3)",
                        forced.exec_seconds / dynamic.exec_seconds,
                        forced.exec_seconds > dynamic.exec_seconds * 1.3});
    }
    return std::string();
  };
  return e;
}

// Amortizing the re-layout over successive operations (flow-routing ->
// flow-accumulation): from a round-robin file, redistribution loses for
// one operation and wins as every later stage inherits the layout.
Experiment a4() {
  Experiment e{"a4",
               "Ablation A4: re-layout cost amortized over pipeline depth "
               "(round-robin start, 12 GiB, 24 nodes)",
               "runtime redistribution loses at depth 1, wins from shallow "
               "depths on",
               {},
               {}};
  for (std::uint32_t depth = 1; depth <= 4; ++depth) {
    std::vector<std::string> chain{"flow-routing"};
    chain.resize(depth, "flow-accumulation");
    for (const Scheme scheme : {Scheme::kDAS, Scheme::kTS}) {
      core::SchemeRunOptions o = paper_options(scheme, "flow-routing", 12);
      o.pre_distributed = false;
      e.cells.push_back(pipeline_cell(o, chain));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%6s %12s %12s %10s\n", "depth", "DAS(s)", "TS(s)",
            "DAS/TS");
    double ratio = 0.0;
    for (std::uint32_t depth = 1; depth <= 4; ++depth) {
      const double das = r[2 * depth - 2].exec_seconds;
      const double ts = r[2 * depth - 1].exec_seconds;
      ratio = das / ts;
      appendf(out, "%6u %12.2f %12.2f %10.2f\n", depth, das, ts, ratio);
      if (depth == 1) {
        checks.push_back({"depth 1: decision avoids a losing re-layout",
                          "DAS within ~10% of TS (tested < 1.1)", ratio,
                          ratio < 1.1});
      }
    }
    checks.push_back({"deep pipelines amortize the re-layout",
                      "DAS clearly ahead at depth 4 (tested < 0.8)", ratio,
                      ratio < 0.8});
    return out;
  };
  return e;
}

const double kSlowdowns[] = {1.0, 2.0, 4.0, 8.0};

// One of twelve servers slowed 1-8x: offloaded compute is bound to data
// placement, so DAS degrades more than TS, whose bottleneck is the client
// links (flow-routing, 24 GiB, 24 nodes).
Experiment a5() {
  Experiment e{"a5",
               "Ablation A5: one slow storage server (flow-routing, 24 GiB, "
               "24 nodes)",
               "DAS degrades more than TS as the straggler slows: offloaded "
               "compute is bound to data placement",
               {},
               {}};
  for (const double slowdown : kSlowdowns) {
    for (const Scheme scheme : {Scheme::kDAS, Scheme::kTS}) {
      if (slowdown == 1.0) {
        e.cells.push_back(paper_cell(scheme, "flow-routing", 24));
        continue;
      }
      core::SchemeRunOptions o = paper_options(scheme, "flow-routing", 24);
      o.cluster.straggler_count = 1;
      o.cluster.straggler_slowdown = slowdown;
      e.cells.push_back(scheme_cell(o));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%10s %12s %12s %12s %12s\n", "slowdown", "DAS(s)",
            "DAS hit", "TS(s)", "TS hit");
    const double das_base = r[0].exec_seconds;
    const double ts_base = r[1].exec_seconds;
    std::size_t next = 0;
    for (const double slowdown : kSlowdowns) {
      const double das = r[next++].exec_seconds;
      const double ts = r[next++].exec_seconds;
      const double das_hit = das / das_base;
      const double ts_hit = ts / ts_base;
      appendf(out, "%9.0fx %12.2f %11.2fx %12.2f %11.2fx\n", slowdown, das,
              das_hit, ts, ts_hit);
      if (slowdown >= 4.0) {
        checks.push_back({"DAS hit exceeds TS hit at " +
                              std::to_string(static_cast<int>(slowdown)) +
                              "x",
                          "active storage is placement-bound",
                          das_hit / ts_hit, das_hit > ts_hit});
      }
      if (slowdown == 2.0) {
        // A mild straggler does not erase the layout advantage; by ~4x the
        // placement-bound compute lets TS catch up (the crossover this
        // ablation exists to expose).
        checks.push_back({"DAS still beats TS at 2x",
                          "layout advantage survives a mild straggler",
                          das / ts, das < ts});
      }
    }
    return out;
  };
  return e;
}

/// Ingest 12 GiB with `layout`, then run flow-routing under `scheme`, in
/// one simulation. The report's time covers both phases; the ingest phase
/// alone goes to `ingest_seconds` when it is not null.
RunReport ingest_then_run(sim::RunContext& context,
                          std::unique_ptr<pfs::Layout> layout, Scheme scheme,
                          bool pre_distributed_counts,
                          double* ingest_seconds) {
  const core::WorkloadSpec workload = paper_workload("flow-routing", 12);
  const core::ClusterConfig config = paper_cluster(24);
  core::Cluster cluster(config, &context);
  core::Ingestor ingestor(cluster);
  sim::SimTime ingest_done = -1;
  const pfs::FileId input =
      ingestor.ingest(workload.make_meta("input"), std::move(layout), nullptr,
                      [&] { ingest_done = cluster.simulator().now(); });
  cluster.simulator().run();
  DAS_REQUIRE(ingest_done >= 0);
  if (ingest_seconds != nullptr) {
    *ingest_seconds = sim::to_seconds(ingest_done);
  }

  // Process the freshly ingested file through the Active Storage Client
  // (offload) or the TS executor (normal) in the same simulation.
  const kernels::KernelRegistry registry = kernels::standard_registry();
  const core::DistributionConfig distribution;
  core::ActiveStorageClient client(cluster, registry, distribution);
  core::ActiveRequest request;
  request.input = input;
  request.kernel_name = "flow-routing";
  request.allow_redistribution = scheme == Scheme::kDAS;
  request.pipeline_length = pre_distributed_counts ? 1 : 2;
  sim::SimTime finished = -1;
  client.submit(request, [&] { finished = cluster.simulator().now(); });
  cluster.simulator().run();
  DAS_REQUIRE(finished >= 0);

  RunReport report;
  report.scheme = to_string(scheme);
  report.kernel = "ingest+flow-routing";
  report.data_bytes = workload.data_bytes;
  report.storage_nodes = config.storage_nodes;
  report.compute_nodes = config.compute_nodes;
  report.exec_seconds = sim::to_seconds(finished);
  report.client_server_bytes =
      cluster.network().bytes_delivered(net::TrafficClass::kClientServer);
  report.server_server_bytes =
      cluster.network().bytes_delivered(net::TrafficClass::kServerServer);
  return report;
}

// When to establish the DAS layout for a dataset a stencil pipeline will
// process: never (serve round-robin normally), at first use (runtime
// redistribution), or at ingest (pay only 2/r extra at load).
Experiment a6() {
  // Ingest-phase seconds of the round-robin and the DAS-layout cell; each
  // cell writes its own slot before derive reads both.
  auto ingest = std::make_shared<std::array<double, 2>>();
  static constexpr std::uint32_t kServers = 12;
  return {
      "a6",
      "Ablation A6: establishing the DAS layout at ingest vs at first use "
      "(12 GiB + one flow-routing pass, 24 nodes)",
      "ingest-into-DAS is cheapest end to end; runtime re-layout pays the "
      "full move; never-re-laying-out pays TS every pass",
      {{"",
        [ingest](sim::RunContext& context) {
          return ingest_then_run(
              context, std::make_unique<pfs::RoundRobinLayout>(kServers),
              Scheme::kTS, true, &(*ingest)[0]);
        }},
       {"",
        [](sim::RunContext& context) {
          return ingest_then_run(
              context, std::make_unique<pfs::RoundRobinLayout>(kServers),
              Scheme::kDAS, false, nullptr);
        }},
       {"",
        [ingest](sim::RunContext& context) {
          return ingest_then_run(
              context,
              std::make_unique<pfs::DasReplicatedLayout>(kServers, 16, 1),
              Scheme::kDAS, true, &(*ingest)[1]);
        }}},
      [ingest](const Reports& r, Checks& checks) {
        const auto [rr_ingest, das_ingest] = *ingest;
        const double never = r[0].exec_seconds;
        const double relayout = r[1].exec_seconds;
        const double at_ingest = r[2].exec_seconds;
        std::string out;
        appendf(out,
                "\nround-robin ingest: %.2f s; DAS-layout ingest: %.2f s "
                "(+%.1f%%)\n",
                rr_ingest, das_ingest, 100.0 * (das_ingest / rr_ingest - 1.0));
        // Volume overhead is 2/r = 12.5%; the measured time overhead runs
        // about twice that because a strip's window slot is held until
        // every holder (primary + replica) has acked, so the slowest ack
        // gates the pipeline.
        checks.push_back({"DAS-layout ingest overhead",
                          "small (2/r volume + ack gating, tested < 0.35)",
                          das_ingest / rr_ingest - 1.0,
                          das_ingest / rr_ingest - 1.0 < 0.35});
        checks.push_back({"ingest-into-DAS beats runtime re-layout",
                          "cheapest end to end", at_ingest / relayout,
                          at_ingest < relayout});
        checks.push_back({"ingest-into-DAS beats never-re-laying-out",
                          "offload pays off", at_ingest / never,
                          at_ingest < never});
        return out;
      }};
}

// Iterative halo exchange: flow accumulation as R accumulation stages.
// Each extra round re-reads the previous round's output with its halo,
// locally under DAS and over the network under round-robin (NAS).
Experiment a7() {
  Experiment e{"a7",
               "Ablation A7: halo-exchange rounds (flow-accumulation x R, 12 "
               "GiB, 24 nodes)",
               "per-round cost: NAS re-ships ~2x the file between servers "
               "every round; DAS rounds are local",
               {},
               {}};
  for (std::uint32_t rounds = 1; rounds <= 4; ++rounds) {
    for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS}) {
      e.cells.push_back(
          pipeline_cell(paper_options(scheme, "flow-accumulation", 12),
                        std::vector<std::string>(rounds, "flow-accumulation")));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%7s %10s %10s %14s %14s\n", "rounds", "NAS(s)", "DAS(s)",
            "NAS srv-srv", "DAS srv-srv");
    double nas_round_cost = 0.0, das_round_cost = 0.0;
    for (std::uint32_t rounds = 1; rounds <= 4; ++rounds) {
      const RunReport& nas = r[2 * rounds - 2];
      const RunReport& das = r[2 * rounds - 1];
      appendf(out, "%7u %10.2f %10.2f %13.2fG %13.2fG\n", rounds,
              nas.exec_seconds, das.exec_seconds,
              gib_of(nas.server_server_bytes),
              gib_of(das.server_server_bytes));
      if (rounds > 1) {
        nas_round_cost = nas.exec_seconds - r[2 * rounds - 4].exec_seconds;
        das_round_cost = das.exec_seconds - r[2 * rounds - 3].exec_seconds;
      }
    }
    checks.push_back({"marginal round cost, NAS vs DAS",
                      "NAS round much dearer (network vs local disk, "
                      "tested > 2)",
                      nas_round_cost / das_round_cost,
                      nas_round_cost > 2.0 * das_round_cost});
    checks.push_back({"DAS marginal round cost", "seconds, small (tested > 0)",
                      das_round_cost, das_round_cost > 0.0});
    return out;
  };
  return e;
}

const std::string kCacheKernels[] = {"flow-routing", "median-3x3"};
const std::string kCachePolicies[] = {"lru", "lfu"};
// Per-server halo working set: 2 remote strips per local strip, 512 strips
// per server -> 1 GiB. The sweep brackets it.
const std::uint64_t kCacheCapacities[] = {0, 256ULL << 20, 512ULL << 20,
                                          1024ULL << 20, 2048ULL << 20};

// Server-side remote-strip caching under recurring analyses: NAS runs a
// kernel 4 times over the same round-robin file, and each pass's halo is
// fetched from neighbouring servers unless the strip cache absorbed it.
Experiment a8() {
  Experiment e{"a8",
               "Ablation A8: remote-strip cache capacity x policy x kernel "
               "(NAS, round-robin, 6 GiB, 24 nodes, 4 repeats)",
               "caching the fetched halo converts NAS's dependence traffic "
               "into local memory reads on every repeated pass",
               {},
               {}};
  for (const std::string& kernel : kCacheKernels) {
    core::SchemeRunOptions o = paper_options(Scheme::kNAS, kernel, 6);
    o.repeat_count = 4;
    // Uncached reference: the seed's NAS numbers for this repeat count.
    e.cells.push_back(scheme_cell(o, false));
    for (const std::string& policy : kCachePolicies) {
      for (const std::uint64_t capacity : kCacheCapacities) {
        core::SchemeRunOptions cached = o;
        cached.cluster.server_cache.enabled = capacity > 0;
        cached.cluster.server_cache.capacity_bytes = capacity;
        cached.cluster.server_cache.policy = policy;
        e.cells.push_back(scheme_cell(cached));
      }
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%-14s %-6s %10s %14s %9s %10s\n", "kernel", "policy",
            "cache", "srv-srv", "hit-rate", "time(s)");
    std::size_t next = 0;
    for (const std::string& kernel : kCacheKernels) {
      const RunReport& reference = r[next++];
      for (const std::string& policy : kCachePolicies) {
        std::uint64_t last_bytes = UINT64_MAX;
        bool monotone = true;
        std::uint64_t off_bytes = 0;
        double best_hit_rate = 0.0;
        for (const std::uint64_t capacity : kCacheCapacities) {
          const RunReport& report = r[next++];
          appendf(out, "%-14s %-6s %10s %14s %9.2f %10.2f\n", kernel.c_str(),
                  policy.c_str(), core::format_bytes(capacity).c_str(),
                  core::format_bytes(report.server_server_bytes).c_str(),
                  report.cache_hit_rate(), report.exec_seconds);
          monotone = monotone && report.server_server_bytes <= last_bytes;
          last_bytes = report.server_server_bytes;
          if (capacity == 0) off_bytes = report.server_server_bytes;
          best_hit_rate = std::max(best_hit_rate, report.cache_hit_rate());
        }
        const std::string tag = kernel + "/" + policy;
        checks.push_back({tag + ": srv-srv bytes fall with capacity",
                          "monotonically non-increasing across the sweep",
                          static_cast<double>(last_bytes), monotone});
        checks.push_back({tag + ": cache off reproduces uncached NAS",
                          "srv-srv bytes identical to the no-cache-config run",
                          static_cast<double>(off_bytes),
                          off_bytes == reference.server_server_bytes});
        checks.push_back({tag + ": repeats find the steady state",
                          "hit rate > 0.5 once capacity covers the working set",
                          best_hit_rate, best_hit_rate > 0.5});
      }
    }
    return out;
  };
  return e;
}

const std::string kPrefetchKernels[] = {"flow-routing", "gaussian-2d"};
const std::uint64_t kPrefetchStrips[] = {512ULL << 10, 1024ULL << 10,
                                         2048ULL << 10};
const std::uint32_t kPrefetchDepths[] = {0, 1, 2, 4, 8};

// Halo-strip prefetch depth: the prefetcher walks the admitted request's
// fetch plan ahead of the sweep, so first-pass NAS moves the same
// server-to-server bytes during compute instead of in front of it. The
// pipeline window is pinned to 1 to isolate prefetching from the
// executor's own run pipelining. Depth 0 must equal the cache-only system.
Experiment a9() {
  Experiment e{"a9",
               "Ablation A9: halo prefetch depth x kernel x strip size (NAS, "
               "round-robin, 6 GiB, 24 nodes, pipeline window 1)",
               "prefetching overlaps the first pass's remote-halo fetches "
               "with compute without moving one extra server-to-server byte",
               {},
               {}};
  for (const std::string& kernel : kPrefetchKernels) {
    for (const std::uint64_t strip : kPrefetchStrips) {
      core::SchemeRunOptions o = paper_options(Scheme::kNAS, kernel, 6);
      o.workload.strip_size = strip;
      o.workload.raster_width =
          static_cast<std::uint32_t>(strip / o.workload.element_size - 1);
      o.cluster.pipeline_window = 1;
      o.cluster.server_cache.enabled = true;
      o.cluster.server_cache.capacity_bytes = 2ULL << 30;
      // Cache-only reference: the system that never heard of prefetching.
      e.cells.push_back(scheme_cell(o, false));
      for (const std::uint32_t depth : kPrefetchDepths) {
        core::SchemeRunOptions prefetching = o;
        prefetching.cluster.prefetch.enabled = depth > 0;
        prefetching.cluster.prefetch.depth = depth;
        e.cells.push_back(scheme_cell(prefetching));
      }
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    std::string out;
    appendf(out, "\n%-14s %9s %6s %10s %14s %9s %10s\n", "kernel", "strip",
            "depth", "issued", "srv-srv", "pf-hits", "time(s)");
    std::size_t next = 0;
    for (const std::string& kernel : kPrefetchKernels) {
      for (const std::uint64_t strip : kPrefetchStrips) {
        const RunReport& reference = r[next++];
        double last_seconds = 0.0;
        bool monotone = true;
        bool bytes_fixed = true;
        const RunReport& at_zero = r[next];
        for (const std::uint32_t depth : kPrefetchDepths) {
          const RunReport& report = r[next++];
          appendf(out, "%-14s %9s %6u %10llu %14s %9llu %10.2f\n",
                  kernel.c_str(), core::format_bytes(strip).c_str(), depth,
                  static_cast<unsigned long long>(report.prefetch_issued),
                  core::format_bytes(report.server_server_bytes).c_str(),
                  static_cast<unsigned long long>(report.prefetch_hits),
                  report.exec_seconds);
          if (depth > 0) {
            monotone = monotone && report.exec_seconds <= last_seconds + 1e-9;
            bytes_fixed = bytes_fixed && report.server_server_bytes ==
                                             at_zero.server_server_bytes;
          }
          last_seconds = report.exec_seconds;
        }
        const RunReport& deepest = r[next - 1];
        const std::string tag = kernel + "/" + core::format_bytes(strip);
        checks.push_back({tag + ": makespan falls with lookahead depth",
                          "monotonically non-increasing across the sweep",
                          deepest.exec_seconds, monotone});
        checks.push_back({tag + ": prefetch moves no extra bytes",
                          "srv-srv bytes identical at every depth",
                          static_cast<double>(deepest.server_server_bytes),
                          bytes_fixed});
        checks.push_back(
            {tag + ": depth 0 reproduces the cache-only system",
             "identical makespan and srv-srv bytes", at_zero.exec_seconds,
             at_zero.exec_seconds == reference.exec_seconds &&
                 at_zero.server_server_bytes ==
                     reference.server_server_bytes});
        checks.push_back({tag + ": the deepest sweep meaningfully overlaps",
                          "makespan improves over depth 0",
                          at_zero.exec_seconds - deepest.exec_seconds,
                          deepest.exec_seconds < at_zero.exec_seconds});
      }
    }
    return out;
  };
  return e;
}

// ---------------------------------------------------- Extensions E1-E4

// Reduction offloading (raster-statistics): the active-disk literature the
// paper builds on targets kernels whose output is a few bytes. Offloading
// always wins there, and with no dependence NAS and DAS coincide.
Experiment e1() {
  Experiment e{"e1",
               "Extension E1: reduction offloading (raster-statistics, 24 "
               "GiB, 24 nodes)",
               "offloading crushes TS; NAS == DAS because there is no "
               "dependence",
               {},
               {}};
  for (const Scheme scheme : {Scheme::kNAS, Scheme::kDAS, Scheme::kTS}) {
    e.cells.push_back(paper_cell(scheme, "raster-statistics", 24));
  }
  e.derive = [](const Reports& r, Checks& checks) {
    const RunReport& nas = r[0];
    const RunReport& das = r[1];
    const RunReport& ts = r[2];
    const std::uint64_t das_bytes =
        das.client_server_bytes + das.server_server_bytes;
    checks.push_back({"offload speedup over TS",
                      "large (output is ~64 B, tested > 1/0.7)",
                      ts.exec_seconds / das.exec_seconds,
                      das.exec_seconds < 0.7 * ts.exec_seconds});
    checks.push_back(
        {"NAS/DAS time ratio",
         "~1.0 (no dependence to be aware of, tested within 0.02)",
         nas.exec_seconds / das.exec_seconds,
         std::abs(nas.exec_seconds / das.exec_seconds - 1.0) < 0.02});
    checks.push_back({"active-scheme network traffic",
                      "near zero (partials only, tested < 16 MiB)",
                      static_cast<double>(das_bytes) / (1 << 20),
                      das_bytes < (1ULL << 20) * 16});
    return std::string();
  };
  return e;
}

/// Run one flow-routing job per entry of `schemes` (each on its own 6 GiB
/// file) concurrently on one 24-node cluster; returns the makespan as a
/// report labelled `label`.
RunReport run_jobs(sim::RunContext& context, const char* label,
                   const std::vector<Scheme>& schemes) {
  const core::WorkloadSpec wl = paper_workload("flow-routing", 6);
  core::ClusterConfig cc = paper_cluster(24);
  cc.job_startup = 0;
  core::Cluster cluster(cc, &context);
  const auto registry = kernels::standard_registry();
  const core::DistributionConfig distribution;
  core::ActiveStorageClient client(cluster, registry, distribution);

  const auto kernel = registry.create(wl.kernel_name);
  const auto offsets = kernel->features().resolve(wl.width());
  core::DistributionPlanner planner(distribution);

  std::vector<double> finishes(schemes.size(), 0.0);
  std::vector<std::unique_ptr<core::TsExecutor>> ts_execs;

  for (std::size_t job = 0; job < schemes.size(); ++job) {
    auto meta = wl.make_meta("input" + std::to_string(job));
    std::unique_ptr<pfs::Layout> layout;
    if (schemes[job] == Scheme::kDAS) {
      layout = planner.plan(meta, offsets, cc.storage_nodes)->make_layout();
    } else {
      layout = std::make_unique<pfs::RoundRobinLayout>(cc.storage_nodes);
    }
    const auto input =
        cluster.pfs().create_file(meta, std::move(layout), nullptr);
    double* finish = &finishes[job];
    auto on_done = [&cluster, finish]() {
      *finish = sim::to_seconds(cluster.simulator().now());
    };
    if (schemes[job] == Scheme::kDAS) {
      core::ActiveRequest request;
      request.input = input;
      request.kernel_name = wl.kernel_name;
      client.submit(request, on_done);
    } else {
      auto out_meta = meta;
      out_meta.name += ".out";
      const auto output = cluster.pfs().create_file(
          out_meta, std::make_unique<pfs::RoundRobinLayout>(cc.storage_nodes),
          nullptr);
      core::TsExecutor::Options opt{kernel.get(), 1, false};
      ts_execs.push_back(std::make_unique<core::TsExecutor>(cluster, opt));
      ts_execs.back()->start(input, output, on_done);
    }
  }
  cluster.simulator().run();

  RunReport r;
  r.scheme = label;
  r.kernel = "flow-routing x2";
  r.data_bytes = 12ULL << 30;
  r.storage_nodes = 12;
  r.compute_nodes = 12;
  r.exec_seconds = *std::max_element(finishes.begin(), finishes.end());
  return r;
}

Cell jobs_cell(const char* label, std::vector<Scheme> schemes) {
  return {"", [label, schemes = std::move(schemes)](sim::RunContext& c) {
            return run_jobs(c, label, schemes);
          }};
}

// Two jobs sharing the same storage servers: like pairs pay roughly 2x, and
// a mixed TS+DAS pair overlaps no better than running the jobs back to
// back, because the server disks sit on both paths.
Experiment e2() {
  return {
      "e2",
      "Extension E2: two concurrent 6 GiB flow-routing jobs on one cluster",
      "pairs of like jobs pay ~2x (shared disks or shared links); a mixed "
      "TS+DAS pair overlaps no better than running the two jobs back to "
      "back, because the server disks are common to both paths",
      {jobs_cell("DAS", {Scheme::kDAS}), jobs_cell("TS", {Scheme::kTS}),
       jobs_cell("DASx2", {Scheme::kDAS, Scheme::kDAS}),
       jobs_cell("TSx2", {Scheme::kTS, Scheme::kTS}),
       jobs_cell("mixed", {Scheme::kTS, Scheme::kDAS})},
      [](const Reports& r, Checks& checks) {
        const double das_solo = r[0].exec_seconds;
        const double ts_solo = r[1].exec_seconds;
        const double das_pair = r[2].exec_seconds;
        const double ts_pair = r[3].exec_seconds;
        const double mixed = r[4].exec_seconds;
        std::string out;
        appendf(out, "\nsolo: DAS %.2f s, TS %.2f s\n", das_solo, ts_solo);
        appendf(out,
                "pairs (makespan): DAS+DAS %.2f s, TS+TS %.2f s, TS+DAS "
                "%.2f s\n",
                das_pair, ts_pair, mixed);
        checks.push_back({"DAS pair slowdown over solo",
                          "~2x (shared disks/engines, tested > 1.5)",
                          das_pair / das_solo, das_pair > 1.5 * das_solo});
        checks.push_back({"TS pair slowdown over solo",
                          ">= 2x (shared links + incast, tested > 1.9)",
                          ts_pair / ts_solo, ts_pair > 1.9 * ts_solo});
        checks.push_back(
            {"mixed pair vs running both serially",
             "no worse than back-to-back (shared disks limit overlap, "
             "tested < 1.05)",
             mixed / (das_solo + ts_solo),
             mixed < 1.05 * (das_solo + ts_solo)});
        return out;
      }};
}

const char* const kListAccesses[] = {"strided:8", "column"};

// List I/O (Ching et al., noncontiguous I/O through PVFS): a sparse TS read
// ships only its runs plus list headers, where the pre-list-I/O request
// plane fetched every enclosing whole strip. Rows are 4 KiB in 1 MiB
// strips, so the sampled runs touch every strip and whole-strip fetches
// move the entire file. strided:8 is every 8th row plus the stencil halo;
// column is one raster column plus halo, where per-run framing dominates.
Experiment e3() {
  Experiment e{"e3",
               "Extension E3: list I/O vs whole-strip fetches (TS "
               "flow-routing, 1 GiB, 16 nodes, 4 KiB rows in 1 MiB strips)",
               "a sparse read moves only its runs plus headers: at 1/8 row "
               "sparsity under 40% of the whole-strip bytes, and no slower",
               {},
               {}};
  for (const char* access : kListAccesses) {
    for (const bool whole_strips : {false, true}) {
      core::SchemeRunOptions o =
          paper_options(Scheme::kTS, "flow-routing", 1, 16);
      o.workload.raster_width = 1024;
      o.access = core::AccessSpec::parse(access);
      o.whole_strips = whole_strips;
      e.cells.push_back(scheme_cell(o));
    }
  }
  e.derive = [](const Reports& r, Checks& checks) {
    // Per access, the list cell is at an even index, whole strips after it.
    const auto bytes_ratio = [&r](std::size_t list) {
      return static_cast<double>(r[list].client_server_bytes) /
             static_cast<double>(r[list + 1].client_server_bytes);
    };
    std::string out;
    appendf(out, "\n%-10s %12s %14s %7s %8s %9s\n", "access", "list B",
            "whole-strip B", "ratio", "list(s)", "whole(s)");
    for (std::size_t i = 0; i < std::size(kListAccesses); ++i) {
      const RunReport& list = r[2 * i];
      const RunReport& whole = r[2 * i + 1];
      appendf(out, "%-10s %12llu %14llu %7.4f %8.3f %9.3f\n", kListAccesses[i],
              static_cast<unsigned long long>(list.client_server_bytes),
              static_cast<unsigned long long>(whole.client_server_bytes),
              bytes_ratio(2 * i), list.exec_seconds, whole.exec_seconds);
    }
    checks.push_back({"strided:8 bytes, list / whole strips",
                      "runs + headers only (tested <= 0.40)", bytes_ratio(0),
                      bytes_ratio(0) <= 0.40});
    checks.push_back({"strided:8 time, list / whole strips",
                      "no slower (tested <= 1.0)",
                      r[0].exec_seconds / r[1].exec_seconds,
                      r[0].exec_seconds <= r[1].exec_seconds});
    checks.push_back({"column bytes, list / whole strips",
                      "fewer bytes (tested < 1.0)", bytes_ratio(2),
                      r[2].client_server_bytes < r[3].client_server_bytes});
    return out;
  };
  return e;
}

// Online re-striping after a phase change (Reed et al., dynamic file
// striping for Lustre): a raster ingested round-robin, the streaming layout,
// is then read by six flow-routing passes, and under round-robin a 3x3
// stencil's vertical neighbours sit on adjacent servers, so every pass pays
// near-total halo traffic. With migration on, the planner sees the
// divergence after its hysteresis streak and re-stripes the file into the
// grouped+halo placement while the remaining passes keep reading it. DAS on
// a file already in that placement is the oracle floor.
Experiment e4() {
  core::SchemeRunOptions nas =
      paper_options(Scheme::kNAS, "flow-routing", 1, 8);
  nas.repeat_count = 6;
  core::SchemeRunOptions migrating = nas;
  migrating.migration.enabled = true;
  core::SchemeRunOptions das = nas;
  das.scheme = Scheme::kDAS;  // pre-distributed: the planned placement
  return {
      "e4",
      "Extension E4: online re-striping after a phase change (NAS "
      "flow-routing, 1 GiB, 8 nodes, 6 passes)",
      "a file whose layout no longer fits its access is re-striped once, in "
      "the background, and the move pays for itself in server-to-server "
      "bytes",
      {scheme_cell(nas), scheme_cell(migrating), scheme_cell(das)},
      [](const Reports& r, Checks& checks) {
        const RunReport& off = r[0];
        const RunReport& on = r[1];
        const std::uint64_t net = on.server_server_bytes - on.migration_bytes;
        const double net_ratio = static_cast<double>(net) /
                                 static_cast<double>(off.server_server_bytes);
        std::string out;
        appendf(out, "\n%-16s %9s %14s %12s\n", "run", "time(s)", "srv-srv B",
                "moved B");
        const char* const runs[] = {"NAS", "NAS+migrate", "DAS oracle"};
        for (std::size_t i = 0; i < std::size(runs); ++i) {
          appendf(out, "%-16s %9.3f %14llu %12llu\n", runs[i],
                  r[i].exec_seconds,
                  static_cast<unsigned long long>(r[i].server_server_bytes),
                  static_cast<unsigned long long>(r[i].migration_bytes));
        }
        appendf(out,
                "NAS+migrate srv-srv net of the move: %llu B (%.4f of NAS)\n",
                static_cast<unsigned long long>(net), net_ratio);
        checks.push_back({"migrations, NAS+migrate",
                          "exactly one (tested == 1)",
                          static_cast<double>(on.migrations),
                          on.migrations == 1});
        checks.push_back({"net srv-srv bytes, NAS+migrate / NAS",
                          "the move pays off (tested <= 0.85)", net_ratio,
                          net_ratio <= 0.85});
        return out;
      }};
}

std::vector<Experiment> registry() {
  std::vector<Experiment> all;
  for (Experiment (*build)() : {table1, fig10, fig11, fig12, fig13, fig14, a1,
                                a2, a3, a4, a5, a6, a7, a8, a9, e1, e2, e3,
                                e4}) {
    all.push_back(build());
  }
  return all;
}

/// The banner, series, report table, shape checks and verdict of `e`.
std::string render(const Experiment& e, const Reports& reports,
                   bool& all_hold) {
  Checks checks;
  if (e.claim == nullptr) {
    return std::string(e.title) + '\n' +
           std::string(std::strlen(e.title), '-') + '\n' +
           e.derive(reports, checks);
  }
  const std::string rule(53, '=');
  std::string out = rule + '\n' + e.title + "\npaper claim: " + e.claim +
                    '\n' + rule + '\n' + e.derive(reports, checks);
  Reports rows;
  for (std::size_t i = 0; i < e.cells.size(); ++i) {
    if (e.cells[i].row) rows.push_back(reports[i]);
  }
  bool hold = true;
  for (const ShapeCheck& c : checks) hold = hold && c.holds;
  all_hold = all_hold && hold;
  return out + '\n' + core::format_report_table(rows) +
         "\nshape checks vs the paper:\n" + format_checks(checks) +
         "\noverall: " +
         (hold ? "all shape checks hold" : "SOME SHAPE CHECKS FAILED") +
         "\n\n";
}

}  // namespace

ExperimentOutput run_experiments(const std::string& id, unsigned jobs) {
  std::vector<Experiment> experiments = registry();
  if (id != "all") {
    const auto it =
        std::find_if(experiments.begin(), experiments.end(),
                     [&](const Experiment& e) { return e.id == id; });
    if (it == experiments.end()) {
      std::string ids;
      for (const Experiment& e : experiments) ids += std::string(" ") + e.id;
      throw std::invalid_argument("unknown --figure=" + id +
                                  " (want all or one of:" + ids + ")");
    }
    experiments = {*it};
  }

  // Every distinct cell once: a share key maps to its first declaration.
  std::vector<const Cell*> unique;
  std::map<std::string, std::size_t> shared;
  std::vector<std::vector<std::size_t>> slots(experiments.size());
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    for (const Cell& cell : experiments[e].cells) {
      std::size_t slot = unique.size();
      if (!cell.share_key.empty()) {
        slot = shared.try_emplace(cell.share_key, slot).first->second;
      }
      if (slot == unique.size()) unique.push_back(&cell);
      slots[e].push_back(slot);
    }
  }
  Reports reports(unique.size());
  parallel_for_indexed(jobs, unique.size(), [&](std::size_t i) {
    sim::RunContext context;
    reports[i] = unique[i]->run(context);
  });

  ExperimentOutput output;
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    Reports mine;
    for (const std::size_t slot : slots[e]) mine.push_back(reports[slot]);
    output.text += render(experiments[e], mine, output.all_hold);
  }
  return output;
}

}  // namespace das::runner
