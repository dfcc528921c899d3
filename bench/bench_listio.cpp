// List-I/O bytes-moved A/B: the same sparse access served through the
// scatter-gather request plane (runs + list headers on the wire) versus
// the pre-list-I/O behavior of fetching every enclosing whole strip.
//
// Two access patterns on one TS cluster, both fully deterministic:
//
//  1. strided:8 — every 8th row of a 1 GiB raster plus the stencil halo,
//     i.e. the 1/8-sparsity point of EXPERIMENTS.md. The row geometry is
//     deliberately sub-strip (4 KiB rows in 1 MiB strips) so the whole-
//     strip baseline genuinely over-fetches: the sampled runs touch every
//     strip, so the baseline moves the entire file while the list moves
//     3 rows in 8 (sample +- 1 halo row) plus header bytes.
//
//  2. column — one raster column plus halo: 12-byte runs, one per row,
//     shipped as a single strided descriptor. The extreme-sparsity point
//     where per-run framing, not payload, dominates the wire cost.
//
// The bytes-moved metric is RunReport::client_server_bytes (request
// headers + packed replies + per-run framing; see EXPERIMENTS.md). This
// is the CI perf-smoke gate for the list plane: the binary exits nonzero
// unless at 1/8 sparsity the list path moves <= 40% of the whole-strip
// bytes (a >= 2.5x reduction) and finishes the sweep no slower.
//
// Deliberately not a google-benchmark binary: it emits one JSON document
// (BENCH_listio.json by default) that CI uploads as an artifact.
//
// Usage: bench_listio [--gib=N] [--out=FILE]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/scheme.hpp"

namespace {

using das::core::AccessSpec;
using das::core::RunReport;
using das::core::Scheme;
using das::core::SchemeRunOptions;

/// At 1/8 sparsity the list path must move at most this fraction of the
/// whole-strip bytes...
constexpr double kStridedByteBudget = 0.40;
/// ...which is the same gate stated as a reduction factor.
constexpr double kMinReduction = 2.5;

struct CaseResult {
  std::string access;
  RunReport list;   // whole_strips = false
  RunReport whole;  // whole_strips = true
  double wall_seconds = 0.0;

  [[nodiscard]] double ratio() const {
    return whole.client_server_bytes == 0
               ? 0.0
               : static_cast<double>(list.client_server_bytes) /
                     static_cast<double>(whole.client_server_bytes);
  }
  [[nodiscard]] double reduction() const {
    return list.client_server_bytes == 0
               ? 0.0
               : static_cast<double>(whole.client_server_bytes) /
                     static_cast<double>(list.client_server_bytes);
  }
};

SchemeRunOptions base_options(std::uint64_t gib) {
  SchemeRunOptions options;
  options.scheme = Scheme::kTS;
  options.workload.kernel_name = "flow-routing";
  options.workload.data_bytes = gib << 30;
  options.workload.strip_size = 1ULL << 20;
  // 4 KiB rows in 1 MiB strips (256 rows per strip): the pre-list-I/O
  // fetch shape rounds every sampled row up to its strip, so the A/B
  // actually measures the over-fetch the list plane eliminates.
  options.workload.raster_width = 1024;
  options.cluster.storage_nodes = 8;
  options.cluster.compute_nodes = 8;
  return options;
}

CaseResult run_case(std::uint64_t gib, const AccessSpec& access) {
  CaseResult result;
  result.access = access.label();
  const auto start = std::chrono::steady_clock::now();
  SchemeRunOptions list = base_options(gib);
  list.access = access;
  result.list = das::core::run_scheme(list);
  SchemeRunOptions whole = base_options(gib);
  whole.access = access;
  whole.whole_strips = true;
  result.whole = das::core::run_scheme(whole);
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

std::string case_json(const CaseResult& result) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"access\": \"%s\",\n"
      "     \"list_bytes\": %llu, \"whole_strip_bytes\": %llu,\n"
      "     \"byte_ratio\": %.6f, \"reduction\": %.3f,\n"
      "     \"list_exec_s\": %.6f, \"whole_strip_exec_s\": %.6f,\n"
      "     \"list_sim_events\": %llu, \"wall_s\": %.3f}",
      result.access.c_str(),
      static_cast<unsigned long long>(result.list.client_server_bytes),
      static_cast<unsigned long long>(result.whole.client_server_bytes),
      result.ratio(), result.reduction(), result.list.exec_seconds,
      result.whole.exec_seconds,
      static_cast<unsigned long long>(result.list.sim_events),
      result.wall_seconds);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t gib = 1;
  std::string out_path = "BENCH_listio.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--gib=", 6) == 0) {
      gib = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--gib=N] [--out=FILE]\n", argv[0]);
      return 1;
    }
  }

  std::vector<CaseResult> cases;
  cases.push_back(run_case(gib, AccessSpec::parse("strided:8")));
  cases.push_back(run_case(gib, AccessSpec::parse("column")));
  for (const CaseResult& c : cases) {
    std::printf("%-10s list=%12llu B  whole-strip=%12llu B  ratio=%.4f  "
                "(%.2fx)  exec %.3fs vs %.3fs\n",
                c.access.c_str(),
                static_cast<unsigned long long>(c.list.client_server_bytes),
                static_cast<unsigned long long>(c.whole.client_server_bytes),
                c.ratio(), c.reduction(), c.list.exec_seconds,
                c.whole.exec_seconds);
  }

  const CaseResult& strided = cases[0];
  const CaseResult& column = cases[1];

  std::string json = "{\n  \"bench\": \"listio\",\n";
  char head[128];
  std::snprintf(head, sizeof(head),
                "  \"gib\": %llu,\n  \"cases\": [\n",
                static_cast<unsigned long long>(gib));
  json += head;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    json += case_json(cases[i]);
    json += i + 1 < cases.size() ? ",\n" : "\n";
  }
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  ],\n  \"strided8_byte_ratio\": %.6f,\n"
                "  \"strided8_reduction\": %.3f,\n"
                "  \"gate\": {\"max_byte_ratio\": %.2f, "
                "\"min_reduction\": %.1f}\n}\n",
                strided.ratio(), strided.reduction(), kStridedByteBudget,
                kMinReduction);
  json += tail;

  std::printf("%s", json.c_str());
  {
    std::ofstream out(out_path);
    out << json;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (strided.ratio() > kStridedByteBudget) {
    std::fprintf(stderr,
                 "FAIL: strided:8 list I/O moved %.1f%% of the whole-strip "
                 "bytes (gate: <= %.0f%%)\n",
                 strided.ratio() * 100.0, kStridedByteBudget * 100.0);
    return 1;
  }
  if (strided.reduction() < kMinReduction) {
    std::fprintf(stderr,
                 "FAIL: strided:8 bytes-moved reduction %.2fx "
                 "(gate: >= %.1fx)\n",
                 strided.reduction(), kMinReduction);
    return 1;
  }
  if (strided.list.exec_seconds > strided.whole.exec_seconds) {
    std::fprintf(stderr,
                 "FAIL: list serving (%.3fs) slower than whole-strip "
                 "fetches (%.3fs) at 1/8 sparsity\n",
                 strided.list.exec_seconds, strided.whole.exec_seconds);
    return 1;
  }
  if (column.reduction() <= 1.0) {
    std::fprintf(stderr,
                 "FAIL: column access moved no fewer bytes than whole "
                 "strips (%.2fx)\n",
                 column.reduction());
    return 1;
  }
  return 0;
}
