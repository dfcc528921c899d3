#include "core/list_access.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/bandwidth_model.hpp"
#include "simkit/assert.hpp"

namespace das::core {
namespace {

/// "12.34 s" / "37.5%"-style compact numbers for rationale strings.
std::string seconds_str(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fs", s);
  return buf;
}

std::string factor_str(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", f);
  return buf;
}

}  // namespace

AccessSpec AccessSpec::parse(const std::string& text) {
  AccessSpec spec;
  if (text == "column") {
    spec.mode = Mode::kColumn;
    return spec;
  }
  if (text.rfind("strided:", 0) == 0) {
    const std::string k = text.substr(8);
    std::size_t used = 0;
    unsigned long value = 0;
    try {
      // stoul takes a sign (and wraps "-3"): K must be plain digits.
      if (!k.empty() && k[0] >= '0' && k[0] <= '9') {
        value = std::stoul(k, &used);
      }
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != k.size() || value == 0 || value > UINT32_MAX) {
      throw std::invalid_argument(
          "--access=strided:K needs 1 <= K <= 4294967295, got \"" + text +
          "\"");
    }
    spec.mode = Mode::kStrided;
    spec.stride = static_cast<std::uint32_t>(value);
    return spec;
  }
  if (text.rfind("trace:", 0) == 0 && text.size() > 6) {
    spec.mode = Mode::kTrace;
    spec.trace_path = text.substr(6);
    return spec;
  }
  throw std::invalid_argument(
      "unknown access pattern \"" + text +
      "\" (expected strided:K, column, or trace:FILE)");
}

std::string AccessSpec::label() const {
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kStrided: return "strided:" + std::to_string(stride);
    case Mode::kColumn: return "column";
    case Mode::kTrace: return "trace:" + trace_path;
  }
  return "?";
}

std::uint32_t halo_rows_for(const pfs::FileMeta& meta,
                            const std::vector<std::int64_t>& offsets) {
  if (meta.raster_width == 0) return 0;
  std::uint64_t max_abs = 0;
  for (const std::int64_t o : offsets) {
    const std::uint64_t a =
        o < 0 ? static_cast<std::uint64_t>(-(o + 1)) + 1
              : static_cast<std::uint64_t>(o);
    max_abs = std::max(max_abs, a);
  }
  // Stencil offsets are r*width + c with |c| << width (the diagonal
  // neighbour of an 8-connected stencil is width+1 elements away but only
  // ONE row away), so the row distance is the offset rounded to the nearest
  // multiple of the width — a ceiling would charge the 3-row window of
  // every such stencil as 5 rows.
  const std::uint64_t width = meta.raster_width;
  return static_cast<std::uint32_t>((max_abs + width / 2) / width);
}

pfs::RegionList build_access_regions(const pfs::FileMeta& meta,
                                     const AccessSpec& spec,
                                     std::uint32_t halo_rows) {
  if (spec.mode == AccessSpec::Mode::kNone) return pfs::RegionList{};

  if (spec.mode == AccessSpec::Mode::kTrace) {
    std::ifstream in(spec.trace_path);
    if (!in) {
      throw std::invalid_argument("cannot open region trace file \"" +
                                  spec.trace_path + "\"");
    }
    std::vector<pfs::Run> runs;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      pfs::Run run;
      if (!(fields >> run.offset >> run.length)) {
        throw std::invalid_argument("malformed region trace line \"" + line +
                                    "\" in " + spec.trace_path +
                                    " (expected: offset length)");
      }
      runs.push_back(run);
    }
    return pfs::RegionList::from_runs(std::move(runs));
  }

  DAS_REQUIRE(meta.raster_width > 0 && meta.raster_height > 0 &&
              "sparse access patterns need raster geometry");
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(meta.raster_width) * meta.element_size;
  const std::uint32_t height = meta.raster_height;
  const std::uint32_t h = halo_rows;

  if (spec.mode == AccessSpec::Mode::kColumn) {
    // The middle column plus its halo columns: one short run per row. This
    // is the header-dominated extreme — count = height runs of a few
    // elements each, every one on a different part of the stripe.
    const std::uint32_t c = meta.raster_width / 2;
    const std::uint32_t lo = c >= h ? c - h : 0;
    const std::uint32_t hi = std::min(meta.raster_width - 1, c + h);
    return pfs::RegionList::strided(
        static_cast<std::uint64_t>(lo) * meta.element_size,
        static_cast<std::uint64_t>(hi - lo + 1) * meta.element_size,
        static_cast<std::int64_t>(row_bytes), height);
  }

  // strided:k — sample every k-th row starting at row `h` so each sample's
  // halo [i-h, i+h] stays inside the raster and the pattern stays regular
  // (the strided wire encoding). Each fetched run carries exactly the rows
  // the kernel needs to produce the sampled output row: payload fraction
  // (2h+1)/k of the file.
  const std::uint32_t k = spec.stride;
  const std::uint64_t run_rows = 2ULL * h + 1;
  if (height < run_rows || k <= 2 * h) {
    // Samples overlap (or the raster is shorter than one halo window): the
    // union is a dense prefix — one run, explicit encoding, and the
    // coalescer at the server sees it as a single extent.
    std::uint64_t end_rows = height;
    if (k <= 2 * h && height >= run_rows) {
      const std::uint32_t last = h + ((height - 1 - h) / k) * k;
      end_rows = std::min<std::uint64_t>(height, last + h + 1);
    }
    return pfs::RegionList::from_runs(
        {pfs::Run{0, std::min(end_rows * row_bytes, meta.size_bytes)}});
  }
  const std::uint64_t count = (height - run_rows) / k + 1;
  return pfs::RegionList::strided(
      0, run_rows * row_bytes,
      static_cast<std::int64_t>(k * row_bytes), count);
}

ListStats list_stats(const pfs::FileMeta& meta, const pfs::RegionList& regions,
                     std::uint32_t num_servers) {
  ListStats stats;
  if (regions.empty()) return stats;
  DAS_REQUIRE(num_servers > 0);
  const std::vector<pfs::StripRun> split = split_by_strip(meta, regions);
  stats.runs = split.size();
  stats.payload_bytes = regions.total_bytes();
  stats.reply_framing_bytes = pfs::RegionList::reply_framing_bytes(split.size());

  // Per-server request headers: mirror the client's batching (one request
  // per server holding at least one touched strip, round-robin striping).
  std::vector<std::uint64_t> runs_per_server(num_servers, 0);
  std::uint64_t prev_strip = UINT64_MAX;
  std::uint64_t prev_end = 0;
  for (const pfs::StripRun& r : split) {
    runs_per_server[r.strip % num_servers] += 1;
    // Coalesced extents: split runs are sorted, so a new extent starts
    // whenever the strip changes or a gap precedes the run.
    if (r.strip != prev_strip) {
      ++stats.touched_strips;
      ++stats.coalesced_extents;
    } else if (r.offset_in_strip > prev_end) {
      ++stats.coalesced_extents;
    }
    prev_strip = r.strip;
    prev_end = r.offset_in_strip + r.length;
  }
  for (const std::uint64_t n : runs_per_server) {
    if (n > 0) {
      stats.request_header_bytes +=
          pfs::RegionList::request_bytes(regions.encoding(), n);
    }
  }
  return stats;
}

std::uint64_t access_output_bytes(const pfs::FileMeta& meta,
                                  const AccessSpec& spec,
                                  std::uint32_t halo_rows,
                                  std::uint64_t full_output_bytes) {
  switch (spec.mode) {
    case AccessSpec::Mode::kNone:
      return full_output_bytes;
    case AccessSpec::Mode::kStrided: {
      if (meta.raster_height == 0) return full_output_bytes;
      // One kept output row per sample, whether or not the fetch
      // degenerated to a dense prefix (overlapping halos change what is
      // READ, never what the consumer keeps).
      const std::uint64_t h = halo_rows;
      const std::uint64_t height = meta.raster_height;
      const std::uint64_t run_rows = 2 * h + 1;
      const std::uint64_t samples =
          height >= run_rows ? (height - run_rows) / spec.stride + 1
                             : (height + spec.stride - 1) / spec.stride;
      return full_output_bytes * samples / height;
    }
    case AccessSpec::Mode::kColumn:
      // The consumer keeps one output column of the raster.
      if (meta.raster_width == 0) return full_output_bytes;
      return std::max<std::uint64_t>(1,
                                     full_output_bytes / meta.raster_width);
    case AccessSpec::Mode::kTrace:
      // A trace's consumer semantics are unknown; charge the offload path
      // the full output (conservative — biases the decision toward the
      // list, never toward a phantom offload win).
      return full_output_bytes;
  }
  return full_output_bytes;
}

ListDecision decide_list_access(const pfs::FileMeta& meta,
                                const std::vector<std::int64_t>& offsets,
                                const ListStats& stats,
                                const ClusterConfig& cluster,
                                const DistributionConfig& distribution,
                                double kernel_cost_factor,
                                std::uint64_t output_bytes,
                                std::uint64_t returned_bytes) {
  const double nic = static_cast<double>(cluster.nic_bandwidth_bps);
  const double disk = static_cast<double>(cluster.disk_bandwidth_bps);
  const double comp = static_cast<double>(cluster.compute_rate_bps);
  const double servers = cluster.storage_nodes;
  const double clients = cluster.compute_nodes;
  const double fan = std::min(servers, clients);
  const double payload = static_cast<double>(stats.payload_bytes);
  const double wire = static_cast<double>(stats.wire_bytes());

  // Serve as list I/O: the runs cross min(S, C) client-server NIC pairs,
  // the payload comes off S disks (coalesced extents, so near-sequential),
  // and the clients compute over the fetched rows.
  ListDecision decision;
  decision.normal_seconds = wire / (nic * fan) + payload / (disk * servers) +
                            payload * kernel_cost_factor / (comp * clients);

  // Offload: active storage computes every output row (it cannot subset the
  // sweep — the sparsity is over *outputs*), so the whole file streams off
  // the disks and through the server compute engines, plus the dependence
  // halo exchange the bandwidth model forecasts; only the sampled payload
  // returns to the clients.
  const PlacementSpec placement{cluster.storage_nodes, distribution.group_size,
                                distribution.halo};
  const TrafficForecast forecast =
      forecast_traffic(meta, offsets, placement, output_bytes);
  const double file = static_cast<double>(meta.size_bytes);
  decision.active_seconds =
      file / (disk * servers) + file * kernel_cost_factor / (comp * servers) +
      static_cast<double>(forecast.active_total_bytes()) / (nic * servers) +
      static_cast<double>(returned_bytes) / (nic * fan);

  decision.action = decision.active_seconds < decision.normal_seconds
                        ? OffloadAction::kOffload
                        : OffloadAction::kServeNormal;
  decision.rationale =
      "list " + seconds_str(decision.normal_seconds) + " (" +
      std::to_string(stats.wire_bytes()) + " wire B = " +
      std::to_string(stats.payload_bytes) + " payload + " +
      std::to_string(stats.request_header_bytes + stats.reply_framing_bytes) +
      " header, " + std::to_string(stats.runs) + " runs -> " +
      std::to_string(stats.coalesced_extents) + " extents, coalesce " +
      factor_str(stats.coalescing_factor()) + ") vs offload " +
      seconds_str(decision.active_seconds) + " (full " +
      std::to_string(meta.size_bytes) + " B sweep + " +
      std::to_string(forecast.active_total_bytes()) + " halo B, " +
      std::to_string(returned_bytes) + " B returned): " +
      to_string(decision.action);
  return decision;
}

}  // namespace das::core
