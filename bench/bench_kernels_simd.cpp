// Wall-clock microbench for the vectorized kernel engine.
//
// Measures cells/sec for each of the five stencil kernels under every ISA
// this CPU can run (scalar -> SSE2 -> AVX2), plus the widest ISA's rate on
// a wide raster whose rows outgrow L2 (DESIGN §14 accounts for the gap).
// Before timing, every ISA's output is checksummed against the scalar
// sweep — the engine's bit-identity contract — and any mismatch fails the
// run.
//
// Deliberately not a google-benchmark binary: it emits one JSON document
// (BENCH_kernels.json by default) that CI uploads as an artifact, and it is
// the perf-smoke gate for the SIMD engine — on an AVX2 machine it exits
// nonzero unless at least 3 of the 5 kernels reach >= 2x the scalar
// cells/sec (the reduction's sum must stay sequential for bit-identity, so
// statistics is allowed to miss).
//
// Usage: bench_kernels_simd [--width=1024] [--height=512] [--repeats=5]
//                           [--wide-width=1048576] [--wide-height=8]
//                           [--out=BENCH_kernels.json]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "runner/args.hpp"

namespace {

using das::grid::Grid;
using das::kernels::KernelPtr;
using das::kernels::KernelRegistry;
namespace simd = das::kernels::simd;

constexpr const char* kKernels[] = {"laplacian-4", "gaussian-2d",
                                    "surface-slope", "median-3x3",
                                    "raster-statistics"};

Grid<float> make_input(std::uint32_t width, std::uint32_t height) {
  Grid<float> g(width, height);
  std::uint32_t state = 0x9E3779B9U;
  for (std::uint32_t y = 0; y < height; ++y) {
    float* row = g.row(y);
    for (std::uint32_t x = 0; x < width; ++x) {
      state = state * 1664525U + 1013904223U;
      row[x] = 1.0F + static_cast<float>(state >> 8) * (1.0F / (1U << 24));
    }
  }
  return g;
}

/// FNV-1a over the output's bit pattern: equal checksums across ISAs is the
/// engine's bit-identity contract.
std::uint64_t bits_checksum(const Grid<float>& g) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint32_t y = 0; y < g.height(); ++y) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(g.row(y));
    for (std::size_t i = 0; i < g.width() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

/// Best-of-`repeats` seconds for one sweep of `kernel` over `input`. A
/// stencil sweeps into `out`, which the caller allocates once per raster
/// shape: that is all run_reference does after allocating its output, so
/// the time excludes a fresh allocation's first-touch page faults. The
/// reduction has no output raster and runs run_reference.
double best_seconds(const das::kernels::ProcessingKernel& kernel,
                    const Grid<float>& input, Grid<float>& out,
                    std::uint32_t repeats) {
  const std::uint32_t h = input.height();
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t r = 0; r < repeats + 1; ++r) {  // +1 warm-up, discarded
    const auto start = std::chrono::steady_clock::now();
    if (kernel.is_reduction()) {
      const Grid<float> summary = kernel.run_reference(input);
    } else {
      kernel.run_tile(input, 0, h, 0, h, out);
    }
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (r > 0) best = std::min(best, s);
  }
  return best;
}

struct IsaResult {
  simd::Isa isa = simd::Isa::kScalar;
  double cells_per_sec = 0.0;
};

struct KernelResult {
  std::string name;
  std::vector<IsaResult> isas;  // index 0 is always scalar
  double wide_cells_per_sec = 0.0;

  [[nodiscard]] double speedup(simd::Isa isa) const {
    for (const IsaResult& r : isas) {
      if (r.isa == isa && isas[0].cells_per_sec > 0.0) {
        return r.cells_per_sec / isas[0].cells_per_sec;
      }
    }
    return 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const das::runner::Args args(argc, argv);
  const auto width =
      static_cast<std::uint32_t>(args.get_int("width", 1024));
  const auto height =
      static_cast<std::uint32_t>(args.get_int("height", 512));
  const auto repeats =
      static_cast<std::uint32_t>(args.get_int("repeats", 5));
  const auto wide_width =
      static_cast<std::uint32_t>(args.get_int("wide-width", 1048576));
  const auto wide_height =
      static_cast<std::uint32_t>(args.get_int("wide-height", 8));
  const std::string out_path = args.get("out", "BENCH_kernels.json");
  if (const std::string u = args.unused(); !u.empty()) {
    std::fprintf(stderr, "unknown flags: %s\n", u.c_str());
    return 2;
  }

  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() >= simd::Isa::kSse2) {
    isas.push_back(simd::Isa::kSse2);
  }
  if (simd::detected_isa() >= simd::Isa::kAvx2) {
    isas.push_back(simd::Isa::kAvx2);
  }

  const KernelRegistry registry = das::kernels::standard_registry();
  const Grid<float> input = make_input(width, height);
  const Grid<float> wide = make_input(wide_width, wide_height);
  Grid<float> output(width, height);
  Grid<float> wide_output(wide_width, wide_height);
  const double cells = static_cast<double>(width) * height;
  const double wide_cells = static_cast<double>(wide_width) * wide_height;

  std::vector<KernelResult> results;
  for (const char* name : kKernels) {
    const KernelPtr kernel = registry.create(name);
    KernelResult result;
    result.name = name;

    // Bit-identity first: every ISA must reproduce the scalar output.
    std::uint64_t scalar_sum = 0;
    for (const simd::Isa isa : isas) {
      simd::set_isa_override(isa);
      const std::uint64_t sum = bits_checksum(kernel->run_reference(input));
      if (isa == simd::Isa::kScalar) {
        scalar_sum = sum;
      } else if (sum != scalar_sum) {
        std::fprintf(stderr, "FAIL: %s %s output differs from scalar\n",
                     name, simd::to_string(isa));
        return 1;
      }
    }

    for (const simd::Isa isa : isas) {
      simd::set_isa_override(isa);
      IsaResult r;
      r.isa = isa;
      r.cells_per_sec = cells / best_seconds(*kernel, input, output, repeats);
      result.isas.push_back(r);
    }

    // The wide raster, widest ISA. The reduction has no 3-row interior
    // sweep, so this is stencils-only.
    if (!kernel->is_reduction()) {
      simd::set_isa_override(isas.back());
      result.wide_cells_per_sec =
          wide_cells / best_seconds(*kernel, wide, wide_output, repeats);
    }
    simd::set_isa_override(std::nullopt);
    results.push_back(result);
  }

  std::string json = "{\n  \"bench\": \"kernels_simd\",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"detected_isa\": \"%s\",\n"
                  "  \"grid\": [%u, %u],\n  \"wide_grid\": [%u, %u],\n"
                  "  \"kernels\": {\n",
                  simd::to_string(simd::detected_isa()), width, height,
                  wide_width, wide_height);
    json += buf;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& k = results[i];
    json += "    \"" + k.name + "\": {";
    for (const IsaResult& r : k.isas) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "\"%s_cells_per_sec\": %.3e, ",
                    simd::to_string(r.isa), r.cells_per_sec);
      json += buf;
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\"simd_speedup\": %.2f, \"wide_cells_per_sec\": %.3e}",
                  k.speedup(isas.back()), k.wide_cells_per_sec);
    json += buf;
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  }\n}\n";

  std::printf("%s", json.c_str());
  {
    std::ofstream out(out_path);
    out << json;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // The perf gate: >= 2x scalar on at least 3 of 5 kernels, AVX2 machines
  // only (SSE2-only hosts still check bit-identity above).
  if (simd::detected_isa() == simd::Isa::kAvx2) {
    int fast = 0;
    for (const KernelResult& k : results) {
      const double speedup = k.speedup(simd::Isa::kAvx2);
      std::printf("%-18s avx2/scalar %.2fx\n", k.name.c_str(), speedup);
      if (speedup >= 2.0) ++fast;
    }
    if (fast < 3) {
      std::fprintf(stderr,
                   "FAIL: only %d of 5 kernels reached 2x scalar under AVX2 "
                   "(need 3)\n",
                   fast);
      return 1;
    }
  } else {
    std::printf("gate skipped: detected ISA is %s, not avx2\n",
                simd::to_string(simd::detected_isa()));
  }
  return 0;
}
