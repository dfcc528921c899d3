#include "kernels/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "grid/grid.hpp"
#include "kernels/registry.hpp"
#include "simkit/assert.hpp"

namespace das::kernels {

namespace {

constexpr const char* kCalibratedKernels[] = {
    "laplacian-4", "gaussian-2d", "surface-slope", "median-3x3",
    "flow-routing", "raster-statistics"};

/// Deterministic synthetic raster; strictly positive values so the
/// reduction kernels never see -0.0 (min/max over mixed zero signs is the
/// one case where vector and scalar folds could differ).
grid::Grid<float> make_input(std::uint32_t width, std::uint32_t height) {
  grid::Grid<float> g(width, height);
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

double seconds_for_run(const ProcessingKernel& kernel,
                       const grid::Grid<float>& input) {
  const auto start = std::chrono::steady_clock::now();
  const grid::Grid<float> out = kernel.run_reference(input);
  const auto stop = std::chrono::steady_clock::now();
  // Touch the result so the timed region cannot be elided.
  DAS_REQUIRE(out.width() > 0);
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

std::string CalibrationReport::kernel_cost_flag() const {
  std::string flag;
  for (const KernelCalibration& k : kernels) {
    if (!flag.empty()) flag += ',';
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s:%.3f", k.name.c_str(), k.cost_factor);
    flag += buf;
  }
  return flag;
}

std::string CalibrationReport::format() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "kernel calibration: isa=%s grid=%ux%u repeats=%u\n",
                simd::to_string(isa), width, height, repeats);
  out += line;
  std::snprintf(line, sizeof(line), "  %-18s %14s %12s %12s\n", "kernel",
                "cells/sec", "MiB/s", "cost-factor");
  out += line;
  for (const KernelCalibration& k : kernels) {
    std::snprintf(line, sizeof(line), "  %-18s %14.3e %12.1f %12.3f\n",
                  k.name.c_str(), k.cells_per_second, k.mib_per_second,
                  k.cost_factor);
    out += line;
  }
  // The --kernel-cost list outgrows `line`: append it whole.
  std::snprintf(line, sizeof(line),
                "recommended flags:\n  --compute-mibps=%.0f\n", anchor_mibps);
  out += line;
  out += "  --kernel-cost=" + kernel_cost_flag() + "\n";
  return out;
}

CalibrationReport calibrate_kernels(std::uint32_t width, std::uint32_t height,
                                    std::uint32_t repeats) {
  DAS_REQUIRE(width >= 3 && height >= 3 && repeats >= 1);
  CalibrationReport report;
  report.isa = simd::active_isa();
  report.width = width;
  report.height = height;
  report.repeats = repeats;

  const grid::Grid<float> input = make_input(width, height);
  const double cells =
      static_cast<double>(width) * static_cast<double>(height);
  const KernelRegistry registry = standard_registry();

  for (const char* name : kCalibratedKernels) {
    const KernelPtr kernel = registry.create(name);
    seconds_for_run(*kernel, input);  // warm-up: page in, prime caches
    double best = std::numeric_limits<double>::infinity();
    for (std::uint32_t r = 0; r < repeats; ++r) {
      best = std::min(best, seconds_for_run(*kernel, input));
    }
    KernelCalibration k;
    k.name = name;
    k.cells_per_second = cells / best;
    k.mib_per_second = k.cells_per_second * sizeof(float) / (1024.0 * 1024.0);
    report.kernels.push_back(k);
  }

  double anchor = 0.0;
  for (const KernelCalibration& k : report.kernels) {
    anchor = std::max(anchor, k.mib_per_second);
  }
  report.anchor_mibps = anchor;
  for (KernelCalibration& k : report.kernels) {
    k.cost_factor = anchor / k.mib_per_second;
  }
  return report;
}

}  // namespace das::kernels
