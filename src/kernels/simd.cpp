// Runtime ISA detection, override plumbing and the dispatch table.
#include "kernels/simd.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

#include "kernels/simd_detail.hpp"

namespace das::kernels::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
Isa probe_isa() {
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
  if (__builtin_cpu_supports("sse2")) return Isa::kSse2;
  return Isa::kScalar;
}
#else
Isa probe_isa() { return Isa::kScalar; }
#endif

// kScalar is a valid override, so the "no override" sentinel lives outside
// the enum range.
constexpr std::uint8_t kNoOverride = 0xFF;
std::atomic<std::uint8_t> g_override{kNoOverride};

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

std::optional<Isa> isa_from_string(std::string_view name) {
  if (name == "scalar") return Isa::kScalar;
  if (name == "sse2") return Isa::kSse2;
  if (name == "avx2") return Isa::kAvx2;
  return std::nullopt;
}

Isa detected_isa() {
  static const Isa detected = probe_isa();
  return detected;
}

Isa active_isa() {
  const std::uint8_t over = g_override.load(std::memory_order_relaxed);
  if (over == kNoOverride) return detected_isa();
  return static_cast<Isa>(over);
}

void set_isa_override(std::optional<Isa> isa) {
  if (!isa) {
    g_override.store(kNoOverride, std::memory_order_relaxed);
    return;
  }
  if (*isa > detected_isa()) {
    throw std::invalid_argument(
        std::string("kernel ISA '") + to_string(*isa) +
        "' not supported by this CPU (detected: " +
        to_string(detected_isa()) + ")");
  }
  g_override.store(static_cast<std::uint8_t>(*isa),
                   std::memory_order_relaxed);
}

std::optional<Isa> isa_override() {
  const std::uint8_t over = g_override.load(std::memory_order_relaxed);
  if (over == kNoOverride) return std::nullopt;
  return static_cast<Isa>(over);
}

const RowKernels& row_kernels(Isa isa) {
  if (isa == Isa::kAvx2) return detail::avx2_row_kernels();
  if (isa == Isa::kSse2) return detail::sse2_row_kernels();
  return detail::scalar_row_kernels();
}

}  // namespace das::kernels::simd
