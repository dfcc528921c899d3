// Completion barrier for fan-out/fan-in event patterns.
//
// Executors issue many concurrent operations whose completions arrive as
// events; the barrier fires its callback when every registered operation has
// arrived AND seal() has been called (so registrations racing with early
// completions cannot fire the callback prematurely).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "simkit/assert.hpp"
#include "simkit/inplace_fn.hpp"

namespace das::core {

class CompletionBarrier {
 public:
  explicit CompletionBarrier(sim::InplaceFn<void()> on_done)
      : on_done_(std::move(on_done)) {}

  /// Register `n` more expected completions.
  void add(std::uint64_t n = 1) {
    DAS_REQUIRE(!sealed_ || outstanding_ > 0);
    outstanding_ += n;
  }

  /// One completion arrived.
  void arrive() {
    DAS_REQUIRE(outstanding_ > 0);
    --outstanding_;
    maybe_fire();
  }

  /// No further add() calls will follow; fire now if nothing is pending.
  void seal() {
    sealed_ = true;
    maybe_fire();
  }

  [[nodiscard]] std::uint64_t outstanding() const { return outstanding_; }

 private:
  void maybe_fire() {
    if (sealed_ && outstanding_ == 0 && on_done_) {
      // Move out first: the callback may destroy this barrier.
      auto cb = std::move(on_done_);
      on_done_ = nullptr;
      cb();
    }
  }

  sim::InplaceFn<void()> on_done_;
  std::uint64_t outstanding_ = 0;
  bool sealed_ = false;
};

using BarrierPtr = std::shared_ptr<CompletionBarrier>;

inline BarrierPtr make_barrier(sim::InplaceFn<void()> on_done) {
  return std::make_shared<CompletionBarrier>(std::move(on_done));
}

/// An empty std::function means "no callback"; translate it to a null
/// InplaceFn instead of wrapping a callable that throws bad_function_call.
[[nodiscard]] inline sim::InplaceFn<void()> as_callback(
    std::function<void()> fn) {
  return fn ? sim::InplaceFn<void()>(std::move(fn)) : sim::InplaceFn<void()>();
}

/// Run `passes` back-to-back passes of one operation, then call `on_done`
/// (may be empty). `start_pass` launches one pass and calls its argument
/// when that pass completes; executors hold per-start state, so every pass
/// builds a fresh one.
inline void run_passes(std::uint32_t passes,
                       std::function<void(std::function<void()>)> start_pass,
                       std::function<void()> on_done) {
  DAS_REQUIRE(passes >= 1);
  if (passes == 1) {
    start_pass(std::move(on_done));
    return;
  }
  start_pass([passes, start_pass, on_done]() {
    run_passes(passes - 1, start_pass, on_done);
  });
}

}  // namespace das::core
