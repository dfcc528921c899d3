// MetricsRegistry: the enrollment table behind the telemetry plane.
//
// Subsystems do not push values into the registry; they enroll *sources* —
// the address of a counter cell they keep incrementing, a closure that
// computes a gauge, or a simkit Histogram they keep recording into — and
// the sampler pulls a consistent snapshot whenever it ticks. Enrollment
// happens once at run setup, so the instrument hot paths stay exactly what
// they were before the registry existed: a plain integer increment.
//
// Series order is enrollment order, which is deterministic (component
// construction order is fixed by the cluster builder), so the exported
// column order and Prometheus text are byte-stable across runs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simkit/stats.hpp"
#include "telemetry/metrics.hpp"

namespace das::telemetry {

/// What kind of source backs a series (drives exposition formatting).
enum class SeriesKind : std::uint8_t {
  kCounter,    // monotone integer, read from a uint64_t cell
  kGauge,      // instantaneous value, read from a closure
  kHistCount,  // histogram sample count (monotone)
  kHistSum,    // histogram sample sum (monotone)
};

class Registry {
 public:
  using GaugeFn = std::function<double()>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Enroll a counter cell. The cell must outlive the registry's last read.
  void enroll_counter(std::string name, Labels labels,
                      const std::uint64_t* cell);
  void enroll_counter(std::string name, Labels labels, const Counter& c) {
    enroll_counter(std::move(name), std::move(labels), c.cell());
  }

  /// Enroll a gauge closure (evaluated at each sample; not hot-path code).
  void enroll_gauge(std::string name, Labels labels, GaugeFn read);

  /// Enroll a histogram: exposes `<name>.count` and `<name>.sum` columns in
  /// the time series (both O(1) reads) and a quantile summary in the
  /// Prometheus exposition (quantiles computed once, at export time).
  void enroll_histogram(std::string name, Labels labels,
                        const sim::Histogram* histogram);

  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

  /// Column header cell for series `i`: `name{k=v;k=v}` — no commas, so the
  /// CSV exporter needs no quoting.
  [[nodiscard]] const std::string& series_name(std::size_t i) const {
    return series_[i].column;
  }
  [[nodiscard]] SeriesKind series_kind(std::size_t i) const {
    return series_[i].kind;
  }

  /// Current value of series `i`.
  [[nodiscard]] double read(std::size_t i) const;

  /// Append the current value of every series to `out`, in series order.
  /// The sampler's per-tick snapshot path.
  void sample_into(std::vector<double>& out) const;

  /// Prometheus text exposition of every series (current values), with
  /// histogram quantile summaries: one group per metric family under one
  /// TYPE line, in first-enrolment order. Deterministic for equal runs.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  struct Series {
    std::string name;    // instrument name, e.g. "net.bytes"
    std::string column;  // formatted "name{k=v;k=v}"
    Labels labels;
    SeriesKind kind = SeriesKind::kCounter;
    const std::uint64_t* cell = nullptr;          // kCounter
    GaugeFn gauge;                                // kGauge
    const sim::Histogram* histogram = nullptr;    // kHistCount / kHistSum
  };

  void push(Series series);
  [[nodiscard]] static double read_series(const Series& s);

  std::vector<Series> series_;
};

}  // namespace das::telemetry
