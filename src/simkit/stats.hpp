// Metrics primitives used by the simulated cluster components.
//
// Counters accumulate event counts and byte totals; TimeWeightedGauge tracks
// utilization-style values averaged over simulated time; Histogram records
// sample distributions (latencies, queue depths). A MetricsRegistry owns
// named instances so reports can be assembled generically.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simkit/time.hpp"

namespace das::sim {

/// Monotonically increasing count (events, bytes, requests).
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// A gauge averaged over simulated time, e.g. NIC utilization or queue depth.
///
/// Call set(now, v) whenever the value changes; the average between updates
/// is weighted by the simulated time the value was held.
class TimeWeightedGauge {
 public:
  void set(SimTime now, double value);

  /// Time-weighted mean over [first update, `now`].
  [[nodiscard]] double average(SimTime now) const;

  [[nodiscard]] double current() const { return value_; }
  [[nodiscard]] double maximum() const { return max_; }

 private:
  double value_ = 0.0;
  double max_ = 0.0;
  double weighted_sum_ = 0.0;  // integral of value over time
  SimTime last_update_ = 0;
  SimTime first_update_ = 0;
  bool started_ = false;
};

/// One-line digest of a histogram; all zeros when the histogram is empty.
struct HistogramSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Sample distribution with exact quantiles (stores all samples).
///
/// Experiments in this repository record at most a few million samples per
/// histogram, so exact storage is affordable and avoids sketch error.
class Histogram {
 public:
  void record(double sample);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// q in [0, 1]; nearest-rank quantile, with q == 0 defined as the
  /// minimum (nearest-rank alone would leave rank 0 unspecified).
  /// Requires count() > 0.
  [[nodiscard]] double quantile(double q) const;

  /// count/mean/p50/p95/p99/max in one call; safe on an empty histogram.
  [[nodiscard]] HistogramSummary summary() const;

  /// Fold another histogram's samples into this one (per-node resource
  /// histograms aggregate into one cluster-wide distribution).
  void merge(const Histogram& other);

  void reset();

 private:
  void ensure_sorted() const;

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// Exact running median: after every record(), median() equals
/// Histogram::quantile(0.5) over the same samples (nearest rank, the
/// ceil(n/2)-th smallest) in O(log n) per sample and O(1) per read, where
/// the histogram re-sorts whenever a sample arrived since its last sort.
/// A max-heap holds the ceil(n/2) smallest samples, a min-heap the rest.
class RunningMedian {
 public:
  void record(double sample);

  [[nodiscard]] std::size_t count() const {
    return lower_.size() + upper_.size();
  }

  /// Requires count() > 0.
  [[nodiscard]] double median() const;

 private:
  std::vector<double> lower_;  // max-heap: the ceil(n/2) smallest
  std::vector<double> upper_;  // min-heap: the rest
};

/// Named metrics for one component or one experiment run.
class MetricsRegistry {
 public:
  /// Find-or-create by name. References stay valid for the registry's life.
  Counter& counter(const std::string& name);
  TimeWeightedGauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, TimeWeightedGauge>& gauges()
      const {
    return gauges_;
  }

  /// Render counters and histogram summaries as aligned text lines.
  [[nodiscard]] std::string report(SimTime now) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, TimeWeightedGauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace das::sim
