#include "simkit/stats.hpp"

#include <cmath>
#include <functional>
#include <sstream>

#include "simkit/assert.hpp"

namespace das::sim {

void TimeWeightedGauge::set(SimTime now, double value) {
  if (!started_) {
    started_ = true;
    first_update_ = now;
    last_update_ = now;
    value_ = value;
    max_ = value;
    return;
  }
  DAS_REQUIRE(now >= last_update_);
  weighted_sum_ += value_ * static_cast<double>(now - last_update_);
  last_update_ = now;
  value_ = value;
  max_ = std::max(max_, value);
}

double TimeWeightedGauge::average(SimTime now) const {
  if (!started_ || now <= first_update_) return value_;
  const double span = static_cast<double>(now - first_update_);
  const double tail = value_ * static_cast<double>(now - last_update_);
  return (weighted_sum_ + tail) / span;
}

void Histogram::record(double sample) {
  samples_.push_back(sample);
  sorted_ = samples_.size() <= 1;
  sum_ += sample;
}

double Histogram::mean() const {
  DAS_REQUIRE(!samples_.empty());
  return sum_ / static_cast<double>(samples_.size());
}

double Histogram::min() const {
  ensure_sorted();
  DAS_REQUIRE(!samples_.empty());
  return samples_.front();
}

double Histogram::max() const {
  ensure_sorted();
  DAS_REQUIRE(!samples_.empty());
  return samples_.back();
}

double Histogram::quantile(double q) const {
  DAS_REQUIRE(q >= 0.0 && q <= 1.0);
  DAS_REQUIRE(!samples_.empty());
  ensure_sorted();
  // Nearest-rank leaves q == 0 unspecified (rank 0); define it as the
  // minimum so quantile() spans [min, max] over its whole domain.
  if (q == 0.0) return samples_.front();
  const auto n = samples_.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return samples_[rank - 1];
}

HistogramSummary Histogram::summary() const {
  if (samples_.empty()) return HistogramSummary{};
  return HistogramSummary{count(),        mean(),          quantile(0.5),
                          quantile(0.95), quantile(0.99),  max()};
}

void Histogram::merge(const Histogram& other) {
  if (other.samples_.empty()) return;
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  sorted_ = samples_.size() <= 1;
  sum_ += other.sum_;
}

void Histogram::reset() {
  samples_.clear();
  sorted_ = true;
  sum_ = 0.0;
}

void Histogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

void RunningMedian::record(double sample) {
  const auto greater = std::greater<>{};
  if (lower_.empty() || sample <= lower_.front()) {
    lower_.push_back(sample);
    std::push_heap(lower_.begin(), lower_.end());
  } else {
    upper_.push_back(sample);
    std::push_heap(upper_.begin(), upper_.end(), greater);
  }
  // Rebalance so the max-heap holds exactly ceil(n/2) samples.
  if (lower_.size() > upper_.size() + 1) {
    std::pop_heap(lower_.begin(), lower_.end());
    upper_.push_back(lower_.back());
    lower_.pop_back();
    std::push_heap(upper_.begin(), upper_.end(), greater);
  } else if (upper_.size() > lower_.size()) {
    std::pop_heap(upper_.begin(), upper_.end(), greater);
    lower_.push_back(upper_.back());
    upper_.pop_back();
    std::push_heap(lower_.begin(), lower_.end());
  }
}

double RunningMedian::median() const {
  DAS_REQUIRE(!lower_.empty());
  return lower_.front();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

TimeWeightedGauge& MetricsRegistry::gauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histograms_[name];
}

std::string MetricsRegistry::report(SimTime now) const {
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " = " << c.value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " avg=" << g.average(now) << " max=" << g.maximum()
        << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    if (h.count() == 0) {
      out << name << " (no samples)\n";
      continue;
    }
    const HistogramSummary s = h.summary();
    out << name << " n=" << s.count << " mean=" << s.mean
        << " p50=" << s.p50 << " p95=" << s.p95 << " p99=" << s.p99
        << " max=" << s.max << '\n';
  }
  return out.str();
}

}  // namespace das::sim
