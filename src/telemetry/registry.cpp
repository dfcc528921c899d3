#include "telemetry/registry.hpp"

#include <cstdio>
#include <map>
#include <utility>

#include "simkit/assert.hpp"

namespace das::telemetry {
namespace {

/// `name{k=v;k=v}` — the CSV/column spelling (no commas, no quotes).
std::string format_column(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ';';
    out += labels[i].first;
    out += '=';
    out += labels[i].second;
  }
  out += '}';
  return out;
}

/// Prometheus metric name: dots become underscores, prefixed `das_`.
std::string prom_name(const std::string& name, const char* suffix = "") {
  std::string out = "das_";
  for (const char c : name) out += c == '.' || c == '-' ? '_' : c;
  out += suffix;
  return out;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

std::string prom_labels_with_quantile(const Labels& labels, const char* q) {
  std::string out = "{";
  for (const Label& l : labels) {
    out += l.first;
    out += "=\"";
    out += l.second;
    out += "\",";
  }
  out += "quantile=\"";
  out += q;
  out += "\"}";
  return out;
}

/// The TYPE of the metric family a series of `kind` belongs to.
const char* prom_type(SeriesKind kind) {
  if (kind == SeriesKind::kCounter) return "counter";
  return kind == SeriesKind::kGauge ? "gauge" : "summary";
}

std::string fixed(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  return buf;
}

}  // namespace

void Registry::push(Series series) {
  series.column = format_column(series.name, series.labels);
  series_.push_back(std::move(series));
}

void Registry::enroll_counter(std::string name, Labels labels,
                              const std::uint64_t* cell) {
  DAS_REQUIRE(cell != nullptr);
  Series s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = SeriesKind::kCounter;
  s.cell = cell;
  push(std::move(s));
}

void Registry::enroll_gauge(std::string name, Labels labels, GaugeFn read) {
  DAS_REQUIRE(read != nullptr);
  Series s;
  s.name = std::move(name);
  s.labels = std::move(labels);
  s.kind = SeriesKind::kGauge;
  s.gauge = std::move(read);
  push(std::move(s));
}

void Registry::enroll_histogram(std::string name, Labels labels,
                                const sim::Histogram* histogram) {
  DAS_REQUIRE(histogram != nullptr);
  Series count;
  count.name = name + ".count";
  count.labels = labels;
  count.kind = SeriesKind::kHistCount;
  count.histogram = histogram;
  push(std::move(count));

  Series sum;
  sum.name = std::move(name) + ".sum";
  sum.labels = std::move(labels);
  sum.kind = SeriesKind::kHistSum;
  sum.histogram = histogram;
  push(std::move(sum));
}

double Registry::read_series(const Series& s) {
  switch (s.kind) {
    case SeriesKind::kCounter: return static_cast<double>(*s.cell);
    case SeriesKind::kGauge: return s.gauge();
    case SeriesKind::kHistCount:
      return static_cast<double>(s.histogram->count());
    case SeriesKind::kHistSum: return s.histogram->sum();
  }
  return 0.0;
}

double Registry::read(std::size_t i) const { return read_series(series_[i]); }

void Registry::sample_into(std::vector<double>& out) const {
  // One pass over the table: the sampler calls this every tick, and an
  // indexed read() per series costs an extra call + bounds math each.
  for (const Series& s : series_) out.push_back(read_series(s));
}

std::string Registry::prometheus_text() const {
  // The text format declares a metric family once: one TYPE line, then all
  // of the family's samples. Families keep their first enrolment's order.
  std::vector<std::string> families;
  std::map<std::string, std::size_t> family_of;  // metric name -> index
  for (const Series& s : series_) {
    if (s.kind == SeriesKind::kHistSum) continue;  // folded into kHistCount
    const bool is_summary = s.kind == SeriesKind::kHistCount;
    const std::string name =
        prom_name(is_summary ? s.name.substr(0, s.name.size() - 6) : s.name);
    const auto [at, fresh] = family_of.try_emplace(name, families.size());
    if (fresh) {
      families.push_back("# TYPE " + name + ' ' + prom_type(s.kind) + '\n');
    }
    std::string& out = families[at->second];
    switch (s.kind) {
      case SeriesKind::kCounter:
        out += name + prom_labels(s.labels) + ' ' + std::to_string(*s.cell) +
               '\n';
        break;
      case SeriesKind::kGauge:
        out += name + prom_labels(s.labels) + ' ' + fixed(s.gauge()) + '\n';
        break;
      case SeriesKind::kHistCount: {
        const sim::HistogramSummary summary = s.histogram->summary();
        out += name + prom_labels_with_quantile(s.labels, "0.5") + ' ' +
               fixed(summary.p50) + '\n';
        out += name + prom_labels_with_quantile(s.labels, "0.95") + ' ' +
               fixed(summary.p95) + '\n';
        out += name + prom_labels_with_quantile(s.labels, "0.99") + ' ' +
               fixed(summary.p99) + '\n';
        out += name + "_count" + prom_labels(s.labels) + ' ' +
               std::to_string(s.histogram->count()) + '\n';
        out += name + "_sum" + prom_labels(s.labels) + ' ' +
               fixed(s.histogram->sum()) + '\n';
        break;
      }
      case SeriesKind::kHistSum: break;  // skipped above
    }
  }
  std::string text;
  for (const std::string& family : families) text += family;
  return text;
}

}  // namespace das::telemetry
