#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace aps::obs {

std::size_t thread_shard() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot & (kMetricShards - 1);
}

namespace detail {

void atomic_add_double(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_max_double(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(const HistogramSpec& spec) : spec_(spec) {
  if (spec.buckets == 0 || spec.first_bound <= 0.0 || spec.growth <= 1.0) {
    throw std::invalid_argument("histogram spec needs buckets > 0, "
                                "first_bound > 0 and growth > 1");
  }
  bounds_.resize(spec.buckets);
  double bound = spec.first_bound;
  for (auto& b : bounds_) {
    b = bound;
    bound *= spec.growth;
  }
  shards_ = std::vector<Shard>(kMetricShards);
  for (auto& shard : shards_) {
    shard.counts = std::vector<std::atomic<std::uint64_t>>(spec.buckets + 1);
  }
}

void Histogram::observe(double value) noexcept {
  Shard& shard = shards_[thread_shard()];
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  shard.counts[bucket].fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add_double(shard.sum, value);
  detail::atomic_max_double(max_, value);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t b = 0; b < shard.counts.size(); ++b) {
      snap.counts[b] += shard.counts[b].load(std::memory_order_relaxed);
    }
    snap.sum += shard.sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  snap.max = snap.count > 0 ? max_.load(std::memory_order_relaxed) : 0.0;
  return snap;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    for (auto& c : shard.counts) c.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
  max_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::percentile(double p) const {
  // Contract: an empty histogram (and a NaN p, which std::clamp would
  // propagate unpredictably) reads as exactly 0.0, never NaN.
  if (count == 0 || std::isnan(p)) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts[b];
    if (static_cast<double>(cumulative) < target) continue;
    const double lower = b == 0 ? 0.0 : bounds[b - 1];
    const double upper = b < bounds.size() ? bounds[b] : max;
    const double fraction =
        (target - before) / static_cast<double>(counts[b]);
    return std::min(lower + (upper - lower) * std::clamp(fraction, 0.0, 1.0),
                    max);
  }
  return max;
}

// ---- Exposition ------------------------------------------------------------

namespace {

/// Escape a Prometheus label value (backslash, quote, newline).
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + prom_escape(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// Number formatting shared by both expositions: shortest round-trip.
std::string fmt(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string MetricSample::series() const { return name + label_block(labels); }

std::string RegistrySnapshot::prometheus() const {
  std::string out;
  std::string last_family;
  for (const MetricSample& s : samples) {
    if (s.name != last_family) {
      last_family = s.name;
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " " + std::string(kind_name(s.kind)) + "\n";
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        out += s.series() + " " + std::to_string(s.counter) + "\n";
        break;
      case MetricKind::kGauge:
        out += s.series() + " " + fmt(s.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        // Cumulative `le` buckets per the exposition format.
        Labels labels = s.labels;
        labels.emplace_back("le", "");
        std::uint64_t cumulative = 0;
        const auto& h = s.histogram;
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          cumulative += h.counts[b];
          labels.back().second = b < h.bounds.size() ? fmt(h.bounds[b])
                                                     : "+Inf";
          out += s.name + "_bucket" + label_block(labels) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += s.name + "_sum" + label_block(s.labels) + " " + fmt(h.sum) +
               "\n";
        out += s.name + "_count" + label_block(s.labels) + " " +
               std::to_string(h.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string RegistrySnapshot::json() const {
  std::string out = "{\"metrics\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + json_escape(s.name) + "\", \"type\": \"" +
           kind_name(s.kind) + "\"";
    if (!s.labels.empty()) {
      out += ", \"labels\": {";
      for (std::size_t l = 0; l < s.labels.size(); ++l) {
        if (l > 0) out += ", ";
        out += '"';
        out += json_escape(s.labels[l].first);
        out += "\": \"";
        out += json_escape(s.labels[l].second);
        out += '"';
      }
      out += "}";
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        out += ", \"value\": " + std::to_string(s.counter);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": " + fmt(s.gauge);
        break;
      case MetricKind::kHistogram: {
        const auto& h = s.histogram;
        out += ", \"count\": " + std::to_string(h.count) +
               ", \"sum\": " + fmt(h.sum) + ", \"max\": " + fmt(h.max) +
               ", \"p50\": " + fmt(h.percentile(50.0)) +
               ", \"p95\": " + fmt(h.percentile(95.0)) +
               ", \"p99\": " + fmt(h.percentile(99.0)) + ", \"buckets\": [";
        bool first = true;
        for (std::size_t b = 0; b < h.counts.size(); ++b) {
          if (h.counts[b] == 0) continue;  // sparse: most buckets are empty
          if (!first) out += ", ";
          first = false;
          out += "{\"le\": " +
                 (b < h.bounds.size() ? fmt(h.bounds[b])
                                      : std::string("\"+Inf\"")) +
                 ", \"count\": " + std::to_string(h.counts[b]) + "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "], \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + json_escape(span.name) +
           "\", \"thread\": " + std::to_string(span.thread) +
           ", \"start_us\": " + fmt(span.start_us) +
           ", \"dur_us\": " + fmt(span.dur_us) + "}";
  }
  out += "]}";
  return out;
}

// ---- Registry --------------------------------------------------------------

namespace {

/// Canonical label identity: sorted "k=v" joined with unit separators.
std::string label_id(const Labels& labels) {
  std::string id;
  for (const auto& [k, v] : labels) {
    id += k;
    id += '\x1f';
    id += v;
    id += '\x1e';
  }
  return id;
}

}  // namespace

Registry::Metric& Registry::get_or_create(const std::string& name,
                                          Labels labels,
                                          const std::string& help,
                                          MetricKind kind) {
  // Caller must hold mu_.
  std::sort(labels.begin(), labels.end());
  const Key key{name, label_id(labels)};
  const auto it = series_.find(key);
  if (it != series_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("metric '" + name +
                                  "' already registered with another kind");
    }
    return it->second;
  }
  Metric metric;
  metric.kind = kind;
  metric.help = help;
  metric.labels = std::move(labels);
  return series_.emplace(key, std::move(metric)).first->second;
}

Counter& Registry::counter(const std::string& name, Labels labels,
                           const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Metric& metric =
      get_or_create(name, std::move(labels), help, MetricKind::kCounter);
  if (metric.counter == nullptr) metric.counter = std::make_unique<Counter>();
  return *metric.counter;
}

Gauge& Registry::gauge(const std::string& name, Labels labels,
                       const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Metric& metric =
      get_or_create(name, std::move(labels), help, MetricKind::kGauge);
  if (metric.gauge == nullptr) metric.gauge = std::make_unique<Gauge>();
  return *metric.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const HistogramSpec& spec, Labels labels,
                               const std::string& help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Metric& metric =
      get_or_create(name, std::move(labels), help, MetricKind::kHistogram);
  if (metric.histogram == nullptr) {
    metric.histogram = std::make_unique<Histogram>(spec);
  } else if (!(metric.histogram->spec() == spec)) {
    throw std::invalid_argument("histogram '" + name +
                                "' already registered with another layout");
  }
  return *metric.histogram;
}

const Registry::Metric* Registry::find(const std::string& name,
                                       const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(Key{name, label_id(sorted)});
  return it == series_.end() ? nullptr : &it->second;
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      const Labels& labels) const {
  const Metric* metric = find(name, labels);
  return metric != nullptr && metric->counter != nullptr
             ? metric->counter->value()
             : 0;
}

double Registry::gauge_value(const std::string& name,
                             const Labels& labels) const {
  const Metric* metric = find(name, labels);
  return metric != nullptr && metric->gauge != nullptr
             ? metric->gauge->value()
             : 0.0;
}

RegistrySnapshot Registry::scrape() const {
  RegistrySnapshot snap;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    snap.samples.reserve(series_.size());
    for (const auto& [key, metric] : series_) {
      MetricSample sample;
      sample.name = key.first;
      sample.labels = metric.labels;
      sample.kind = metric.kind;
      sample.help = metric.help;
      switch (metric.kind) {
        case MetricKind::kCounter:
          if (metric.counter != nullptr) {
            sample.counter = metric.counter->value();
          }
          break;
        case MetricKind::kGauge:
          if (metric.gauge != nullptr) sample.gauge = metric.gauge->value();
          break;
        case MetricKind::kHistogram:
          if (metric.histogram != nullptr) {
            sample.histogram = metric.histogram->snapshot();
          }
          break;
      }
      snap.samples.push_back(std::move(sample));
    }
  }
  snap.spans = tracer_.recent();
  return snap;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace aps::obs
