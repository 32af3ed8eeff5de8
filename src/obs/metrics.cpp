#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace casched::obs {

namespace {

double bitsToDouble(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t doubleToBits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void atomicAddDouble(std::atomic<std::uint64_t>& bits, double delta) {
  std::uint64_t old = bits.load(std::memory_order_relaxed);
  while (true) {
    const std::uint64_t next = doubleToBits(bitsToDouble(old) + delta);
    if (bits.compare_exchange_weak(old, next, std::memory_order_relaxed)) return;
  }
}

std::string formatDouble(double v) {
  // %.17g round-trips; trim to %g for readability where exactness is kept.
  return util::strformat("%.17g", v);
}

std::string labelSuffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out << ",";
    first = false;
    out << k << "=\"" << v << "\"";
  }
  out << "}";
  return out.str();
}

const char* kindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

}  // namespace

void Gauge::set(double v) noexcept { bits_.store(doubleToBits(v), std::memory_order_relaxed); }
void Gauge::add(double delta) noexcept { atomicAddDouble(bits_, delta); }
double Gauge::value() const noexcept { return bitsToDouble(bits_.load(std::memory_order_relaxed)); }

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    CASCHED_CHECK(bounds_[i - 1] < bounds_[i], "histogram bounds must be strictly increasing");
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound contains v; past the last bound -> +Inf.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(1, std::memory_order_relaxed);
  const double scaled = v / kSumResolution;
  if (std::fabs(scaled) < 0x1p62) {  // false for NaN too
    const std::int64_t units = std::llround(scaled);
    const std::int64_t old = sumUnits_.fetch_add(units, std::memory_order_relaxed);
    std::int64_t next;
    if (__builtin_add_overflow(old, units, &next)) {
      sumOverflow_.store(true, std::memory_order_relaxed);
    }
  } else {
    sumOverflow_.store(true, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucketCounts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::sum() const noexcept {
  if (sumOverflow_.load(std::memory_order_relaxed)) return std::nan("");
  return static_cast<double>(sumUnits_.load(std::memory_order_relaxed)) * kSumResolution;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
  sumUnits_.store(0, std::memory_order_relaxed);
  sumOverflow_.store(false, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
}

std::string MetricSample::fullName() const { return name + labelSuffix(labels); }

struct Registry::Entry {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

Registry& Registry::global() {
  static Registry* instance = new Registry();  // never destroyed: instruments
                                               // may fire during static teardown
  return *instance;
}

Registry::Entry& Registry::findOrCreate(const std::string& name, const std::string& help,
                                        const Labels& labels, MetricKind kind) {
  for (auto& entry : entries_) {
    if (entry->name == name && entry->labels == labels) {
      CASCHED_CHECK(entry->kind == kind,
                    "metric '" + name + "' re-registered as a different kind (" +
                        kindName(entry->kind) + " vs " + kindName(kind) + ")");
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = name;
  entry->help = help;
  entry->labels = labels;
  entry->kind = kind;
  entries_.push_back(std::move(entry));
  return *entries_.back();
}

Counter& Registry::counter(const std::string& name, const std::string& help,
                           const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = findOrCreate(name, help, labels, MetricKind::kCounter);
  if (!entry.counter) entry.counter = std::make_unique<Counter>();
  return *entry.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = findOrCreate(name, help, labels, MetricKind::kGauge);
  if (!entry.gauge) entry.gauge = std::make_unique<Gauge>();
  return *entry.gauge;
}

Histogram& Registry::histogram(const std::string& name, std::vector<double> bounds,
                               const std::string& help, const Labels& labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = findOrCreate(name, help, labels, MetricKind::kHistogram);
  if (!entry.histogram) entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *entry.histogram;
}

RegistrySnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.metrics.reserve(entries_.size());
  for (const auto& entry : entries_) {
    MetricSample s;
    s.name = entry->name;
    s.help = entry->help;
    s.labels = entry->labels;
    s.kind = entry->kind;
    switch (entry->kind) {
      case MetricKind::kCounter:
        s.value = static_cast<double>(entry->counter->value());
        break;
      case MetricKind::kGauge:
        s.value = entry->gauge->value();
        break;
      case MetricKind::kHistogram:
        s.histogram.bounds = entry->histogram->bounds();
        s.histogram.counts = entry->histogram->bucketCounts();
        s.histogram.sum = entry->histogram->sum();
        s.histogram.count = entry->histogram->count();
        break;
    }
    snap.metrics.push_back(std::move(s));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : entries_) {
    if (entry->counter) entry->counter->reset();
    if (entry->gauge) entry->gauge->reset();
    if (entry->histogram) entry->histogram->reset();
  }
}

std::string RegistrySnapshot::prometheus() const {
  std::ostringstream out;
  std::set<std::string> headerDone;  // HELP/TYPE once per metric family
  for (const MetricSample& m : metrics) {
    if (headerDone.insert(m.name).second) {
      if (!m.help.empty()) out << "# HELP " << m.name << " " << m.help << "\n";
      out << "# TYPE " << m.name << " " << kindName(m.kind) << "\n";
    }
    if (m.kind == MetricKind::kHistogram) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < m.histogram.bounds.size(); ++i) {
        cumulative += m.histogram.counts[i];
        Labels withLe = m.labels;
        withLe.emplace_back("le", util::strformat("%g", m.histogram.bounds[i]));
        out << m.name << "_bucket" << labelSuffix(withLe) << " " << cumulative << "\n";
      }
      Labels inf = m.labels;
      inf.emplace_back("le", "+Inf");
      out << m.name << "_bucket" << labelSuffix(inf) << " " << m.histogram.count << "\n";
      out << m.name << "_sum" << labelSuffix(m.labels) << " " << formatDouble(m.histogram.sum)
          << "\n";
      out << m.name << "_count" << labelSuffix(m.labels) << " " << m.histogram.count << "\n";
    } else if (m.kind == MetricKind::kCounter) {
      out << m.name << labelSuffix(m.labels) << " "
          << static_cast<std::uint64_t>(m.value) << "\n";
    } else {
      out << m.name << labelSuffix(m.labels) << " " << formatDouble(m.value) << "\n";
    }
  }
  return out.str();
}

std::string RegistrySnapshot::json() const {
  util::JsonWriter w;
  w.beginObject().key("metrics").beginArray();
  for (const MetricSample& m : metrics) {
    w.beginObject();
    w.key("name").value(m.name);
    w.key("type").value(kindName(m.kind));
    if (!m.labels.empty()) {
      w.key("labels").beginObject();
      for (const auto& [k, v] : m.labels) w.key(k).value(v);
      w.endObject();
    }
    if (m.kind == MetricKind::kHistogram) {
      w.key("buckets").beginArray();
      for (std::size_t i = 0; i < m.histogram.bounds.size(); ++i) {
        w.beginObject();
        w.key("le").value(m.histogram.bounds[i]);
        w.key("count").value(m.histogram.counts[i]);
        w.endObject();
      }
      w.endArray();
      w.key("inf_count")
          .value(m.histogram.counts.empty() ? 0ull : m.histogram.counts.back());
      w.key("sum").value(m.histogram.sum);
      w.key("count").value(m.histogram.count);
    } else {
      w.key("value").value(m.value);
    }
    w.endObject();
  }
  w.endArray().endObject();
  return w.str();
}

RegistrySnapshot RegistrySnapshot::since(const RegistrySnapshot& earlier) const {
  std::map<std::string, const MetricSample*> base;
  for (const MetricSample& m : earlier.metrics) base[m.fullName()] = &m;
  RegistrySnapshot delta = *this;
  for (MetricSample& m : delta.metrics) {
    const auto it = base.find(m.fullName());
    if (it == base.end()) continue;
    const MetricSample& b = *it->second;
    if (b.kind != m.kind) continue;
    switch (m.kind) {
      case MetricKind::kCounter:
        m.value -= b.value;
        break;
      case MetricKind::kGauge:
        break;  // gauges are level values, not accumulations
      case MetricKind::kHistogram:
        if (b.histogram.counts.size() == m.histogram.counts.size()) {
          for (std::size_t i = 0; i < m.histogram.counts.size(); ++i) {
            m.histogram.counts[i] -= b.histogram.counts[i];
          }
          m.histogram.sum -= b.histogram.sum;
          m.histogram.count -= b.histogram.count;
        }
        break;
    }
  }
  return delta;
}

StatsFormat parseStatsFormat(const std::string& name) {
  const std::string n = util::toLower(name);
  if (n == "prometheus" || n == "text") return StatsFormat::kPrometheus;
  if (n == "json") return StatsFormat::kJson;
  throw util::ConfigError("unknown stats format '" + name +
                          "' (valid: prometheus, json)");
}

const char* statsFormatName(StatsFormat format) {
  return format == StatsFormat::kPrometheus ? "prometheus" : "json";
}

std::string renderStats(const RegistrySnapshot& snapshot, StatsFormat format) {
  return format == StatsFormat::kPrometheus ? snapshot.prometheus() : snapshot.json();
}

}  // namespace casched::obs
