#pragma once
/// \file metrics.hpp
/// Process-wide metrics registry: counters, gauges and fixed-bucket
/// histograms with lock-free hot-path updates (relaxed atomics) and
/// snapshot-on-demand rendering as Prometheus exposition text or JSON.
/// Instrumentation sites resolve their metric object once and then only pay
/// an uncontended fetch_add per event, so the instruments can stay
/// compiled-in everywhere (the micro_scheduler overhead bench locks this).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace casched::obs {

/// Label pairs in registration order; part of a metric's identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept;
  void add(double delta) noexcept;
  double value() const noexcept;
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};  ///< IEEE-754 bits of the value
};

/// Fixed-bucket histogram: cumulative-style buckets with strictly increasing
/// upper bounds plus an implicit +Inf bucket. Bounds are fixed at
/// registration so observation never allocates.
///
/// The sum is a fixed-point integer in units of kSumResolution, so threads
/// observing concurrently get the same total in any interleaving (a double
/// sum would round differently per order). Each value is rounded to the
/// resolution once; the integer sum is exact while its magnitude stays below
/// 2^39 (about 5.5e11). A sum past that range, or a value that does not fit
/// (NaN, infinite), makes sum() read NaN until reset().
class Histogram {
 public:
  static constexpr double kSumResolution = 0x1p-24;  ///< about 6e-8

  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucketCounts() const;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds_.size() + 1
  std::atomic<std::int64_t> sumUnits_{0};  ///< sum / kSumResolution
  std::atomic<bool> sumOverflow_{false};
  std::atomic<std::uint64_t> count_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct HistogramValue {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;  ///< per-bucket, last = +Inf
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// One metric's state at snapshot time.
struct MetricSample {
  std::string name;
  std::string help;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  ///< counter / gauge
  HistogramValue histogram;

  /// `name{k="v",...}` - the identity string used in diffs and suite JSON.
  std::string fullName() const;
};

/// Point-in-time copy of the whole registry.
struct RegistrySnapshot {
  std::vector<MetricSample> metrics;

  /// Prometheus text exposition format.
  std::string prometheus() const;
  /// JSON document (util::JsonWriter shape: {"metrics": [...]}).
  std::string json() const;
  /// Counters and histograms as deltas against `earlier`; gauges keep their
  /// current value. Metrics absent from `earlier` keep their full value.
  RegistrySnapshot since(const RegistrySnapshot& earlier) const;
};

/// Thread-safe registry. Registration takes a mutex (do it once, keep the
/// reference - the returned objects live as long as the registry); updates
/// through the returned references are lock-free.
class Registry {
 public:
  /// The process-wide registry every built-in instrument registers with.
  static Registry& global();

  /// Returns the existing metric when (name, labels) was already registered;
  /// throws util::Error when it exists with a different kind.
  Counter& counter(const std::string& name, const std::string& help = "",
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help = "",
               const Labels& labels = {});
  /// `bounds` must be strictly increasing; ignored (the original wins) when
  /// the histogram already exists.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "", const Labels& labels = {});

  RegistrySnapshot snapshot() const;
  /// Zeroes every registered metric (tests and per-run isolation).
  void reset();

 private:
  struct Entry;
  Entry& findOrCreate(const std::string& name, const std::string& help,
                      const Labels& labels, MetricKind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// Render format of a metrics snapshot ("prometheus" | "json"); parse throws
/// util::ConfigError enumerating the valid names on anything else.
enum class StatsFormat { kPrometheus, kJson };
StatsFormat parseStatsFormat(const std::string& name);
const char* statsFormatName(StatsFormat format);
std::string renderStats(const RegistrySnapshot& snapshot, StatsFormat format);

}  // namespace casched::obs
