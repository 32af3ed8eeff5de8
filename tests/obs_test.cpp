// Tests for the observability layer: metrics registry (including concurrent
// writers, exercised under the TSan CI leg), Prometheus/JSON rendering,
// snapshot deltas, the bounded trace/decision rings with their drop
// accounting, Chrome trace-event export, and the stats-format parser.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace casched::obs {
namespace {

// Every test uses uniquely named metrics: the registry is process-global and
// ctest runs this binary as one process, so names must not collide between
// tests (re-registration returns the existing object by design).

TEST(Metrics, CounterGaugeHistogramBasics) {
  auto& reg = Registry::global();
  Counter& c = reg.counter("t_basic_counter", "help text");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge& g = reg.gauge("t_basic_gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Histogram& h = reg.histogram("t_basic_hist", {1.0, 10.0, 100.0});
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // le=1 (upper bound is inclusive)
  h.observe(50.0);  // le=100
  h.observe(1e9);   // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 50.0 + 1e9);
  const std::vector<std::uint64_t> buckets = h.bucketCounts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Metrics, ReregistrationReturnsTheSameObjectAndKindMismatchThrows) {
  auto& reg = Registry::global();
  Counter& a = reg.counter("t_rereg");
  Counter& b = reg.counter("t_rereg", "different help is fine");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(reg.gauge("t_rereg"), util::Error);

  // Labels are part of the identity: same name, different labels coexist.
  Counter& labeled = reg.counter("t_rereg", "", {{"leg", "x"}});
  EXPECT_NE(&labeled, &a);
}

TEST(Metrics, PrometheusRendering) {
  auto& reg = Registry::global();
  reg.counter("t_prom_total", "counted things").inc(3);
  reg.counter("t_prom_labeled_total", "", {{"server", "grid-1"}}).inc();
  Histogram& h = reg.histogram("t_prom_seconds", {1.0, 5.0}, "timings");
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);

  const std::string text = reg.snapshot().prometheus();
  EXPECT_NE(text.find("# HELP t_prom_total counted things"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("t_prom_total 3"), std::string::npos);
  EXPECT_NE(text.find("t_prom_labeled_total{server=\"grid-1\"} 1"), std::string::npos);
  // Cumulative buckets: le="5" includes the le="1" observation.
  EXPECT_NE(text.find("t_prom_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_prom_seconds_bucket{le=\"5\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_prom_seconds_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("t_prom_seconds_count 3"), std::string::npos);
}

TEST(Metrics, JsonRendering) {
  auto& reg = Registry::global();
  reg.counter("t_json_total").inc(7);
  const std::string json = reg.snapshot().json();
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"t_json_total\""), std::string::npos);
  EXPECT_NE(json.find("\"counter\""), std::string::npos);
}

TEST(Metrics, SinceComputesCounterAndHistogramDeltas) {
  auto& reg = Registry::global();
  Counter& c = reg.counter("t_since_total");
  Gauge& g = reg.gauge("t_since_gauge");
  Histogram& h = reg.histogram("t_since_hist", {10.0});
  c.inc(5);
  g.set(1.0);
  h.observe(3.0);
  const RegistrySnapshot before = reg.snapshot();
  c.inc(2);
  g.set(9.0);
  h.observe(4.0);
  h.observe(40.0);

  const RegistrySnapshot delta = reg.snapshot().since(before);
  double counterDelta = -1.0, gaugeValue = -1.0;
  std::uint64_t histCount = 0;
  for (const MetricSample& m : delta.metrics) {
    if (m.name == "t_since_total") counterDelta = m.value;
    if (m.name == "t_since_gauge") gaugeValue = m.value;
    if (m.name == "t_since_hist") histCount = m.histogram.count;
  }
  EXPECT_DOUBLE_EQ(counterDelta, 2.0);
  EXPECT_DOUBLE_EQ(gaugeValue, 9.0);  // gauges keep the current value
  EXPECT_EQ(histCount, 2u);
}

TEST(Metrics, ConcurrentWritersAreCoherent) {
  auto& reg = Registry::global();
  Counter& c = reg.counter("t_mt_total");
  Histogram& h = reg.histogram("t_mt_hist", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  // Snapshots race with the writers on purpose (TSan must stay quiet).
  for (int i = 0; i < 10; ++i) (void)reg.snapshot();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Metrics, HistogramSumIsIndependentOfObservationOrder) {
  // In doubles, this set's sum depends on the order it is added in.
  const std::vector<double> values = {0.1, 0.7, 1e8 / 3.0, 0.3, 2.0 / 3.0};
  double forward = 0.0;
  double backward = 0.0;
  for (double v : values) forward += v;
  for (auto it = values.rbegin(); it != values.rend(); ++it) backward += *it;
  ASSERT_NE(forward, backward);

  Histogram reference({1.0});
  for (int rep = 0; rep < 2000; ++rep) {
    for (double v : values) reference.observe(v);
  }
  for (int trial = 0; trial < 5; ++trial) {
    Histogram h({1.0});
    std::thread up([&] {
      for (int rep = 0; rep < 1000; ++rep) {
        for (double v : values) h.observe(v);
      }
    });
    std::thread down([&] {
      for (int rep = 0; rep < 1000; ++rep) {
        for (auto it = values.rbegin(); it != values.rend(); ++it) h.observe(*it);
      }
    });
    up.join();
    down.join();
    EXPECT_EQ(h.sum(), reference.sum()) << "trial " << trial;
  }
  EXPECT_NEAR(reference.sum(), 2000.0 * forward, 1e-3);
}

TEST(Metrics, HistogramSumOverflowReadsNaN) {
  Histogram h({1.0});
  h.observe(2e11);
  EXPECT_DOUBLE_EQ(h.sum(), 2e11);
  h.observe(2e11);
  h.observe(2e11);  // past 2^39
  EXPECT_TRUE(std::isnan(h.sum()));
  EXPECT_EQ(h.count(), 3u);
  h.reset();
  EXPECT_EQ(h.sum(), 0.0);
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(h.sum()));
}

TEST(Ring, PushIsANoOpWhenDisabled) {
  BoundedLog<int> log;
  EXPECT_FALSE(log.enabled());
  log.push(1);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(Ring, OverflowDropsOldestAndCounts) {
  BoundedLog<int> log;
  log.enable(4);
  for (int i = 1; i <= 7; ++i) log.push(i);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 3u);
  const std::vector<int> kept = log.snapshot();
  ASSERT_EQ(kept.size(), 4u);  // oldest-first, newest survive
  EXPECT_EQ(kept.front(), 4);
  EXPECT_EQ(kept.back(), 7);

  // Re-enabling resets both the ring and the drop count.
  log.enable(2);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(Trace, PhaseChainsFollowRecordOrder) {
  std::vector<SpanRecord> spans;
  spans.push_back({1, TaskPhase::kSubmit, 0.0, 0.0, 1, "agent", ""});
  spans.push_back({2, TaskPhase::kSubmit, 0.1, 0.0, 1, "agent", ""});
  spans.push_back({1, TaskPhase::kPredict, 0.2, 0.0, 1, "agent", ""});
  spans.push_back({1, TaskPhase::kDecide, 0.2, 0.0, 1, "agent", "grid-0"});
  spans.push_back({2, TaskPhase::kLost, 0.3, 0.0, 1, "agent", ""});
  const auto chains = taskPhaseChains(spans);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains.at(1), "submit>predict>decide");
  EXPECT_EQ(chains.at(2), "submit>lost");
}

TEST(Trace, ChromeTraceJsonCarriesSpansAndDropAccounting) {
  TraceBuffer& trace = TraceBuffer::global();
  trace.enable(2);
  trace.push({1, TaskPhase::kSubmit, 1.0, 0.0, 1, "agent", "mm"});
  trace.push({1, TaskPhase::kDecide, 2.0, 0.0, 1, "agent", "grid-0"});
  trace.push({1, TaskPhase::kComplete, 3.0, 0.0, 1, "agent", ""});  // drops kSubmit
  const std::string json = trace.chromeTraceJson();
  trace.disable();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"captured_spans\": 2"), std::string::npos);
  // ts is sim seconds scaled to microseconds.
  EXPECT_NE(json.find("\"ts\": 2000000"), std::string::npos);
}

TEST(Decision, JsonCarriesCandidatesAndDrops) {
  DecisionLog log;  // local instance; the global one behaves identically
  log.enable(8);
  DecisionRecord rec;
  rec.taskId = 5;
  rec.time = 12.5;
  rec.attempt = 2;
  rec.heuristic = "msf";
  rec.chosen = "grid-1";
  rec.candidates.push_back({"grid-0", 30.0, 42.5, 1.5, 3.0});
  rec.candidates.push_back({"grid-1", 20.0, 32.5, 0.5, -1.0});
  log.push(rec);
  const std::string json = log.json();
  EXPECT_NE(json.find("\"decisions\""), std::string::npos);
  EXPECT_NE(json.find("\"heuristic\": \"msf\""), std::string::npos);
  EXPECT_NE(json.find("\"chosen\": \"grid-1\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_completion\": 42.5"), std::string::npos);
  EXPECT_NE(json.find("\"load_staleness\": -1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

TEST(StatsFormat, ParseAndRender) {
  EXPECT_EQ(parseStatsFormat("prometheus"), StatsFormat::kPrometheus);
  EXPECT_EQ(parseStatsFormat("JSON"), StatsFormat::kJson);
  EXPECT_STREQ(statsFormatName(StatsFormat::kJson), "json");
  try {
    parseStatsFormat("xml");
    FAIL() << "should have thrown";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown stats format 'xml'"), std::string::npos) << what;
    EXPECT_NE(what.find("prometheus"), std::string::npos);
    EXPECT_NE(what.find("json"), std::string::npos);
  }

  Registry& reg = Registry::global();
  reg.counter("t_render_total").inc();
  EXPECT_NE(renderStats(reg.snapshot(), StatsFormat::kPrometheus).find("t_render_total"),
            std::string::npos);
  EXPECT_NE(renderStats(reg.snapshot(), StatsFormat::kJson).find("\"metrics\""),
            std::string::npos);
}

}  // namespace
}  // namespace casched::obs
