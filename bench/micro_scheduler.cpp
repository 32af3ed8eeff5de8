/// Micro-benchmarks (google-benchmark) for the scheduling path. The paper
/// notes a scheduling decision costs "less than 0.01 second in most cases";
/// these benches verify our implementation is far below that bound and sweep
/// the in-flight depth per server (0-256 tasks) so the HTM's scaling shows:
/// preview and commit replay a trace in O(k log k).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cas/agent.hpp"
#include "cas/dispatch.hpp"
#include "core/htm.hpp"
#include "core/schedulers.hpp"
#include "obs/decision.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "wire/framing.hpp"
#include "wire/messages.hpp"
#include "workload/task_types.hpp"

namespace {

using namespace casched;

core::HistoricalTraceManager makeLoadedHtm(std::size_t servers, std::size_t tasksPerServer) {
  core::HistoricalTraceManager htm;
  simcore::RandomStream rng(7);
  std::uint64_t id = 1;
  for (std::size_t s = 0; s < servers; ++s) {
    const std::string name = "server-" + std::to_string(s);
    htm.addServer(core::ServerModel{name, 10.0, 10.0, 0.05, 0.05});
    for (std::size_t t = 0; t < tasksPerServer; ++t) {
      htm.commit(name, id++,
                 core::TaskDims{rng.uniform(0.0, 30.0), rng.uniform(10.0, 300.0),
                                rng.uniform(0.0, 15.0)},
                 rng.uniform(0.0, 5.0) + static_cast<double>(t));
    }
  }
  return htm;
}

core::ScheduleQuery makeQuery(const core::HistoricalTraceManager& htm, double now) {
  core::ScheduleQuery q;
  q.taskId = 999999;
  q.now = now;
  q.startDelay = 0.01;
  q.htm = &htm;
  for (const std::string& name : htm.serverNames()) {
    core::CandidateServer c;
    c.id = htm.findId(name);
    c.dims = core::TaskDims{5.0, 60.0, 2.0};
    c.reportedLoad = 2.0;
    c.unloadedDuration = 61.0;
    q.candidates.push_back(c);
  }
  return q;
}

void BM_HtmPreview(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  const core::HistoricalTraceManager htm = makeLoadedHtm(1, tasks);
  const core::TaskDims dims{5.0, 60.0, 2.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm.preview("server-0", dims, 1.0));
  }
  state.SetLabel(std::to_string(tasks) + " tasks in trace");
}
BENCHMARK(BM_HtmPreview)
    ->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_HtmCommitAndAdvance(benchmark::State& state) {
  const auto tasks = static_cast<std::size_t>(state.range(0));
  double now = 10.0;
  std::uint64_t id = 1000000;
  core::HistoricalTraceManager htm = makeLoadedHtm(1, tasks);
  for (auto _ : state) {
    htm.commit("server-0", id, core::TaskDims{1.0, 30.0, 1.0}, now);
    htm.onTaskCompleted("server-0", id, now + 1.0);
    ++id;
    now += 0.001;
  }
}
BENCHMARK(BM_HtmCommitAndAdvance)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

template <typename SchedulerT>
void BM_Decision(benchmark::State& state) {
  const auto tasksPerServer = static_cast<std::size_t>(state.range(0));
  const core::HistoricalTraceManager htm = makeLoadedHtm(4, tasksPerServer);
  const core::ScheduleQuery query = makeQuery(htm, 2.0);
  SchedulerT scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.choose(query));
  }
  state.SetLabel("4 servers x " + std::to_string(tasksPerServer) + " tasks");
}
BENCHMARK_TEMPLATE(BM_Decision, core::MctScheduler)->Arg(16)->Arg(64);
BENCHMARK_TEMPLATE(BM_Decision, core::HmctScheduler)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_TEMPLATE(BM_Decision, core::MpScheduler)->Arg(16)->Arg(64);
BENCHMARK_TEMPLATE(BM_Decision, core::MsfScheduler)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK_TEMPLATE(BM_Decision, core::MniScheduler)->Arg(16)->Arg(64);

// --- the full agent decision path (what a kScheduleRequest costs) ---
//
// DecisionHarness drives a real cas::Agent: 8 registered servers, a warm HTM
// (4 long-running tasks per server that never finish), then one
// schedule+dispatch+complete cycle per measured decision, so the bench covers
// candidate building, the heuristic, the HTM commit and the dispatch event -
// the whole per-request hot path, not just Scheduler::choose. The world is
// rebuilt (off the clock) every kWorldResets decisions to bound task-table
// growth without it dominating the numbers.

struct DecisionHarness {
  /// Dispatch sink recording which server received the last submission.
  struct Sink final : cas::TaskDispatch {
    DecisionHarness* harness;
    std::string server;
    void submitTask(std::uint64_t taskId, const psched::ExecRequest&) override {
      harness->lastServer = &server;
      harness->lastTask = taskId;
    }
  };

  static constexpr std::size_t kServers = 8;
  static constexpr std::size_t kWarmPerServer = 4;

  simcore::Simulator sim;
  std::unique_ptr<cas::Agent> agent;
  std::vector<std::unique_ptr<Sink>> sinks;
  const std::string* lastServer = nullptr;
  std::uint64_t lastTask = 0;
  std::uint64_t nextId = 1;
  workload::TaskType taskType =
      workload::makeSyntheticType("bench-task", 5.0, 60.0, 2.0, 0.0);

  explicit DecisionHarness(const std::string& heuristic) {
    cas::AgentConfig cfg;
    cfg.controlLatency = 0.0;
    agent = std::make_unique<cas::Agent>(sim, core::makeScheduler(heuristic, 1),
                                         platform::CostModel{}, cfg);
    for (std::size_t s = 0; s < kServers; ++s) {
      auto sink = std::make_unique<Sink>();
      sink->harness = this;
      sink->server = "server-" + std::to_string(s);
      core::ServerModel model{sink->server, 10.0, 10.0, 0.05, 0.05};
      agent->registerServer(sink.get(), model, {"*"}, 1e18, 1e18);
      sinks.push_back(std::move(sink));
    }
    // Warm load that never completes: keeps every preview walking a non-empty
    // trace, like a loaded grid.
    const workload::TaskType warm =
        workload::makeSyntheticType("bench-warm", 1.0, 1e9, 1.0, 0.0);
    for (std::size_t w = 0; w < kServers * kWarmPerServer; ++w) {
      workload::TaskInstance t;
      t.index = nextId++;
      t.arrival = sim.now();
      t.type = warm;
      agent->requestSchedule(t);
      sim.run();
    }
  }

  /// One schedule -> dispatch -> completion-notice round trip.
  void decideOne() {
    workload::TaskInstance t;
    t.index = nextId++;
    t.arrival = sim.now();
    t.type = taskType;
    agent->requestSchedule(t);
    sim.run();
    agent->onTaskCompleted(*lastServer, lastTask, sim.now() + 1.0, 60.0);
  }

  /// One scheduleBatch of `batch` tasks, then completion notices for all of
  /// them (reaped from the in-flight tables, since only the last dispatch is
  /// recorded by the sink).
  void decideBatch(std::vector<workload::TaskInstance>& scratch, std::size_t batch) {
    scratch.clear();
    for (std::size_t k = 0; k < batch; ++k) {
      workload::TaskInstance t;
      t.index = nextId++;
      t.arrival = sim.now();
      t.type = taskType;
      scratch.push_back(std::move(t));
    }
    agent->scheduleBatch(scratch);
    sim.run();
    for (std::size_t s = 0; s < kServers; ++s) {
      const std::string& name = sinks[s]->server;
      for (std::uint64_t id : agent->inFlightTasks(name)) {
        if (id >= scratch.front().index) {
          agent->onTaskCompleted(name, id, sim.now() + 1.0, 60.0);
        }
      }
    }
  }
};

constexpr std::size_t kWorldResets = 1 << 16;

void BM_ScheduleDecision(benchmark::State& state) {
  auto harness = std::make_unique<DecisionHarness>("hmct");
  std::size_t sinceReset = 0;
  for (auto _ : state) {
    if (++sinceReset == kWorldResets) {
      state.PauseTiming();
      harness = std::make_unique<DecisionHarness>("hmct");
      sinceReset = 0;
      state.ResumeTiming();
    }
    harness->decideOne();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("hmct, 8 servers x 4 warm tasks");
}
BENCHMARK(BM_ScheduleDecision);

// Batched placement: N requests arriving together cost one HTM refresh and
// one advanced-trace scan, so per-task cost drops as the batch grows (the
// speedup the AgentDaemon's per-poll-cycle drain and the client's
// equal-arrival grouping realize in production).
void BM_ScheduleBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto harness = std::make_unique<DecisionHarness>("hmct");
  std::vector<workload::TaskInstance> scratch;
  scratch.reserve(batch);
  std::size_t sinceReset = 0;
  for (auto _ : state) {
    sinceReset += batch;
    if (sinceReset >= kWorldResets) {
      state.PauseTiming();
      harness = std::make_unique<DecisionHarness>("hmct");
      sinceReset = 0;
      state.ResumeTiming();
    }
    harness->decideBatch(scratch, batch);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * batch));
  state.SetLabel("hmct, batch of " + std::to_string(batch));
}
BENCHMARK(BM_ScheduleBatch)->Arg(8)->Arg(64)->Arg(256);

// --- the event queue itself (simcore's push/pop cost) ---
//
// BM_EventQueue is the classic hold model: N events pending, and each fired
// event schedules its successor an exponential delay later, so every
// iteration is one pop plus one push at a constant queue size N.
// BM_EventQueueTimeline is the shape of a churn run: N arrivals known up
// front (streamed) under 48 periodic timers (noise ticks, load reports), one
// whole run per iteration, setup included.

constexpr std::size_t kDelayTable = 1024;  // power of two: cyclic indexing

std::vector<double> exponentialDelays(std::uint64_t seed) {
  simcore::RandomStream rng(seed);
  std::vector<double> delays(kDelayTable);
  for (double& d : delays) d = rng.exponentialMean(1.0);
  return delays;
}

struct Hold {
  simcore::Simulator* sim;
  const double* delays;
  std::size_t* next;
  void operator()() const { sim->scheduleAfter(delays[(*next)++ % kDelayTable], *this); }
};

void BM_EventQueue(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  const std::vector<double> delays = exponentialDelays(11);
  std::size_t next = 0;
  simcore::Simulator sim;
  const Hold hold{&sim, delays.data(), &next};
  for (std::size_t i = 0; i < pending; ++i) sim.scheduleAt(delays[next++ % kDelayTable], hold);
  for (auto _ : state) sim.step();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel("hold model, " + std::to_string(pending) + " pending");
}
BENCHMARK(BM_EventQueue)->Arg(16)->Arg(64)->Arg(512)->Arg(4096);

struct Periodic {
  simcore::Simulator* sim;
  double period;
  double horizon;
  void operator()() const {
    if (sim->now() + period <= horizon) sim->scheduleAfter(period, *this);
  }
};

void BM_EventQueueTimeline(benchmark::State& state) {
  const auto arrivals = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kTimers = 48;
  const std::vector<double> gaps = exponentialDelays(13);
  const double horizon = static_cast<double>(arrivals);  // mean gap 1.0
  std::uint64_t events = 0;
  for (auto _ : state) {
    simcore::Simulator sim;
    const simcore::StreamId stream = sim.openStream();
    double at = 0.0;
    for (std::size_t i = 0; i < arrivals; ++i) {
      at += gaps[i % kDelayTable];
      sim.scheduleInStream(stream, at, [] {});
    }
    for (std::size_t k = 0; k < kTimers; ++k) {
      const double period = 0.5 + 0.05 * static_cast<double>(k);
      sim.scheduleAt(period, Periodic{&sim, period, horizon});
    }
    events += sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel(std::to_string(arrivals) + " streamed arrivals + 48 timers");
}
BENCHMARK(BM_EventQueueTimeline)->Arg(1024)->Arg(8192);

// --- machine-speed anchor ---
//
// A fixed arithmetic loop with no memory traffic: its ns/op measures the
// machine (and optimizer), not the scheduler. tools/perf_gate.py --min-speedup
// uses the anchor ratio between the recording machine and the CI runner to
// compare this run's BM_ScheduleDecision against the pre-rebuild reference
// recorded in bench/perf_baseline.json.

void BM_CalibrationAnchor(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_CalibrationAnchor);

// --- instrumentation overhead (the observability layer's compiled-in cost) ---
//
// The pair below runs the same decision loop bare and with the exact obs
// calls cas::Agent makes per scheduled task: always-on counter increments
// plus the enabled() gates of the trace/decision rings (no sink attached, so
// the gated bodies never run). The perf gate compares the two medians and
// fails when the instrumented loop is more than 5% slower.

void BM_ObsOverheadBare(benchmark::State& state) {
  const core::HistoricalTraceManager htm = makeLoadedHtm(4, 16);
  const core::ScheduleQuery query = makeQuery(htm, 2.0);
  core::MsfScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.choose(query));
  }
}
BENCHMARK(BM_ObsOverheadBare);

void BM_ObsOverheadInstrumented(benchmark::State& state) {
  const core::HistoricalTraceManager htm = makeLoadedHtm(4, 16);
  const core::ScheduleQuery query = makeQuery(htm, 2.0);
  core::MsfScheduler scheduler;
  auto& reg = obs::Registry::global();
  obs::Counter& submitted = reg.counter("bench_obs_submitted_total");
  obs::Counter& decisions = reg.counter("bench_obs_decisions_total");
  obs::Counter& completed = reg.counter("bench_obs_completed_total");
  obs::Histogram& flow = reg.histogram(
      "bench_obs_flow_seconds", {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  obs::DecisionLog& decisionLog = obs::DecisionLog::global();
  trace.disable();
  decisionLog.disable();
  for (auto _ : state) {
    submitted.inc();
    const core::ScheduleDecision d = scheduler.choose(query);
    benchmark::DoNotOptimize(d);
    decisions.inc();
    if (trace.enabled()) {
      trace.push({1, obs::TaskPhase::kDecide, 0.0, 0.0, 1, "bench", ""});
    }
    if (decisionLog.enabled()) {
      decisionLog.push({});
    }
    completed.inc();
    flow.observe(61.0);
  }
}
BENCHMARK(BM_ObsOverheadInstrumented);

// --- wire frame encoding: singleton frames vs one coalesced frame ---
//
// The pair below measures what protocol v5's coalesced envelope buys on the
// encode side: N load reports framed individually (N headers + N CRC32
// trailers) against the same N payloads packed into one kCoalesced frame
// (one header, one trailer). The Arg is the batch size - the daemons' flush
// batches are typically single-digit to low-hundreds per poll cycle.
// tools/perf_gate.py reports the per-message ratio at Arg(64) in its step
// summary (informational, not gated).

std::vector<wire::Bytes> makeLoadReportPayloads(std::size_t count) {
  std::vector<wire::Bytes> payloads;
  payloads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    payloads.push_back(wire::encode(wire::LoadReportMsg{
        "server-" + std::to_string(i), 1.5, 60.0 + static_cast<double>(i), 384.0}));
  }
  return payloads;
}

void BM_FrameEncodeSingleton(benchmark::State& state) {
  const auto payloads = makeLoadReportPayloads(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = 0;
    for (const wire::Bytes& p : payloads) {
      const wire::Bytes frame = wire::buildFrame(wire::MessageType::kLoadReport, p);
      bytes += frame.size();
      benchmark::DoNotOptimize(frame.data());
    }
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodeSingleton)->Arg(8)->Arg(64)->Arg(256);

void BM_FrameEncodeBatch(benchmark::State& state) {
  const auto payloads = makeLoadReportPayloads(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const wire::Bytes frame =
        wire::buildCoalescedFrame(wire::MessageType::kLoadReport, payloads);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameEncodeBatch)->Arg(8)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
