#include <time.h>

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "core/htm.hpp"
#include "core/schedulers.hpp"
#include "mesh/router.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace casched;

double counterTotal(const obs::RegistrySnapshot& snapshot, const std::string& name) {
  double total = 0.0;
  for (const obs::MetricSample& m : snapshot.metrics) {
    if (m.name == name && m.labels.empty()) total += m.value;
  }
  return total;
}

double median(std::vector<double> values) {
  CASCHED_CHECK(!values.empty(), "median of no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double pct) {
  CASCHED_CHECK(!values.empty(), "percentile of no values");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

long peakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double wallSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

namespace {

double cpuClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double threadCpuSeconds() { return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double processCpuSeconds() { return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

void DepthCurve::probeRound(std::size_t maxDepth) {
  std::size_t i = 0;
  for (std::size_t d = 1;; d *= 2, ++i) {
    if (samples_.size() == i) samples_.emplace_back();
    samples_[i].push_back(probe_(d));
    if (d >= maxDepth) break;
  }
}

double DepthCurve::at(double depth) const {
  CASCHED_CHECK(!samples_.empty(), "depth curve never probed");
  const auto depthAt = [](std::size_t i) { return static_cast<double>(std::size_t{1} << i); };
  if (depth <= 1.0) return median(samples_.front());
  // Between probes the cost follows a power of the depth (a straight line
  // in log-log space): a straight line in depth would lie above a convex
  // cost, such as the O(depth^2) preview, and overprice every depth between.
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    if (depth <= depthAt(i)) {
      const double low = median(samples_[i - 1]);
      const double high = median(samples_[i]);
      const double f = std::log2(depth / depthAt(i - 1));
      return low > 0.0 && high > 0.0 ? low * std::pow(high / low, f) : low + f * (high - low);
    }
  }
  return median(samples_.back());
}

namespace {

/// Median microseconds of `timed`, repeated until ~5 ms of samples (at
/// least 5, at most 2000). `prepare` runs untimed before each sample.
double medianUs(const std::function<void()>& prepare, const std::function<void()>& timed) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 5 || (total < 0.005 && samples.size() < 2000)) {
    prepare();
    const auto start = Clock::now();
    timed();
    const double s = secondsSince(start);
    samples.push_back(1e6 * s);
    total += s;
  }
  return median(std::move(samples));
}

/// Seconds between a probe's admissions: all `depth` tasks arrive within a
/// tenth of one task's compute time, so every one is still in flight when
/// the probe runs, each in a slightly different phase as in a real backlog.
double admitGap(const core::TaskDims& dims, std::size_t depth) {
  return 0.1 * dims.cpuSeconds / static_cast<double>(std::max<std::size_t>(depth, 1));
}

double probeNow(const core::TaskDims& dims, std::size_t depth) {
  return admitGap(dims, depth) * static_cast<double>(depth);
}

/// An HTM with one server row holding `depth` in-flight tasks.
core::HistoricalTraceManager htmAtDepth(const core::ServerModel& model,
                                        const core::TaskDims& dims, std::size_t depth) {
  core::HistoricalTraceManager htm;
  htm.addServer(model);
  const core::ServerId id = htm.findId(model.name);
  for (std::size_t i = 0; i < depth; ++i) {
    htm.commit(id, i + 1, dims, admitGap(dims, depth) * static_cast<double>(i));
  }
  return htm;
}

}  // namespace

core::ServerModel serverModelOf(const psched::MachineSpec& spec) {
  core::ServerModel model;
  model.name = spec.name;
  model.bwInMBps = spec.bwInMBps;
  model.bwOutMBps = spec.bwOutMBps;
  model.latencyIn = spec.latencyIn;
  model.latencyOut = spec.latencyOut;
  return model;
}

double probeHtmPreviewUs(const core::ServerModel& model, const core::TaskDims& dims,
                         std::size_t depth, bool perturbations) {
  const core::HistoricalTraceManager htm = htmAtDepth(model, dims, depth);
  const core::ServerId id = htm.findId(model.name);
  core::Preview out;
  double startDelay = 0.0;
  // A fresh start delay per call defeats the completion-only path's memo, so
  // every sample re-simulates the trace as a first preview does.
  return medianUs([&] { startDelay += 1e-9; },
                  [&] {
                    htm.previewInto(id, dims, probeNow(dims, depth), startDelay, out,
                                    perturbations);
                  });
}

double probeHtmCommitUs(const core::ServerModel& model, const core::TaskDims& dims,
                        std::size_t depth) {
  const core::HistoricalTraceManager base = htmAtDepth(model, dims, depth);
  const core::ServerId id = base.findId(model.name);
  std::optional<core::HistoricalTraceManager> htm;
  return medianUs([&] { htm.emplace(base); },
                  [&] { htm->commit(id, depth + 1, dims, probeNow(dims, depth)); });
}

double probeHtmCompleteUs(const core::ServerModel& model, const core::TaskDims& dims,
                          std::size_t depth) {
  const core::HistoricalTraceManager base = htmAtDepth(model, dims, depth);
  const core::ServerId id = base.findId(model.name);
  std::optional<core::HistoricalTraceManager> htm;
  return medianUs([&] { htm.emplace(base); },
                  [&] { htm->onTaskCompleted(id, 1, probeNow(dims, depth)); });
}

double probeChooseUs(std::size_t candidates) {
  core::ScheduleQuery query;
  query.now = 100.0;
  for (std::size_t i = 0; i < candidates; ++i) {
    core::CandidateServer c;
    c.id = static_cast<core::ServerId>(i);
    c.dims = {0.0, 30.0 + static_cast<double>(i % 7), 0.0};
    c.reportedLoad = static_cast<double>(i % 5);
    c.unloadedDuration = c.dims.cpuSeconds;
    query.candidates.push_back(c);
  }
  core::MctScheduler mct;
  core::ScheduleDecision decision;
  return medianUs([] {}, [&] { mct.chooseInto(query, decision); });
}

double probeSimEventUs(std::size_t pending) {
  // Hold model: `pending` events queued, every fired event queues one more.
  const std::size_t fires = std::max<std::size_t>(20000, 4 * pending);
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    simcore::Simulator sim;
    simcore::RandomStream rng(7 + static_cast<std::uint64_t>(rep));
    std::size_t remaining = fires;
    std::function<void()> hold = [&] {
      if (remaining == 0) return;
      --remaining;
      sim.scheduleAfter(rng.exponentialMean(1.0), [&] { hold(); });
    };
    for (std::size_t i = 0; i < pending; ++i) {
      sim.scheduleAt(rng.uniform(0.0, 1.0), [&] { hold(); });
    }
    const auto start = Clock::now();
    const std::uint64_t executed = sim.run();
    samples.push_back(1e6 * secondsSince(start) / static_cast<double>(executed));
  }
  return median(std::move(samples));
}

PschedCost probePschedTask(const psched::MachineSpec& spec, const core::TaskDims& dims,
                           std::size_t depth) {
  std::vector<double> samples;
  double eventsPerTask = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    simcore::Simulator sim;
    psched::Machine machine(sim, spec);
    const auto start = Clock::now();
    for (std::size_t i = 0; i < depth; ++i) {
      psched::ExecRequest request;
      request.taskId = i + 1;
      request.inMB = dims.inMB;
      request.cpuSeconds = dims.cpuSeconds;
      request.outMB = dims.outMB;
      machine.submit(request, [](const psched::ExecRecord&) {});
      sim.run(admitGap(dims, depth) * static_cast<double>(i + 1));
    }
    sim.run();
    samples.push_back(1e6 * secondsSince(start) / static_cast<double>(depth));
    eventsPerTask = static_cast<double>(sim.executedEvents()) / static_cast<double>(depth);
  }
  return {median(std::move(samples)), eventsPerTask};
}

double probeMeshRouteUs(std::size_t peers) {
  mesh::RouterConfig config;
  config.overloadThreshold = 60.0;
  mesh::LocalView local;
  local.feasible = true;
  local.now = 100.0;
  local.meanLoad = 8.0;
  std::vector<mesh::PeerDigest> digests(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    digests[i] = {i, 1.0 + static_cast<double>(i), 3, 0};
  }
  double predicted = 100.0;
  std::uint64_t forwards = 0;
  const double us = medianUs([&] { predicted += 1.0; }, [&] {
    // Batches of routing calls: one is too short for the clock to resolve.
    for (int i = 0; i < 1000; ++i) {
      local.predictedCompletion = predicted + i;
      forwards += mesh::decideRoute(config, local, digests).kind == mesh::RouteKind::kForward;
    }
  });
  CASCHED_CHECK(forwards > 0, "mesh route probe never forwarded");
  return us / 1000.0;
}

}  // namespace perfbench
