#pragma once
/// \file bench.hpp
/// Shared pieces of the benchmark driver: workload parameters, timing
/// helpers, and the direct per-layer probes that time a layer's public
/// function at the operating point a workload reached.
///
/// The driver prints raw measurements (per-repetition walls, per-task
/// latencies, counts, layer probes) as one JSON document on standard output;
/// perfbench/run.py applies the correctness gates and turns them into the
/// reported metrics.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/server_trace.hpp"
#include "obs/metrics.hpp"
#include "psched/machine.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Everything one invocation needs; filled from the command line, whose
/// values perfbench/run.py takes from perfbench/workloads.json.
struct Params {
  std::string kind;  ///< "sim" | "live"
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // --- simulator workloads ---
  std::string scenario;
  std::size_t tasks = 0;         ///< 0 keeps the scenario's count
  std::size_t instances = 1;     ///< independently seeded campaigns per repetition
  std::size_t replications = 0;  ///< 0 keeps the scenario's count
  int maxRetries = 0;            ///< 0 keeps the scenario's retry budget
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Seconds on the steady clock, from an arbitrary origin.
double wallSeconds();
/// CPU time of the calling thread: the time it ran, whatever else shares
/// its CPU.
double threadCpuSeconds();
/// CPU time of the whole process, every thread included.
double processCpuSeconds();

/// Seconds per call of `setUp` on the clock `now`, timed over back-to-back
/// calls until at least 10 ms have passed: a single small set-up is too short
/// to time steadily.
template <typename SetUp>
double timeSetup(SetUp setUp, double (*now)() = wallSeconds) {
  const double start = now();
  std::size_t calls = 0;
  do {
    setUp();
    ++calls;
  } while (now() - start < 0.01);
  return (now() - start) / static_cast<double>(calls);
}

/// Sum of the unlabelled series `name` over a snapshot (or a concatenation
/// of registry deltas).
double counterTotal(const casched::obs::RegistrySnapshot& snapshot, const std::string& name);

/// CPU seconds of one fixed piece of work (about 10 ms) that calls nothing of
/// the program: an event heap, a keyed table and fair-share trace rounds,
/// the kinds of work a simulator campaign is made of. The host's speed
/// drifts by tens of percent over seconds to minutes; this work slows with
/// the campaigns, so a campaign's time scaled by the reference's stays put.
double referenceWorkSeconds();

double median(std::vector<double> values);
double percentile(std::vector<double> values, double pct);  ///< nearest rank
long peakRssKb();

void runSimWorkload(const Params& params, casched::util::JsonWriter& json);
void runLiveWorkload(const Params& params, casched::util::JsonWriter& json);

// --- direct layer probes (median microseconds per call) ---

/// Fair-share resources of one server, as the agent's HTM models them.
casched::core::ServerModel serverModelOf(const casched::psched::MachineSpec& spec);

/// HTM preview of one more task on a server trace holding `depth` in-flight
/// tasks of `dims`; `perturbations` selects the MP/MSF path (true) or the
/// HMCT completion-only path (false).
double probeHtmPreviewUs(const casched::core::ServerModel& model,
                         const casched::core::TaskDims& dims, std::size_t depth,
                         bool perturbations);
/// HTM commit of one task at `depth`.
double probeHtmCommitUs(const casched::core::ServerModel& model,
                        const casched::core::TaskDims& dims, std::size_t depth);
/// HTM completion notice (drop-on-notice) at `depth`.
double probeHtmCompleteUs(const casched::core::ServerModel& model,
                          const casched::core::TaskDims& dims, std::size_t depth);
/// Heuristic scoring without the HTM (MCT's chooseInto) over `candidates`.
double probeChooseUs(std::size_t candidates);
/// One simulator event (schedule + pop + fire) with `pending` events queued.
double probeSimEventUs(std::size_t pending);
/// psched machine work per executed task at `depth` concurrent tasks, and
/// the simulator events each task fires (included in the time).
struct PschedCost {
  double us = 0.0;
  double eventsPerTask = 0.0;
};
PschedCost probePschedTask(const casched::psched::MachineSpec& spec,
                           const casched::core::TaskDims& dims, std::size_t depth);
/// One mesh routing decision against `peers` peer digests.
double probeMeshRouteUs(std::size_t peers);

/// Piecewise power-law cost curve over depth, probed at powers of two. It is
/// probed in rounds spread over the run it describes, so the host's speed
/// drifts reach the probes as they reach the run; each depth's cost is the
/// median of its rounds.
class DepthCurve {
 public:
  explicit DepthCurve(std::function<double(std::size_t)> probe) : probe_(std::move(probe)) {}
  /// Probes every power of two up to the first one at or above `maxDepth`.
  void probeRound(std::size_t maxDepth);
  double at(double depth) const;

 private:
  std::function<double(std::size_t)> probe_;
  std::vector<std::vector<double>> samples_;  ///< [i]: each round's cost at depth 2^i
};

}  // namespace perfbench
