// Differential oracle: the HTM (core::ServerTrace, the agent's analytic model)
// against the ground-truth simulator (psched::Machine). Both implement the
// paper's shared-resource phases - latency -> input transfer -> compute ->
// latency -> output transfer, links and CPU shared in equal parts - and must
// agree to floating point when the ground truth has nothing the HTM does not
// model.
//
// Every set of the corpus is one server fed by one seeded task stream:
//   - 1-200 tasks, log-uniform mean interarrival 0.05-10 s, so deep sets pass
//     100 tasks in flight;
//   - some zero-MB transfers and zero latencies;
//   - some tasks with identical dims admitted at the same instant;
//   - a non-zero submission delay (the HTM's startDelay).
// Each task's last HTM prediction before it completes must equal the
// Machine's actual end within 1e-9 relative. A failure names its seed.
//
// Excluded by construction (outside the HTM's model): CPU and link noise,
// memory thrashing and collapse (thrashTheta 0, unbounded RAM), churn
// (crashes, slowdowns, bandwidth changes) and the kRescale sync policy's
// learned speed correction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "core/htm.hpp"
#include "psched/machine.hpp"
#include "simcore/engine.hpp"
#include "simcore/rng.hpp"

namespace casched {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kSets = 1000;
constexpr double kRelTolerance = 1e-9;

struct SetOutcome {
  std::size_t tasks = 0;
  std::size_t maxDepth = 0;
  double worstRelError = 0.0;
  std::string failure;  ///< empty when every task matched
};

double zeroOr(simcore::RandomStream& rng, double pZero, double lo, double hi) {
  return rng.bernoulli(pZero) ? 0.0 : rng.uniform(lo, hi);
}

SetOutcome runSet(std::uint64_t seed) {
  simcore::RandomStream rng(seed);

  psched::MachineSpec spec;
  spec.name = "oracle";
  spec.bwInMBps = rng.uniform(4.0, 12.0);
  spec.bwOutMBps = rng.uniform(4.0, 12.0);
  spec.latencyIn = zeroOr(rng, 0.2, 0.0, 0.2);
  spec.latencyOut = zeroOr(rng, 0.2, 0.0, 0.2);
  spec.thrashTheta = 0.0;
  const double startDelay = rng.uniform(0.001, 0.1);
  const auto count = static_cast<std::size_t>(rng.uniformInt(1, 200));
  const double meanGap = 0.05 * std::pow(200.0, rng.uniform(0.0, 1.0));

  simcore::Simulator sim;
  psched::Machine machine(sim, spec);
  core::HistoricalTraceManager htm;
  const core::ServerId server = htm.intern(spec.name);
  htm.addServer(core::ServerModel{spec.name, spec.bwInMBps, spec.bwOutMBps,
                                  spec.latencyIn, spec.latencyOut});

  SetOutcome outcome;
  outcome.tasks = count;
  std::map<std::uint64_t, double> lastPrediction;
  std::map<std::uint64_t, double> actual;

  double t = 0.0;
  core::TaskDims dims;
  for (std::uint64_t id = 0; id < count; ++id) {
    const bool twin = id > 0 && rng.bernoulli(0.1);
    if (!twin) {
      t += rng.exponentialMean(meanGap);
      dims = core::TaskDims{zeroOr(rng, 0.15, 0.0, 30.0), rng.uniform(0.5, 60.0),
                            zeroOr(rng, 0.15, 0.0, 10.0)};
    }
    const core::TaskDims taskDims = dims;
    sim.scheduleAt(t, [&, id, taskDims] {
      htm.commit(server, id, taskDims, sim.now(), startDelay);
      // The commit refreshed every prediction on the server; keep the latest.
      const auto predicted = htm.predictedCompletions(spec.name, sim.now());
      outcome.maxDepth = std::max(outcome.maxDepth, predicted.size());
      for (const auto& [task, when] : predicted) lastPrediction[task] = when;
      sim.scheduleAfter(startDelay, [&, id, taskDims] {
        machine.submit(psched::ExecRequest{id, taskDims.inMB, taskDims.cpuSeconds,
                                           taskDims.outMB, 0.0},
                       [&, id](const psched::ExecRecord& r) {
                         actual[id] = r.endTime;
                         htm.onTaskCompleted(server, id, r.endTime);
                       });
      });
    });
  }
  sim.run();

  std::ostringstream failure;
  if (actual.size() != count) {
    failure << actual.size() << " of " << count << " tasks completed";
  }
  for (const auto& [id, end] : actual) {
    const auto it = lastPrediction.find(id);
    if (it == lastPrediction.end()) {
      failure << "task " << id << " never predicted; ";
      continue;
    }
    const double rel = std::abs(it->second - end) / end;
    outcome.worstRelError = std::max(outcome.worstRelError, rel);
    if (!(rel <= kRelTolerance)) {
      failure.precision(17);
      failure << "task " << id << " predicted " << it->second << " actual " << end
              << " (relative error " << rel << "); ";
    }
  }
  outcome.failure = failure.str();
  return outcome;
}

TEST(HtmOracle, PredictionsMatchMachineAcrossTheCorpus) {
  std::size_t deepSets = 0;
  std::size_t singleTaskSets = 0;
  double worst = 0.0;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + kSets; ++seed) {
    const SetOutcome outcome = runSet(seed);
    EXPECT_TRUE(outcome.failure.empty()) << "seed " << seed << ": " << outcome.failure;
    if (outcome.maxDepth > 100) ++deepSets;
    if (outcome.tasks == 1) ++singleTaskSets;
    worst = std::max(worst, outcome.worstRelError);
  }
  // The corpus must actually reach the depths it claims to cover.
  EXPECT_GE(deepSets, 20u) << "too few sets pass 100 tasks in flight";
  EXPECT_GT(singleTaskSets, 0u) << "no single-task set in the corpus";
  std::cout << "HTM oracle: " << kSets << " sets, " << deepSets
            << " past depth 100, worst relative error " << worst << "\n";
}

}  // namespace
}  // namespace casched
