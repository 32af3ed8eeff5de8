// Tests of the ServerTrace - the HTM's per-server analytic simulation - and
// of the Gantt chart extraction (paper figure 1).

#include <gtest/gtest.h>

#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <vector>

#include "core/server_trace.hpp"
#include "simcore/rng.hpp"

namespace casched::core {
namespace {

ServerModel bareModel(double bwIn = 10.0, double bwOut = 10.0, double latIn = 0.0,
                      double latOut = 0.0) {
  return ServerModel{"s", bwIn, bwOut, latIn, latOut};
}

TEST(ServerTrace, SingleTaskPhases) {
  ServerTrace trace(bareModel(10.0, 5.0, 0.5, 0.25));
  trace.admit(1, TaskDims{20.0, 10.0, 5.0}, 0.0);
  // 0.5 + 2 + 10 + 0.25 + 1 = 13.75
  EXPECT_NEAR(trace.predictCompletion(1), 13.75, 1e-9);
}

TEST(ServerTrace, StartDelayShiftsEverything) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0, 2.5);
  EXPECT_NEAR(trace.predictCompletion(1), 12.5, 1e-9);
}

TEST(ServerTrace, EqualShareCompute) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 20.0, 1e-9);
  EXPECT_NEAR(done.at(2), 20.0, 1e-9);
}

TEST(ServerTrace, LateArrivalMatchesHandComputation) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 5.0);  // advances to t=5 first
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 15.0, 1e-9);
  EXPECT_NEAR(done.at(2), 20.0, 1e-9);
}

TEST(ServerTrace, TransfersShareLinkComputesShareCpuIndependently) {
  // Task 1 computes while task 2 transfers: no interference.
  ServerTrace trace(bareModel(10.0, 10.0));
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);     // pure compute, done at 10
  trace.admit(2, TaskDims{50.0, 0.0, 0.0}, 0.0);     // pure transfer, done at 5
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 10.0, 1e-9);
  EXPECT_NEAR(done.at(2), 5.0, 1e-9);
}

TEST(ServerTrace, TwoTransfersHalveBandwidth) {
  ServerTrace trace(bareModel(10.0, 10.0));
  trace.admit(1, TaskDims{20.0, 0.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{20.0, 0.0, 0.0}, 0.0);
  const auto done = trace.predictCompletions();
  EXPECT_NEAR(done.at(1), 4.0, 1e-9);
  EXPECT_NEAR(done.at(2), 4.0, 1e-9);
}

TEST(ServerTrace, AdvanceToRetiresFinishedTasks) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.advanceTo(10.0 + 1e-6);
  EXPECT_EQ(trace.activeTasks(), 0u);
  EXPECT_EQ(trace.predictCompletion(1), simcore::kTimeInfinity);
}

TEST(ServerTrace, AdvancePartial) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.advanceTo(4.0);
  EXPECT_EQ(trace.activeTasks(), 1u);
  EXPECT_NEAR(trace.predictCompletion(1), 10.0, 1e-9);
  EXPECT_NEAR(trace.totalRemainingCpuSeconds(), 6.0, 1e-9);
}

TEST(ServerTrace, RemoveTask) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_TRUE(trace.remove(1));
  EXPECT_FALSE(trace.remove(1));
  EXPECT_NEAR(trace.predictCompletion(2), 10.0, 1e-9);
}

TEST(ServerTrace, ClearDropsEverything) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.clear();
  EXPECT_EQ(trace.activeTasks(), 0u);
}

TEST(ServerTrace, PredictIsNonMutating) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const auto first = trace.predictCompletions();
  const auto second = trace.predictCompletions();
  EXPECT_EQ(first.size(), second.size());
  EXPECT_NEAR(first.at(1), second.at(1), 1e-12);
  EXPECT_EQ(trace.activeTasks(), 1u);
}

TEST(ServerTrace, CopySemanticsForHypotheticals) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  ServerTrace copy = trace;
  copy.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_NEAR(copy.predictCompletion(1), 20.0, 1e-9);
  EXPECT_NEAR(trace.predictCompletion(1), 10.0, 1e-9);  // original untouched
}

TEST(ServerTrace, DuplicateAdmitRejected) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  EXPECT_THROW(trace.admit(1, TaskDims{0.0, 1.0, 0.0}, 1.0), util::Error);
}

TEST(ServerTrace, ZeroEverythingTaskNeverEntersTrace) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 0.0, 0.0}, 3.0);
  EXPECT_EQ(trace.activeTasks(), 0u);
}

TEST(ServerTrace, PaperFigure1Scenario) {
  // Paper fig. 1: two tasks running, a third arrives; shares move
  // 100% -> 50% -> 33.3% and completion dates shift (the perturbation).
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 30.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 30.0, 0.0}, 10.0);
  const auto before = trace.predictCompletions();
  // t in [0,10): T1 alone (10 done). [10,...): share 1/2.
  // T1: 20 left at 1/2 -> done at 50. T2: 30 at 1/2 until T1 done...
  // T1 done at 50; T2 has 30 - 20 = 10 left, alone -> done at 60.
  EXPECT_NEAR(before.at(1), 50.0, 1e-9);
  EXPECT_NEAR(before.at(2), 60.0, 1e-9);

  ServerTrace with = trace;
  with.admit(3, TaskDims{0.0, 30.0, 0.0}, 20.0);
  const auto after = with.predictCompletions();
  // Hand-computed: [0,10) T1 alone; [10,20) T1,T2 at 1/2 (T1 has 15 left at
  // t=20, T2 has 25); [20,...) three-way at 1/3: T1 done at 20+45=65;
  // then T2 (25-15=10 left) and T3 (30-15=15) at 1/2: T2 done at 85;
  // T3 (15-10=5 left) alone: done at 90.
  EXPECT_NEAR(after.at(1), 65.0, 1e-9);
  EXPECT_NEAR(after.at(2), 85.0, 1e-9);
  EXPECT_NEAR(after.at(3), 90.0, 1e-9);
  // Perturbations pi_1 = 15, pi_2 = 25.
  EXPECT_NEAR(after.at(1) - before.at(1), 15.0, 1e-9);
  EXPECT_NEAR(after.at(2) - before.at(2), 25.0, 1e-9);
}

TEST(Gantt, SegmentsCoverExecution) {
  ServerTrace trace(bareModel(10.0, 10.0, 0.0, 0.0));
  trace.admit(1, TaskDims{10.0, 5.0, 10.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  ASSERT_FALSE(chart.empty());
  EXPECT_NEAR(chart.horizon, 7.0, 1e-9);  // 1 + 5 + 1
  double total = 0.0;
  for (const auto& seg : chart.segments) {
    EXPECT_LE(seg.start, seg.end);
    EXPECT_GT(seg.share, 0.0);
    EXPECT_LE(seg.share, 1.0);
    total += seg.end - seg.start;
  }
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(Gantt, SharesReflectConcurrency) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 10.0, 0.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  for (const auto& seg : chart.segments) {
    EXPECT_NEAR(seg.share, 0.5, 1e-9);  // both compute the whole time
  }
}

TEST(Gantt, AsciiRenderContainsTasksAndLegend) {
  ServerTrace trace(bareModel(10.0, 10.0, 0.1, 0.1));
  trace.admit(7, TaskDims{5.0, 3.0, 5.0}, 0.0);
  const std::string out = renderGanttAscii(trace.simulateGantt());
  EXPECT_NE(out.find("task 7"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
  EXPECT_NE(out.find('='), std::string::npos);
}

TEST(Gantt, EmptyChartRenders) {
  ServerTrace trace(bareModel());
  const std::string out = renderGanttAscii(trace.simulateGantt());
  EXPECT_NE(out.find("empty"), std::string::npos);
}

TEST(Gantt, CsvHasOneRowPerSegment) {
  ServerTrace trace(bareModel());
  trace.admit(1, TaskDims{0.0, 10.0, 0.0}, 0.0);
  trace.admit(2, TaskDims{0.0, 5.0, 0.0}, 0.0);
  const GanttChart chart = trace.simulateGantt();
  const std::string csv = ganttToCsv(chart);
  const auto lines = static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(lines, chart.segments.size() + 1);  // header
}

TEST(ServerTrace, PhaseNames) {
  EXPECT_EQ(tracePhaseName(TracePhase::kCompute), "compute");
  EXPECT_EQ(tracePhaseName(TracePhase::kTransferIn), "transfer-in");
  EXPECT_EQ(tracePhaseName(TracePhase::kDone), "done");
}

// --- the virtual-time replay kernel ------------------------------------------

/// A trace with `depth` tasks in every phase mix: staggered admissions (each
/// admit advances the trace), some zero-MB transfers and some twins admitted
/// at the same instant with identical dims.
ServerTrace deepTrace(std::size_t depth, std::uint64_t seed) {
  simcore::RandomStream rng(seed);
  ServerTrace trace(bareModel(8.0, 6.0, 0.05, 0.02));
  double at = 0.0;
  TaskDims dims;
  for (std::uint64_t id = 1; id <= depth; ++id) {
    if (id == 1 || !rng.bernoulli(0.1)) {
      at += rng.exponentialMean(0.05);
      dims = TaskDims{rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 30.0),
                      rng.uniform(1.0, 60.0),
                      rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 10.0)};
    }
    trace.admit(id, dims, at, 0.01);
  }
  return trace;
}

TEST(TraceKernel, SplitAdvanceMatchesOneShotPrediction) {
  // Tags are rebased on every call: advancing in 50 random steps and then
  // predicting must give the dates of one prediction from the start.
  const ServerTrace start = deepTrace(200, 5);
  ASSERT_EQ(start.activeTasks(), 200u);
  const auto oneShot = start.predictCompletions();
  std::vector<double> ends;
  for (const auto& [id, when] : oneShot) ends.push_back(when);
  std::sort(ends.begin(), ends.end());
  const double until = ends[ends.size() / 2];  // about half the tasks retire

  simcore::RandomStream rng(9);
  std::vector<double> steps;
  for (int i = 0; i < 49; ++i) steps.push_back(rng.uniform(start.now(), until));
  steps.push_back(until);
  std::sort(steps.begin(), steps.end());
  ServerTrace split = start;
  for (double step : steps) split.advanceTo(step);

  const auto afterSplit = split.predictCompletions();
  EXPECT_GT(afterSplit.size(), 50u);
  EXPECT_LT(afterSplit.size(), 150u);
  for (const auto& [id, when] : oneShot) {
    const auto it = afterSplit.find(id);
    if (it == afterSplit.end()) {
      EXPECT_LE(when, until * (1.0 + 1e-12)) << "task " << id << " retired early";
      continue;
    }
    EXPECT_NEAR(it->second, when, 1e-12 * when) << "task " << id;
  }
}

TEST(TraceKernel, EqualTagsCompleteTogetherInAdmissionOrder) {
  ServerTrace trace(bareModel(10.0, 10.0));
  // Three twins share the CPU (10/3 s of work each at 1/3 speed) and a lone
  // transfer holds the in-link (100 MB at 10 MB/s): all four end at t = 10.
  // Ids are out of order so admission order is what the output must follow.
  const TaskDims twin{0.0, 10.0 / 3.0, 0.0};
  trace.admit(9, twin, 0.0);
  trace.admit(4, twin, 0.0);
  trace.admit(7, twin, 0.0);
  trace.admit(2, TaskDims{100.0, 0.0, 0.0}, 0.0);

  std::vector<TraceTask> tasks;
  simcore::SimTime t = 0.0;
  trace.copyAdvanced(tasks, &t, 0.0);
  std::vector<PredictedEntry> done;
  trace.completeInto(tasks, t, done);
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[0].taskId, 9u);
  EXPECT_EQ(done[1].taskId, 4u);
  EXPECT_EQ(done[2].taskId, 7u);
  EXPECT_EQ(done[3].taskId, 2u);
  EXPECT_EQ(done[0].completion, done[1].completion);
  EXPECT_EQ(done[1].completion, done[2].completion);
  EXPECT_NEAR(done[0].completion, 10.0, 1e-9);
  EXPECT_NEAR(done[3].completion, 10.0, 1e-9);
}

TEST(TraceKernel, CompleteOneMatchesCompleteIntoBitForBitAtDepth200) {
  const ServerTrace trace = deepTrace(200, 11);
  std::vector<TraceTask> base;
  simcore::SimTime t = 0.0;
  trace.copyAdvanced(base, &t, trace.now() + 1.0);
  ASSERT_GT(base.size(), 150u);

  std::vector<TraceTask> work = base;
  std::vector<PredictedEntry> all;
  trace.completeInto(work, t, all);
  ASSERT_EQ(all.size(), base.size());
  for (std::size_t i : {std::size_t{0}, base.size() / 2, base.size() - 1}) {
    const std::uint64_t id = base[i].taskId;
    work = base;
    const simcore::SimTime one = trace.completeOne(work, t, id);
    const auto it = std::find_if(all.begin(), all.end(),
                                 [id](const PredictedEntry& e) { return e.taskId == id; });
    ASSERT_NE(it, all.end());
    EXPECT_EQ(one, it->completion) << "task " << id;
  }
}

TEST(TraceKernel, GanttSharesSumToOnePerSharedResource) {
  const GanttChart chart = deepTrace(60, 17).simulateGantt();
  ASSERT_FALSE(chart.empty());
  // Sum the shares of every (interval, shared phase); latencies are fixed
  // delays and are not shared.
  std::map<std::tuple<double, double, std::uint8_t>, double> sums;
  for (const GanttSegment& seg : chart.segments) {
    const auto phase = static_cast<TracePhase>(seg.phase);
    if (phase == TracePhase::kLatencyIn || phase == TracePhase::kLatencyOut) {
      EXPECT_EQ(seg.share, 1.0);
      continue;
    }
    sums[{seg.start, seg.end, seg.phase}] += seg.share;
  }
  ASSERT_GT(sums.size(), 100u);
  for (const auto& [key, total] : sums) {
    EXPECT_NEAR(total, 1.0, 1e-12) << "interval [" << std::get<0>(key) << ", "
                                   << std::get<1>(key) << ") phase "
                                   << int(std::get<2>(key));
  }
}

}  // namespace
}  // namespace casched::core
