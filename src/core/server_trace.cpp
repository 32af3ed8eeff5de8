#include "core/server_trace.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <type_traits>

#include "util/error.hpp"

namespace casched::core {

namespace {
/// Phase amounts/remainders below this are "finished" (work units are seconds
/// or MB, both O(1)-O(1e3)).
constexpr double kEps = 1e-9;

/// The replay's resources. Both latencies are fixed delays progressing at
/// rate 1 however many tasks wait in them, so they share one clock.
enum Resource : unsigned { kDelay, kLinkIn, kCpu, kLinkOut, kResources };

/// Resource of each TracePhase (kDone never reaches a heap).
constexpr Resource kResourceOf[] = {kDelay, kLinkIn, kCpu, kDelay, kLinkOut, kDelay};

Resource resourceOf(TracePhase phase) {
  return kResourceOf[static_cast<std::uint8_t>(phase)];
}

/// A task's finish tag on its resource's virtual clock, and its admission
/// index (position in the task list), which breaks ties between equal tags.
struct TagEntry {
  double tag;
  std::uint32_t index;
};

/// Heap order: earlier tag first, then lower admission index.
bool before(const TagEntry& a, const TagEntry& b) {
  return a.tag < b.tag || (a.tag == b.tag && a.index < b.index);
}

/// One resource of the replay: its virtual clock V_r and a binary min-heap
/// on (tag, index) over caller-owned slots.
struct TagHeap {
  TagEntry* slot = nullptr;
  std::uint32_t size = 0;
  double clock = 0.0;

  void siftUp(std::uint32_t i) {
    const TagEntry e = slot[i];
    while (i > 0) {
      const std::uint32_t parent = (i - 1) / 2;
      if (!before(e, slot[parent])) break;
      slot[i] = slot[parent];
      i = parent;
    }
    slot[i] = e;
  }
  void siftDown(std::uint32_t i) {
    const TagEntry e = slot[i];
    for (;;) {
      std::uint32_t child = 2 * i + 1;
      if (child >= size) break;
      if (child + 1 < size && before(slot[child + 1], slot[child])) ++child;
      if (!before(slot[child], e)) break;
      slot[i] = slot[child];
      i = child;
    }
    slot[i] = e;
  }
  void push(const TagEntry& e) {
    slot[size] = e;
    siftUp(size++);
  }
  TagEntry pop() {
    const TagEntry top = slot[0];
    if (--size > 0) {
      slot[0] = slot[size];
      siftDown(0);
    }
    return top;
  }
};

/// Calls f(std::integral_constant<unsigned, r>{}) for every resource r in
/// order. Indexing per-resource state with a compile-time r keeps it in
/// registers through the event loop.
template <class F>
void forEachResource(F&& f) {
  f(std::integral_constant<unsigned, kDelay>{});
  f(std::integral_constant<unsigned, kLinkIn>{});
  f(std::integral_constant<unsigned, kCpu>{});
  f(std::integral_constant<unsigned, kLinkOut>{});
}

/// Calls f(std::integral_constant<unsigned, r>{}) for a run-time resource r.
template <class F>
void withResource(unsigned r, F&& f) {
  switch (r) {
    case kDelay: f(std::integral_constant<unsigned, kDelay>{}); break;
    case kLinkIn: f(std::integral_constant<unsigned, kLinkIn>{}); break;
    case kCpu: f(std::integral_constant<unsigned, kCpu>{}); break;
    default: f(std::integral_constant<unsigned, kLinkOut>{}); break;
  }
}

/// One flat buffer per thread holding the four heaps (one slot per task each)
/// and the list of tasks due at an event. It only grows, so a warm caller
/// replays without touching the heap allocator.
std::vector<TagEntry>& kernelScratch() {
  thread_local std::vector<TagEntry> buffer;
  return buffer;
}
}  // namespace

ServerTrace::ServerTrace(ServerModel model) : model_(std::move(model)) {
  CASCHED_CHECK(model_.bwInMBps > 0 && model_.bwOutMBps > 0,
                "server model bandwidths must be positive");
}

bool ServerTrace::hasTask(std::uint64_t taskId) const {
  return std::any_of(tasks_.begin(), tasks_.end(),
                     [taskId](const TraceTask& t) { return t.taskId == taskId; });
}

double ServerTrace::phaseAmount(const TraceTask& task, TracePhase phase) const {
  const double amounts[] = {model_.latencyIn,  task.dims.inMB,  task.dims.cpuSeconds,
                            model_.latencyOut, task.dims.outMB, 0.0};
  return amounts[static_cast<std::uint8_t>(phase)];
}

void ServerTrace::enterNextPhase(TraceTask& task) const {
  while (task.phase != TracePhase::kDone && task.remaining <= kEps) {
    task.phase = static_cast<TracePhase>(static_cast<std::uint8_t>(task.phase) + 1);
    task.remaining = phaseAmount(task, task.phase);
  }
}

template <class DoneF, class SegF>
void ServerTrace::stepCore(std::vector<TraceTask>& tasks, simcore::SimTime* t,
                           simcore::SimTime bound, DoneF&& onDone, SegF&& onSegment,
                           const std::uint64_t* stopTaskId,
                           simcore::SimTime* stopCompletion) const {
  constexpr bool kHasDone = !std::is_null_pointer_v<std::decay_t<DoneF>>;
  constexpr bool kHasSegment = !std::is_null_pointer_v<std::decay_t<SegF>>;
  const std::size_t count = tasks.size();
  simcore::SimTime now = *t;
  if (count > 0 && now < bound) {
    CASCHED_CHECK(count <= std::numeric_limits<std::uint32_t>::max(),
                  "trace too deep for the replay kernel");
    std::vector<TagEntry>& scratch = kernelScratch();
    if (scratch.size() < (kResources + 1) * count) scratch.resize((kResources + 1) * count);
    TagHeap res[kResources];
    forEachResource([&](auto r) { res[r].slot = scratch.data() + r * count; });
    TagEntry* const due = scratch.data() + kResources * count;

    // Every clock starts at 0, so a task's tag starts as its remaining amount.
    for (std::size_t i = 0; i < count; ++i) {
      CASCHED_CHECK(tasks[i].phase != TracePhase::kDone, "trace task already done");
      withResource(resourceOf(tasks[i].phase), [&](auto r) {
        res[r].slot[res[r].size++] = TagEntry{tasks[i].remaining, static_cast<std::uint32_t>(i)};
      });
    }
    forEachResource([&](auto r) {
      for (std::uint32_t i = res[r].size / 2; i-- > 0;) res[r].siftDown(i);
    });

    // Fixed delays progress at rate 1 however many tasks wait in them; the
    // other resources split their capacity evenly.
    const double capacity[kResources] = {1.0, model_.bwInMBps, 1.0, model_.bwOutMBps};
    std::size_t finished = 0;
    while (finished < count && now < bound) {
      // Per-task rate on each busy resource; the next event is the earliest
      // head-of-heap tag reached at those rates.
      double rate[kResources] = {};
      double dt = std::numeric_limits<double>::infinity();
      forEachResource([&](auto r) {
        if (res[r].size == 0) return;
        rate[r] = r == kDelay ? 1.0 : capacity[r] / static_cast<double>(res[r].size);
        dt = std::min(dt, (res[r].slot[0].tag - res[r].clock) / rate[r]);
      });
      const bool clipped = now + dt > bound;
      if (clipped) dt = bound - now;
      const simcore::SimTime t0 = now;
      now = t0 + dt;
      if constexpr (kHasSegment) {
        if (dt > kEps) {
          for (const TraceTask& task : tasks) {
            if (task.phase == TracePhase::kDone) continue;
            const unsigned r = resourceOf(task.phase);
            onSegment(task, t0, now, r == kDelay ? 1.0 : 1.0 / static_cast<double>(res[r].size));
          }
        }
      }
      // Clocks advance eagerly at every event, so V_r stays small and exact
      // enough for `tag - V_r` to resolve kEps at any trace date. Then every
      // task whose phase ends now is popped; an emptied resource restarts its
      // clock at 0.
      std::size_t dueCount = 0;
      forEachResource([&](auto r) {
        TagHeap& h = res[r];
        if (h.size == 0) return;
        h.clock += rate[r] * dt;
        while (h.size > 0 && h.slot[0].tag - h.clock <= kEps) due[dueCount++] = h.pop();
        if (h.size == 0) h.clock = 0.0;
      });
      // Phase transitions and completions in admission order; a task entering
      // a phase gets the tag V_r + amount.
      if (dueCount > 1) {
        std::sort(due, due + dueCount,
                  [](const TagEntry& a, const TagEntry& b) { return a.index < b.index; });
      }
      for (std::size_t d = 0; d < dueCount; ++d) {
        TraceTask& task = tasks[due[d].index];
        task.remaining = 0.0;
        enterNextPhase(task);
        if (task.phase == TracePhase::kDone) {
          if constexpr (kHasDone) onDone(task, now);
          if (stopTaskId != nullptr && task.taskId == *stopTaskId) {
            if (stopCompletion != nullptr) *stopCompletion = now;
            *t = now;
            return;  // `tasks` is consumed on this path
          }
          ++finished;
          continue;
        }
        const std::uint32_t index = due[d].index;
        const double amount = task.remaining;
        withResource(resourceOf(task.phase),
                     [&](auto r) { res[r].push(TagEntry{res[r].clock + amount, index}); });
      }
      if (clipped) break;
    }

    // Back to the public state: work left at the trace clock, finished tasks
    // dropped, admission order kept.
    if (finished == count) {
      tasks.clear();
    } else {
      forEachResource([&](auto r) {
        const TagHeap& h = res[r];
        for (std::uint32_t j = 0; j < h.size; ++j) {
          tasks[h.slot[j].index].remaining = h.slot[j].tag - h.clock;
        }
      });
      if (finished > 0) {
        tasks.erase(std::remove_if(tasks.begin(), tasks.end(),
                                   [](const TraceTask& task) {
                                     return task.phase == TracePhase::kDone;
                                   }),
                    tasks.end());
      }
    }
  }
  if (now < bound && bound != simcore::kTimeInfinity) now = bound;
  *t = now;
}

void ServerTrace::advanceTo(simcore::SimTime to) {
  if (to <= now_) return;
  ++version_;
  stepCore(tasks_, &now_, to, nullptr, nullptr, nullptr, nullptr);
}

void ServerTrace::admit(std::uint64_t taskId, const TaskDims& dims,
                        simcore::SimTime at, double startDelay) {
  CASCHED_CHECK(startDelay >= 0.0, "startDelay must be non-negative");
  CASCHED_CHECK(!hasTask(taskId), "task already in trace");
  advanceTo(at);
  ++version_;
  TraceTask task;
  task.taskId = taskId;
  task.dims = dims;
  task.admitted = at;
  task.phase = TracePhase::kLatencyIn;
  task.remaining = startDelay + model_.latencyIn;
  if (task.remaining <= kEps) enterNextPhase(task);
  if (task.phase == TracePhase::kDone) return;  // degenerate empty task
  tasks_.push_back(task);
}

bool ServerTrace::remove(std::uint64_t taskId) {
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [taskId](const TraceTask& t) { return t.taskId == taskId; });
  if (it == tasks_.end()) return false;
  tasks_.erase(it);
  ++version_;
  return true;
}

void ServerTrace::clear() {
  tasks_.clear();
  ++version_;
}

std::map<std::uint64_t, simcore::SimTime> ServerTrace::predictCompletions() const {
  std::map<std::uint64_t, simcore::SimTime> out;
  std::vector<TraceTask> copy = tasks_;
  simcore::SimTime t = now_;
  stepCore(copy, &t, simcore::kTimeInfinity,
           [&out](const TraceTask& task, simcore::SimTime when) { out[task.taskId] = when; },
           nullptr, nullptr, nullptr);
  return out;
}

void ServerTrace::copyAdvanced(std::vector<TraceTask>& tasks, simcore::SimTime* t,
                               simcore::SimTime to) const {
  tasks = tasks_;  // assignment reuses the destination's capacity
  *t = now_;
  if (to > *t) stepCore(tasks, t, to, nullptr, nullptr, nullptr, nullptr);
}

void ServerTrace::completeInto(std::vector<TraceTask>& tasks, simcore::SimTime t,
                               std::vector<PredictedEntry>& out) const {
  stepCore(tasks, &t, simcore::kTimeInfinity,
           [&out](const TraceTask& task, simcore::SimTime when) {
             out.push_back(PredictedEntry{task.taskId, when});
           },
           nullptr, nullptr, nullptr);
}

simcore::SimTime ServerTrace::completeOne(std::vector<TraceTask>& tasks,
                                          simcore::SimTime t,
                                          std::uint64_t taskId) const {
  simcore::SimTime completion = simcore::kTimeInfinity;
  stepCore(tasks, &t, simcore::kTimeInfinity, nullptr, nullptr, &taskId, &completion);
  return completion;
}

bool ServerTrace::buildAdmitted(std::uint64_t taskId, const TaskDims& dims,
                                simcore::SimTime at, double startDelay,
                                TraceTask* out) const {
  CASCHED_CHECK(startDelay >= 0.0, "startDelay must be non-negative");
  TraceTask task;
  task.taskId = taskId;
  task.dims = dims;
  task.admitted = at;
  task.phase = TracePhase::kLatencyIn;
  task.remaining = startDelay + model_.latencyIn;
  if (task.remaining <= kEps) enterNextPhase(task);
  if (task.phase == TracePhase::kDone) return false;  // degenerate empty task
  *out = task;
  return true;
}

simcore::SimTime ServerTrace::predictCompletion(std::uint64_t taskId) const {
  const auto all = predictCompletions();
  auto it = all.find(taskId);
  return it == all.end() ? simcore::kTimeInfinity : it->second;
}

GanttChart ServerTrace::simulateGantt() const {
  GanttChart chart;
  chart.serverName = model_.name;
  chart.origin = now_;
  chart.horizon = now_;
  std::vector<TraceTask> copy = tasks_;
  simcore::SimTime t = now_;
  stepCore(copy, &t, simcore::kTimeInfinity,
           [&chart](const TraceTask&, simcore::SimTime when) {
             chart.horizon = std::max(chart.horizon, when);
           },
           [&chart](const TraceTask& task, simcore::SimTime t0, simcore::SimTime t1,
                    double share) {
             chart.segments.push_back(GanttSegment{
                 task.taskId, static_cast<std::uint8_t>(task.phase), t0, t1, share});
           },
           nullptr, nullptr);
  chart.horizon = std::max(chart.horizon, t);
  return chart;
}

double ServerTrace::totalRemainingCpuSeconds() const {
  double total = 0.0;
  for (const TraceTask& task : tasks_) {
    if (task.phase < TracePhase::kCompute) {
      total += task.dims.cpuSeconds;
    } else if (task.phase == TracePhase::kCompute) {
      total += task.remaining;
    }
  }
  return total;
}

void ServerTrace::restore(std::vector<TraceTask> tasks, simcore::SimTime now) {
  for (const TraceTask& task : tasks) {
    CASCHED_CHECK(task.phase <= TracePhase::kDone, "restored task has a bad phase");
    CASCHED_CHECK(task.remaining >= 0.0, "restored task has negative remaining work");
  }
  tasks_ = std::move(tasks);
  // Drop tasks a snapshot caught exactly at completion.
  tasks_.erase(std::remove_if(tasks_.begin(), tasks_.end(),
                              [](const TraceTask& t) { return t.phase == TracePhase::kDone; }),
               tasks_.end());
  now_ = now;
  ++version_;
}

std::string tracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kLatencyIn: return "latency-in";
    case TracePhase::kTransferIn: return "transfer-in";
    case TracePhase::kCompute: return "compute";
    case TracePhase::kLatencyOut: return "latency-out";
    case TracePhase::kTransferOut: return "transfer-out";
    case TracePhase::kDone: return "done";
  }
  return "?";
}

}  // namespace casched::core
