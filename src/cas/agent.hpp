#pragma once
/// \file agent.hpp
/// The agent: central scheduler of the client-agent-server model (paper
/// section 2.1). Keeps the server registry, the (stale) load-report view with
/// NetSolve's two correction mechanisms (paper section 5.3), the Historical
/// Trace Manager, per-server memory bookkeeping, and the fault-tolerant
/// re-submission path that NetSolve's MCT has (paper section 5.1).
///
/// The scheduling core is built for throughput: server identity is an
/// interned dense ServerId (the HTM owns the intern table; strings exist only
/// at the edges), per-server and per-task state live in contiguous tables,
/// and every decision runs on reusable scratch buffers - steady-state
/// scheduling performs zero heap allocations. Requests can be placed one at a
/// time or as a batch; both run the same scheduleBatch path, so batched and
/// sequential placement are identical by construction.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cas/dispatch.hpp"
#include "core/htm.hpp"
#include "core/htm_snapshot.hpp"
#include "core/schedulers.hpp"
#include "core/server_id.hpp"
#include "metrics/record.hpp"
#include "platform/calibration.hpp"
#include "simcore/engine.hpp"
#include "util/flat_hash.hpp"
#include "workload/metatask.hpp"

namespace casched::obs {
struct DecisionRecord;
}  // namespace casched::obs

namespace casched::cas {

struct AgentConfig {
  /// One-way control-message latency (schedule RPCs, notifications).
  double controlLatency = 0.005;
  /// NetSolve MCT's re-submission of failed tasks; the authors' HMCT/MP/MSF
  /// implementations lacked it (paper section 5.1).
  bool faultTolerance = false;
  int maxRetries = 5;
  /// Delay before retrying when no server is currently available.
  double noServerRetryDelay = 10.0;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
};

class Agent {
 public:
  Agent(simcore::Simulator& sim, std::unique_ptr<core::Scheduler> scheduler,
        platform::CostModel costs, AgentConfig config);

  /// Server registration (paper: servers contact the agent with their problem
  /// list and peak performances). `problems` lists solvable task-type names;
  /// the single entry "*" means "solves everything". `memSoftMB` is physical
  /// RAM, `memCapacityMB` is RAM+swap (used by memory-aware admission).
  /// Re-registering a name whose previous incarnation was deregistered
  /// revives it (same ServerId) with a fresh HTM row (the distributed
  /// runtime's reconnect-after-retirement path); re-registering a live name
  /// is an error.
  void registerServer(TaskDispatch* dispatch, const core::ServerModel& model,
                      std::vector<std::string> problems, double memSoftMB,
                      double memCapacityMB);

  /// Graceful departure (dynamic membership): the server stops receiving new
  /// work and its HTM row is retired, but in-flight tasks drain normally.
  /// A later recovery notice for the same name is ignored.
  void deregisterServer(const std::string& server);

  /// Cost-model entry for a server joining mid-run (no calibrated per-type
  /// costs exist for it; computeCost falls back to refSeconds / speedIndex).
  void setServerSpeedIndex(const std::string& server, double index);

  /// Client request for one task, already delayed by the client->agent
  /// latency. Picks a server, updates the HTM and bookkeeping, and forwards
  /// the submission (after the reply + submit latencies). Equivalent to a
  /// scheduleBatch of one.
  void requestSchedule(const workload::TaskInstance& task);

  /// Places a batch of requests that arrived in the same poll cycle /
  /// simulation instant. One HTM refresh is amortized across the whole
  /// batch; tasks are then placed in order, each decision seeing the
  /// commits of the previous ones - exactly what sequential requestSchedule
  /// calls at the same timestamp produce (locked by test).
  void scheduleBatch(std::span<const workload::TaskInstance> tasks);

  // --- notifications from server daemons (already latency-delayed) ---
  void onLoadReport(const std::string& server, double load,
                    simcore::SimTime sampleTime);
  void onTaskCompleted(const std::string& server, std::uint64_t taskId,
                       simcore::SimTime completionTime, double unloadedDuration);
  void onTaskFailed(const std::string& server, std::uint64_t taskId);
  void onServerDown(const std::string& server);
  void onServerUp(const std::string& server);

  // --- experiment wiring ---
  /// Pre-sizes the task tables for `n` tasks so steady-state scheduling
  /// never grows them mid-run.
  void setExpectedTasks(std::size_t n);
  /// Fires once per task when it reaches a terminal state (completed or
  /// lost), with the finished outcome. The distributed runtime relays these
  /// to the client over the wire.
  void setTaskTerminalObserver(std::function<void(const metrics::TaskOutcome&)> fn) {
    onTerminal_ = std::move(fn);
  }

  /// Outcomes ordered by metatask index (call after the run finishes).
  std::vector<metrics::TaskOutcome> collectOutcomes() const;

  /// True when a task with this id was ever requested (terminal or not).
  /// The distributed runtime uses it to reject client-chosen id reuse.
  bool knowsTask(std::uint64_t taskId) const { return taskIndex_.contains(taskId); }

  /// Ids currently assigned to `server` and not yet completed/failed, in
  /// ascending id order. The distributed runtime captures these before
  /// declaring a server dead (a vanished process reports no victims itself,
  /// unlike a simulated collapse) so fault tolerance can re-submit them.
  std::vector<std::uint64_t> inFlightTasks(const std::string& server) const;

  /// Serialized HTM state (snapshot/persistence; see core/htm_snapshot.hpp).
  core::HtmSnapshot htmSnapshot() const { return htm_.snapshot(); }

  /// Boot-time warm start from the agent's own snapshot file. With nothing
  /// registered yet the whole snapshot is adopted - rows, accuracy
  /// statistics and sync policy - so a restarted agent resumes where its
  /// previous incarnation stopped; otherwise it falls back to row adoption.
  /// Returns the number of rows adopted.
  std::size_t warmStartHtm(const core::HtmSnapshot& snapshot);

  /// Adopts individual rows from a PEER's snapshot: rows for servers
  /// currently registered and live are skipped (local truth wins); rows for
  /// unknown or departed servers are adopted, ready for the next
  /// registration of that name (registerServer keeps a pre-warmed row). The
  /// local sync policy and statistics are never touched - a replica must
  /// not have its configured --htm-sync overridden by whatever the primary
  /// runs. Returns the adopted server names.
  std::vector<std::string> adoptHtmRows(const core::HtmSnapshot& snapshot);

  const core::HistoricalTraceManager& htm() const { return htm_; }
  const core::Scheduler& scheduler() const { return *scheduler_; }
  double peakReportedLoad(const std::string& server) const;
  std::uint64_t scheduleDecisions() const { return decisions_; }

  /// Current corrected load estimate for a server (MCT's view; exposed for
  /// tests of the two NetSolve correction mechanisms).
  double loadEstimate(const std::string& server) const;

  /// Mean corrected load estimate across live registered servers (the mesh's
  /// advertised-load signal), and how many servers that mean covers.
  double meanLoadEstimate() const;
  std::size_t liveServerCount() const;

  // --- mesh probes (pure: no HTM commit, no dispatch, no task state) ---
  /// True when at least one live registered server can solve `typeName`.
  bool hasFeasibleServer(const std::string& typeName);
  /// Absolute predicted completion time of `task` on the best candidate the
  /// scheduler would pick right now - the mesh router's overload signal.
  /// Empty when no live server can run the task. HTM heuristics answer with
  /// the preview's completion date; load-based heuristics with
  /// now + startDelay + their duration score.
  std::optional<double> previewBestCompletion(const workload::TaskInstance& task);

  // --- decision attribution (mesh observability) ---
  /// Label stamped into every DecisionRecord this agent emits (the agent's
  /// deployment name; empty for the paper's anonymous single agent).
  void setDecisionLabel(std::string label) { decisionLabel_ = std::move(label); }
  /// Invoked (only while the DecisionLog is enabled) on every record before
  /// it is pushed; the mesh layers use it to tag forwarded/stolen tasks with
  /// their origin agent.
  void setDecisionAnnotator(
      std::function<void(std::uint64_t, obs::DecisionRecord&)> fn) {
    decisionAnnotator_ = std::move(fn);
  }

 private:
  struct ServerState {
    TaskDispatch* dispatch = nullptr;
    core::ServerModel model;
    std::vector<std::string> problems;
    bool solvesAll = false;    ///< cached `problems == {"*"}` membership
    bool registered = false;   ///< slot holds a real registration (the table
                               ///< may have holes for HTM-only adopted ids)
    bool up = true;
    bool removed = false;  ///< left the grid; never a candidate again
    double reportedLoad = 0.0;
    simcore::SimTime lastReportTime = -1.0;  ///< -1: never reported
    double peakReportedLoad = 0.0;
    /// taskId -> assign time, sorted by taskId (matches the historical
    /// std::map iteration order, which failure drains depend on).
    std::vector<std::pair<std::uint64_t, simcore::SimTime>> inFlight;
    std::uint64_t completedOldSinceReport = 0;
    double projectedResidentMB = 0.0;
    double memSoftMB = 1e18;
    double memCapacityMB = 1e18;
    /// Per-type unloaded compute seconds, resolved once per (server, type):
    /// the cost database is string-keyed and must stay off the decision path.
    std::vector<std::pair<std::string, double>> costCache;
  };

  struct TaskState {
    workload::TaskInstance instance;
    int attempts = 0;
    core::ServerId server = core::kInvalidServerId;
    simcore::SimTime scheduledAt = -1.0;
    simcore::SimTime completion = -1.0;
    double unloadedDuration = 0.0;
    simcore::SimTime htmPredicted = -1.0;
    bool terminal = false;
    metrics::TaskStatus status = metrics::TaskStatus::kLost;
  };

  /// The single-task placement step of scheduleBatch (decision + commit +
  /// dispatch). Assumes the HTM was already advanced to now() when the
  /// scheduler uses it.
  void scheduleOne(const workload::TaskInstance& task);

  /// Fills query_'s candidate list for `task` (registration order, live and
  /// capable servers only). Shared by scheduleOne and the mesh probes.
  void buildCandidates(const workload::TaskInstance& task);

  bool canSolve(const ServerState& s, const std::string& typeName) const;
  double computeCostCached(ServerState& s, const workload::TaskType& type);
  double loadEstimate(const ServerState& s) const;
  void finishTask(TaskState& task, metrics::TaskStatus status);
  metrics::TaskOutcome makeOutcome(std::uint64_t taskId, const TaskState& state) const;
  std::string serverNameOf(const TaskState& task) const;

  /// Id of a registered server; throws on unknown/never-registered names.
  core::ServerId requireServerId(const std::string& name) const;
  ServerState& serverState(const std::string& name) {
    return servers_[requireServerId(name)];
  }
  const ServerState& serverState(const std::string& name) const {
    return servers_[requireServerId(name)];
  }

  /// Existing task state, or a fresh slot (insert == true).
  TaskState& taskStateFor(std::uint64_t taskId, bool* inserted);
  TaskState* findTask(std::uint64_t taskId);

  simcore::Simulator& sim_;
  std::unique_ptr<core::Scheduler> scheduler_;
  platform::CostModel costs_;
  AgentConfig config_;
  core::HistoricalTraceManager htm_;
  std::vector<ServerState> servers_;        ///< indexed by ServerId
  std::vector<core::ServerId> serverOrder_; ///< registration order (determinism)
  std::vector<TaskState> taskSlots_;        ///< slot per task, never freed
  util::FlatMap64<std::uint32_t> taskIndex_;  ///< taskId -> slot
  std::uint64_t decisions_ = 0;
  std::function<void(const metrics::TaskOutcome&)> onTerminal_;
  std::string decisionLabel_;
  std::function<void(std::uint64_t, obs::DecisionRecord&)> decisionAnnotator_;
  // Decision scratch, reused across every placement (zero-alloc steady state).
  core::ScheduleQuery query_;
  core::ScheduleDecision decision_;
  core::ScheduleDecision previewDecision_;  ///< previewBestCompletion scratch
};

}  // namespace casched::cas
