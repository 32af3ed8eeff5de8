#pragma once
/// \file system.hpp
/// End-to-end wiring: builds the simulator, machines, daemons, agents and
/// client for one experiment, runs it to completion, and returns the
/// metrics-ready RunResult. This is the single simulator entry point the
/// experiment harness, the scenario runner and the benches use.
///
/// A deployment is a list of agents, each owning a rack of the testbed's
/// servers. The default is the paper's: one agent owning every server, fed
/// by a cas::Client. With more than one agent a mesh router sits between the
/// client and the agents: each request is forwarded to the least-loaded
/// peer, parked for work-stealing or denied per mesh::decideRoute, and the
/// topology is flat (requests spread round-robin) or a tree (every request
/// enters at a serverless root). The live loopback harness deploys the same
/// shapes over TCP, and the two agree on completed/lost counts at the same
/// seed (locked by test).

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cas/agent.hpp"
#include "cas/churn.hpp"
#include "cas/client.hpp"
#include "cas/server_daemon.hpp"
#include "mesh/router.hpp"
#include "metrics/record.hpp"
#include "platform/testbed.hpp"
#include "psched/noise.hpp"
#include "workload/metatask.hpp"

namespace casched::cas {

struct SystemConfig {
  /// Load-report period (NetSolve workload manager).
  double reportPeriod = 30.0;
  /// One-way control-message latency; <0 means "use the testbed's value".
  double controlLatency = -1.0;
  /// NetSolve-MCT-style fault tolerance (re-submission of failed tasks).
  bool faultTolerance = false;
  int maxRetries = 5;
  core::SyncPolicy htmSync = core::SyncPolicy::kDropOnNotice;
  /// Ground-truth variability (paper's shared laboratory testbed).
  psched::NoiseConfig cpuNoise;
  psched::NoiseConfig linkNoise;
  std::uint64_t noiseSeed = 99;
  /// Scheduler RNG seed (random baseline only).
  std::uint64_t schedulerSeed = 7;
  /// Hard stop: no experiment should ever reach this.
  double horizon = 5.0e6;
};

/// How requests move between the agents of a multi-agent deployment.
struct MeshRouting {
  mesh::RouterConfig router;
  /// Tree topology: the agent every client request enters at. Empty for a
  /// flat topology, where task i enters at agent i % agents.
  std::optional<std::size_t> root;
  /// Simulated seconds between global steal rounds (router.stealing only).
  double stealPeriod = 0.0;
  /// Max parked tasks handed over per steal.
  std::size_t stealBatch = 4;
};

/// The agents of a deployment and the servers each one owns.
struct Topology {
  /// One entry per agent: the testbed indices of the servers it owns, in
  /// registration order. Empty means one agent owning every server.
  std::vector<std::vector<std::size_t>> racks;
  /// Routing between the agents; required with two or more agents and
  /// absent with one (a lone agent never consults the router).
  std::optional<MeshRouting> mesh;
};

/// Owns every simulation object of one experiment run.
class GridSystem {
 public:
  GridSystem(const platform::Testbed& testbed, const workload::Metatask& metatask,
             const std::string& schedulerName, const SystemConfig& config,
             const Topology& topology = {});

  GridSystem(const GridSystem&) = delete;
  GridSystem& operator=(const GridSystem&) = delete;

  /// Registers membership events to fire during run() (one-agent
  /// deployments only). Call before run(); events beyond the end of the run
  /// simply never fire.
  void setChurnTimeline(std::vector<ChurnEvent> events);

  /// Runs until every task is terminal (or the horizon) and builds the result.
  metrics::RunResult run();

  /// The first agent (the only one in a one-agent deployment).
  Agent& agent() { return *nodes_.front().agent; }
  simcore::Simulator& simulator() { return sim_; }

 private:
  /// One agent, its rack of server daemons and the mesh bookkeeping around it.
  struct Node {
    std::string name;
    std::unique_ptr<Agent> agent;
    std::vector<std::unique_ptr<ServerDaemon>> daemons;
    /// Queued-but-undispatched tasks awaiting a steal (arrival order).
    std::deque<workload::TaskInstance> parked;
    /// taskId -> "forward:<agent>" / "steal:<agent>" for decision attribution.
    std::unordered_map<std::uint64_t, std::string> origin;
  };

  void addServer(Node& node, const psched::MachineSpec& spec);
  ServerDaemon& daemon(const std::string& name);
  void applyChurn(const ChurnEvent& event);

  // --- mesh routing (multi-agent deployments only) ---
  std::vector<mesh::PeerDigest> peerDigests(std::size_t self, std::size_t exclude) const;
  void onRequest(std::size_t self, const workload::TaskInstance& task, std::uint32_t hops,
                 const std::string& origin);
  void stealTick();
  void loseTask(const workload::TaskInstance& task);

  void onTerminal();
  metrics::RunResult buildResult();

  simcore::Simulator sim_;
  const workload::Metatask metatask_;
  std::string schedulerName_;
  SystemConfig config_;
  std::optional<MeshRouting> mesh_;
  std::vector<Node> nodes_;
  /// Present exactly when there is one agent: it hands each equal-arrival
  /// group to Agent::scheduleBatch.
  std::unique_ptr<Client> client_;
  std::vector<ChurnEvent> timeline_;
  metrics::ChurnSummary churnStats_;
  metrics::MeshSummary meshStats_;
  /// taskId -> forwarding agent index (so the receiver can exclude it).
  std::unordered_map<std::uint64_t, std::size_t> originIndex_;
  /// Tasks denied by the router; they never reached any agent.
  std::vector<metrics::TaskOutcome> extraLost_;
  std::size_t terminal_ = 0;
  std::uint64_t nextNoiseStream_ = 0;  ///< per-server noise-seed derivation
};

/// Convenience one-shot: build + run, with an optional churn timeline and
/// topology (one agent owning every server by default).
metrics::RunResult runExperimentSystem(const platform::Testbed& testbed,
                                       const workload::Metatask& metatask,
                                       const std::string& schedulerName,
                                       const SystemConfig& config,
                                       std::vector<ChurnEvent> churn = {},
                                       const Topology& topology = {});

}  // namespace casched::cas
