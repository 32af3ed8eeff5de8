#include "net/loopback.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "net/agent_daemon.hpp"
#include "net/client_driver.hpp"
#include "net/server_daemon.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace casched::net {

namespace {

/// Derived missed-report deadline: generous against the report period AND
/// against pump stalls. The daemons here share one cooperative thread, so the
/// deadline must exceed any plausible OS scheduling hiccup in *wall* terms
/// (10 s) or a loaded CI runner would spuriously retire healthy servers
/// mid-run and the resulting resubmissions would break exact-count agreement
/// with the simulator. Pass an explicit heartbeatTimeout to test retirement.
double deriveHeartbeatTimeout(const scenario::CompiledScenario& compiled,
                              const LiveRunOptions& options) {
  return options.heartbeatTimeout > 0.0
             ? options.heartbeatTimeout
             : std::max(3.0 * compiled.system.reportPeriod, 10.0 * options.timeScale);
}

AgentDaemonConfig baseAgentConfig(const scenario::CompiledScenario& compiled,
                                  const LiveRunOptions& options) {
  AgentDaemonConfig config;
  config.port = 0;
  config.heuristic = options.heuristic;
  config.controlLatency = compiled.testbed.controlLatency;
  config.faultTolerance = compiled.system.faultTolerance;
  config.maxRetries = compiled.system.maxRetries;
  config.htmSync = compiled.system.htmSync;
  config.heartbeatTimeout = deriveHeartbeatTimeout(compiled, options);
  config.schedulerSeed = compiled.system.schedulerSeed;
  config.costs = compiled.testbed.costs;
  return config;
}

/// One agent slot of a deployment; survives its daemon's crash and carries
/// what a restart needs (same port, same snapshot file).
struct AgentSlot {
  AgentDaemonConfig config;
  std::unique_ptr<AgentDaemon> daemon;
  std::uint16_t port = 0;
  double restartAt = -1.0;  ///< sim time of a pending restart; < 0 none
  std::vector<metrics::TaskOutcome> pastOutcomes;  ///< from crashed incarnations
  std::uint64_t pastSyncs = 0;
  std::uint64_t pastAdopted = 0;
};

void accumulateShare(AgentShare& share, const std::vector<metrics::TaskOutcome>& outcomes) {
  share.tasks += outcomes.size();
  for (const metrics::TaskOutcome& o : outcomes) {
    if (o.status == metrics::TaskStatus::kCompleted) ++share.completed;
    else ++share.lost;
  }
  share.resubmissions += countResubmissions(outcomes);
}

/// The deployment's server daemons: one per testbed entry at start, plus the
/// joiners a churn timeline adds. Each server dials its home agent first and
/// fails over down the rest of the agent list. Home is the server's rack
/// owner in a mesh, index % agents in partitioned mode, else the first agent.
class ServerFleet {
 public:
  ServerFleet(const PacedClock& clock, double reportPeriod, double heartbeatPeriod,
              std::vector<std::uint16_t> agentPorts, std::vector<std::size_t> rackOwner,
              bool partitioned)
      : clock_(clock),
        reportPeriod_(reportPeriod),
        heartbeatPeriod_(heartbeatPeriod),
        agentPorts_(std::move(agentPorts)),
        rackOwner_(std::move(rackOwner)),
        partitioned_(partitioned) {}

  void start(const psched::MachineSpec& spec, double speedIndex) {
    const std::size_t index = daemons_.size();
    const std::size_t home = index < rackOwner_.size()
                                 ? rackOwner_[index]
                                 : (partitioned_ ? index % agentPorts_.size() : 0);
    NetServerConfig config;
    for (std::size_t k = 0; k < agentPorts_.size(); ++k) {
      config.agentPorts.push_back(agentPorts_[(home + k) % agentPorts_.size()]);
    }
    config.agentPort = config.agentPorts.front();
    config.machine = spec;
    config.speedIndex = speedIndex;
    config.reportPeriod = reportPeriod_;
    config.heartbeatPeriod = heartbeatPeriod_;
    auto daemon = std::make_unique<NetServerDaemon>(config, clock_);
    daemon->connect();
    daemons_.push_back(std::move(daemon));
  }

  NetServerDaemon* find(const std::string& name) {
    for (auto& d : daemons_) {
      if (d->name() == name) return d.get();
    }
    return nullptr;
  }

  void runOnce() {
    for (auto& d : daemons_) d->runOnce();
  }
  std::size_t size() const { return daemons_.size(); }

 private:
  PacedClock clock_;
  double reportPeriod_;
  double heartbeatPeriod_;
  std::vector<std::uint16_t> agentPorts_;
  std::vector<std::size_t> rackOwner_;
  bool partitioned_;
  std::vector<std::unique_ptr<NetServerDaemon>> daemons_;
};

/// Live churn dispatch: applies each timeline event to the fleet at its
/// (wall-paced) scenario time. Folds every event into an FNV digest as it
/// is dispatched (the undispatched tail folded at finish), witnessing that
/// this harness iterated the compiled canonical sequence; an event whose
/// target daemon cannot be found is counted as skipped - the deterministic
/// dropped-event signal the digest alone cannot give (see loopback.hpp).
class LiveChurnDriver {
 public:
  LiveChurnDriver(std::vector<cas::ChurnEvent> timeline, ServerFleet& servers,
                  LiveRunReport& report)
      : timeline_(std::move(timeline)), servers_(servers), report_(report) {
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const cas::ChurnEvent& a, const cas::ChurnEvent& b) {
                       return a.time < b.time;
                     });
  }

  /// Dispatches every event due by `simNow` (wall-paced scenario time).
  void pump(double simNow) {
    while (next_ < timeline_.size() && timeline_[next_].time <= simNow) {
      digest_.fold(timeline_[next_]);
      apply(timeline_[next_], simNow);
      ++next_;
    }
  }

  /// Folds in the tail the run never reached (every task already terminal)
  /// and records the digest: it then covers the full canonical sequence,
  /// dispatched events first - equal to the simulator's timeline digest only
  /// when both sides consumed one identical generated stream.
  void finish() {
    for (std::size_t i = next_; i < timeline_.size(); ++i) digest_.fold(timeline_[i]);
    report_.churnDigest = digest_.value();
  }

 private:
  void apply(const cas::ChurnEvent& event, double simNow) {
    LOG_INFO("live churn: " << cas::churnActionName(event.action) << " "
                            << event.server << " at sim t=" << simNow);
    if (event.action == cas::ChurnAction::kJoin) {
      servers_.start(event.joinSpec, event.speedIndex);
      ++report_.churnApplied.joins;
      return;
    }
    NetServerDaemon* d = servers_.find(event.server);
    if (d == nullptr) {
      ++report_.churnSkipped;
      return;
    }
    switch (event.action) {
      case cas::ChurnAction::kJoin:
        return;
      case cas::ChurnAction::kLeave:
        d->leave();
        ++report_.churnApplied.leaves;
        return;
      case cas::ChurnAction::kCrash:
        if (d->crash(event.duration)) ++report_.churnApplied.crashes;
        return;
      case cas::ChurnAction::kSlowdown:
        d->setSpeedFactor(event.factor, event.duration);
        ++report_.churnApplied.slowdowns;
        return;
      case cas::ChurnAction::kLink:
        d->setLinkFactor(event.factor, event.duration);
        ++report_.churnApplied.links;
        return;
    }
  }

  std::vector<cas::ChurnEvent> timeline_;
  std::size_t next_ = 0;
  ServerFleet& servers_;
  LiveRunReport& report_;
  scenario::ChurnDigest digest_;
};

/// Deploys the compiled scenario - `agents.count` peered agent daemons (one
/// for the paper's model), one server daemon per testbed entry and a client
/// - and pumps it until every task is terminal or the wall deadline passes.
LiveRunReport runDeployment(const scenario::CompiledScenario& compiled,
                            const LiveRunOptions& options) {
  const scenario::AgentsSpec& spec = compiled.agents;
  const cas::Topology topology = scenario::topologyOf(compiled);
  const PacedClock clock(options.timeScale);

  // Snapshot files (restarts and peer warm-starts) live in a per-run
  // directory; a caller-provided one is kept (operators may want the
  // snapshots), the default temp one is removed. A lone agent has neither a
  // peer nor a restart event, so it persists nothing.
  namespace fs = std::filesystem;
  const bool persist = spec.count > 1;
  const bool ownSnapshotDir = persist && options.snapshotDir.empty();
  fs::path snapshotDir = options.snapshotDir.empty()
                             ? fs::temp_directory_path() /
                                   util::strformat("casched-run-%d-%p", ::getpid(),
                                                   static_cast<const void*>(&clock))
                             : fs::path(options.snapshotDir);
  if (persist) fs::create_directories(snapshotDir);

  std::vector<AgentSlot> slots(spec.count);
  for (std::size_t i = 0; i < spec.count; ++i) {
    AgentSlot& slot = slots[i];
    slot.config = baseAgentConfig(compiled, options);
    slot.config.agentName = util::strformat("agent-%zu", i);
    slot.config.mode = parseAgentMode(spec.mode);
    slot.config.syncPeriod = spec.syncPeriod;
    if (persist) {
      slot.config.snapshotPath =
          (snapshotDir / (slot.config.agentName + ".htmsnap")).string();
    }
    if (topology.mesh) {
      slot.config.meshEnabled = true;
      slot.config.meshRouter = topology.mesh->router;
      slot.config.meshStealPeriod = topology.mesh->stealPeriod;
      slot.config.meshStealBatch = topology.mesh->stealBatch;
    }
    slot.daemon = std::make_unique<AgentDaemon>(slot.config, clock);
    slot.port = slot.daemon->port();
    slot.config.port = slot.port;  // a restart rebinds the same port
  }
  // Peer mesh: the lower-index agent dials (and re-dials) the higher one, so
  // exactly one link exists per pair whoever crashed last. Recorded in the
  // config too so restarted incarnations resume dialing.
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (std::size_t j = i + 1; j < slots.size(); ++j) {
      const std::string address = util::strformat("127.0.0.1:%u", slots[j].port);
      slots[i].config.peers.push_back(address);
      slots[i].daemon->addPeer(address);
    }
  }

  // Mesh deployments home each server on its rack's owner (the simulator uses
  // the same assignment); otherwise partitioned mode round-robins by index.
  std::vector<std::size_t> rackOwner;
  if (!topology.racks.empty()) rackOwner.assign(compiled.testbed.servers.size(), 0);
  for (std::size_t agent = 0; agent < topology.racks.size(); ++agent) {
    for (const std::size_t s : topology.racks[agent]) rackOwner[s] = agent;
  }
  const bool partitioned = parseAgentMode(spec.mode) == AgentMode::kPartitioned;
  std::vector<std::uint16_t> agentPorts;
  for (const AgentSlot& slot : slots) agentPorts.push_back(slot.port);
  ServerFleet servers(clock, compiled.system.reportPeriod, options.heartbeatPeriod,
                      agentPorts, std::move(rackOwner), partitioned);
  for (const psched::MachineSpec& machineSpec : compiled.testbed.servers) {
    servers.start(machineSpec, compiled.testbed.costs.speedIndex(machineSpec.name));
  }

  LiveRunReport report;
  report.scenario = compiled.name;
  report.heuristic = options.heuristic;
  report.timeScale = options.timeScale;
  report.tasks = compiled.metatask.size();
  report.agentsDeployed = spec.count;
  report.agentMode = spec.mode;

  const auto stopRequested = [&] {
    return options.stopFlag != nullptr &&
           options.stopFlag->load(std::memory_order_relaxed);
  };
  const auto liveServers = [&] {
    std::size_t n = 0;
    for (const AgentSlot& slot : slots) {
      if (slot.daemon) n += slot.daemon->liveServerCount();
    }
    return n;
  };
  const auto pumpAll = [&](ClientDriver* client) {
    for (AgentSlot& slot : slots) {
      if (slot.daemon) slot.daemon->runOnce();
    }
    servers.runOnce();
    if (client != nullptr) client->runOnce();
  };

  // Wait for every initial registration before the first arrival fires.
  const WallDeadline registrationDeadline(5.0);
  while (liveServers() < servers.size() && !stopRequested()) {
    if (registrationDeadline.passed()) {
      throw util::IoError("loopback run: initial server registration timed out");
    }
    pumpAll(nullptr);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  ClientConfig clientConfig;
  if (topology.mesh && topology.mesh->root) {
    // Hierarchical topology: the client talks to the root only; the root
    // owns no rack and routes (forward or steal) into the leaves.
    clientConfig.agentPorts.push_back(slots[*topology.mesh->root].port);
  } else {
    clientConfig.agentPorts = agentPorts;
  }
  clientConfig.roundRobin = partitioned;
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(compiled.metatask);

  LiveChurnDriver churnDriver(compiled.churn, servers, report);

  // Agent churn timeline (crash + optional restart), time-sorted.
  std::vector<scenario::AgentEventSpec> agentEvents = spec.events;
  std::stable_sort(agentEvents.begin(), agentEvents.end(),
                   [](const scenario::AgentEventSpec& a, const scenario::AgentEventSpec& b) {
                     return a.time < b.time;
                   });
  std::size_t nextAgentEvent = 0;
  const auto crashAgent = [&](const scenario::AgentEventSpec& event) {
    AgentSlot& slot = slots[event.agentIndex];
    if (!slot.daemon) return;  // already down
    LOG_INFO("live churn: crash " << slot.config.agentName << " at sim t="
                                  << clock.simNow());
    const std::vector<metrics::TaskOutcome> outcomes =
        slot.daemon->agent().collectOutcomes();
    slot.pastOutcomes.insert(slot.pastOutcomes.end(), outcomes.begin(), outcomes.end());
    slot.pastSyncs += slot.daemon->syncsReceived();
    slot.pastAdopted += slot.daemon->peerRowsAdopted();
    slot.daemon.reset();  // listener + every transport die with the process
    ++report.agentCrashes;
    if (event.restartAfter >= 0.0) slot.restartAt = event.time + event.restartAfter;
  };
  const auto maybeRestartAgents = [&] {
    for (AgentSlot& slot : slots) {
      if (!slot.daemon && slot.restartAt >= 0.0 && clock.simNow() >= slot.restartAt) {
        slot.restartAt = -1.0;
        slot.daemon = std::make_unique<AgentDaemon>(slot.config, clock);
        ++report.agentRestarts;
        report.warmStartRows += slot.daemon->warmStartedRows();
        LOG_INFO("live churn: restarted " << slot.config.agentName << " (warm rows: "
                                          << slot.daemon->warmStartedRows() << ")");
      }
    }
  };

  const WallDeadline deadline(options.wallTimeoutSeconds);
  while (!client.done() && !stopRequested()) {
    if (deadline.passed()) {
      report.timedOut = true;
      break;
    }
    churnDriver.pump(clock.simNow());
    while (nextAgentEvent < agentEvents.size() &&
           agentEvents[nextAgentEvent].time <= clock.simNow()) {
      crashAgent(agentEvents[nextAgentEvent]);
      ++nextAgentEvent;
    }
    maybeRestartAgents();
    pumpAll(&client);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  churnDriver.finish();

  // The client is the authority on terminal counts: after a fail-over no
  // single agent saw every task, and a task that never reached an agent
  // (timed out in flight, or denied) is in no agent's outcomes.
  report.completed = client.completedCount();
  report.lost = report.tasks - std::min(report.tasks, report.completed);
  report.clientFailovers = client.failoverResubmissions();
  report.clientDenies = client.scheduleDenies();

  for (AgentSlot& slot : slots) {
    AgentShare share;
    share.name = slot.config.agentName;
    accumulateShare(share, slot.pastOutcomes);
    report.outcomes.insert(report.outcomes.end(), slot.pastOutcomes.begin(),
                           slot.pastOutcomes.end());
    report.peerSyncs += slot.pastSyncs;
    report.peerRowsAdopted += slot.pastAdopted;
    if (slot.daemon) {
      const std::vector<metrics::TaskOutcome> outcomes =
          slot.daemon->agent().collectOutcomes();
      accumulateShare(share, outcomes);
      report.outcomes.insert(report.outcomes.end(), outcomes.begin(), outcomes.end());
      report.peerSyncs += slot.daemon->syncsReceived();
      report.peerRowsAdopted += slot.daemon->peerRowsAdopted();
      report.serversRetired += slot.daemon->retiredServerCount();
      report.meshForwards += slot.daemon->meshForwards();
      report.meshDenies += slot.daemon->meshDenies();
      report.meshSteals += slot.daemon->meshSteals();
      report.meshParked += slot.daemon->meshParked();
    }
    report.resubmissions += share.resubmissions;
    report.perAgent.push_back(std::move(share));
  }
  std::stable_sort(report.outcomes.begin(), report.outcomes.end(),
                   [](const metrics::TaskOutcome& a, const metrics::TaskOutcome& b) {
                     return a.index < b.index;
                   });
  report.serversStarted = servers.size();
  report.wallSeconds = clock.wallElapsed();
  for (const AgentSlot& slot : slots) {
    if (slot.daemon) {
      report.simEndTime = slot.daemon->simulator().now();
      break;
    }
  }

  if (ownSnapshotDir) {
    std::error_code ec;
    fs::remove_all(snapshotDir, ec);  // best effort; temp dir anyway
  }
  return report;
}

}  // namespace

std::uint64_t countResubmissions(const std::vector<metrics::TaskOutcome>& outcomes) {
  std::uint64_t n = 0;
  for (const metrics::TaskOutcome& o : outcomes) {
    if (o.attempts > 1) n += static_cast<std::uint64_t>(o.attempts - 1);
  }
  return n;
}

LiveRunReport runLoopbackScenario(const scenario::ScenarioSpec& spec,
                                  const LiveRunOptions& options) {
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(spec, options.seed);
  LiveRunReport report = runDeployment(compiled, options);
  report.generatedChurn = compiled.generatedChurn;
  report.churnPlanned =
      scenario::summarizeChurnTimeline(compiled.churn, compiled.faultDomains);
  return report;
}

LiveRunReport runLoopbackScenario(const std::string& registryName,
                                  const LiveRunOptions& options) {
  return runLoopbackScenario(scenario::findScenario(registryName), options);
}

std::string liveRunJson(const LiveRunReport& report) {
  util::JsonWriter json;
  json.beginObject();
  json.key("scenario").value(report.scenario);
  json.key("heuristic").value(report.heuristic);
  json.key("time_scale").value(report.timeScale);
  json.key("tasks").value(report.tasks);
  json.key("completed").value(report.completed);
  json.key("lost").value(report.lost);
  json.key("resubmissions").value(report.resubmissions);
  json.key("churn_applied");
  json.beginObject();
  json.key("joins").value(report.churnApplied.joins);
  json.key("leaves").value(report.churnApplied.leaves);
  json.key("crashes").value(report.churnApplied.crashes);
  json.key("slowdowns").value(report.churnApplied.slowdowns);
  json.key("links").value(report.churnApplied.links);
  json.endObject();
  json.key("generated_churn").value(report.generatedChurn);
  json.key("churn_skipped").value(report.churnSkipped);
  json.key("churn_digest").value(report.churnDigest);
  json.key("churn_planned");
  json.beginObject();
  json.key("crashes").value(report.churnPlanned.crashes);
  json.key("slowdowns").value(report.churnPlanned.slowdowns);
  json.key("links").value(report.churnPlanned.linkEvents);
  json.key("mean_downtime").value(report.churnPlanned.meanDowntime);
  json.key("max_concurrent_down").value(report.churnPlanned.maxConcurrentDown);
  json.key("max_dead_domains").value(report.churnPlanned.maxConcurrentDeadDomains);
  json.endObject();
  json.key("servers_started").value(report.serversStarted);
  json.key("servers_retired").value(report.serversRetired);
  json.key("agents");
  json.beginObject();
  json.key("deployed").value(report.agentsDeployed);
  json.key("mode").value(report.agentMode);
  json.key("crashes").value(report.agentCrashes);
  json.key("restarts").value(report.agentRestarts);
  json.key("warm_start_rows").value(report.warmStartRows);
  json.key("peer_syncs").value(report.peerSyncs);
  json.key("peer_rows_adopted").value(report.peerRowsAdopted);
  json.key("client_failovers").value(report.clientFailovers);
  json.key("per_agent");
  json.beginArray();
  for (const AgentShare& share : report.perAgent) {
    json.beginObject();
    json.key("name").value(share.name);
    json.key("tasks").value(share.tasks);
    json.key("completed").value(share.completed);
    json.key("lost").value(share.lost);
    json.key("resubmissions").value(share.resubmissions);
    json.endObject();
  }
  json.endArray();
  json.endObject();
  json.key("mesh");
  json.beginObject();
  json.key("forwards").value(report.meshForwards);
  json.key("denies").value(report.meshDenies);
  json.key("steals").value(report.meshSteals);
  json.key("parked").value(report.meshParked);
  json.key("client_denies").value(report.clientDenies);
  json.endObject();
  json.key("wall_seconds").value(report.wallSeconds);
  json.key("sim_end_time").value(report.simEndTime);
  json.key("timed_out").value(report.timedOut);
  json.endObject();
  return json.str();
}

}  // namespace casched::net
