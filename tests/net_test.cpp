// Tests of the distributed runtime (src/net): daemons speaking the wire
// protocol over real TCP loopback sockets, mostly pumped cooperatively so
// every assertion runs on one thread; the NetLoop cases drive the blocking
// run() loops on their own threads instead. Covers heartbeat-timeout retirement, fault-
// tolerant re-submission after a server crash mid-task, live churn, and
// count-level agreement between a live loopback run and the simulator on the
// same registry scenario.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "net/agent_daemon.hpp"
#include "net/client_driver.hpp"
#include "net/loopback.hpp"
#include "net/server_daemon.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "simcore/engine.hpp"
#include "workload/task_types.hpp"

namespace casched::net {
namespace {

/// Round-robins the given pumps until `pred` holds or `wallSeconds` elapse;
/// true when the predicate was reached.
bool pumpUntil(const std::vector<std::function<void()>>& pumps,
               const std::function<bool()>& pred, double wallSeconds) {
  const WallDeadline deadline(wallSeconds);
  while (!pred()) {
    if (deadline.passed()) return false;
    for (const auto& pump : pumps) pump();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(Simulator, AdvanceToMovesClockWithoutEvents) {
  simcore::Simulator sim;
  sim.advanceTo(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  int fired = 0;
  sim.scheduleAt(12.0, [&] { ++fired; });
  sim.advanceTo(11.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 11.0);
  sim.advanceTo(15.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  // Going backwards is a no-op.
  sim.advanceTo(3.0);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
}

TEST(NetRuntime, RegistrationOverTcp) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "alpha";
  NetServerDaemon server(serverConfig, clock);
  server.connect();

  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1 && server.registered(); },
                        5.0));
  EXPECT_TRUE(agent.serverKnown("alpha"));
  EXPECT_TRUE(agent.agent().htm().hasServer("alpha"));
  EXPECT_FALSE(agent.serverRetired("alpha"));
}

TEST(NetRuntime, StatsRequestReturnsTheMetricsRegistryOverTheWire) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.agentName = "agent-stats";
  AgentDaemon agent(agentConfig, clock);

  auto operatorLink = wire::TcpTransport::connect("127.0.0.1", agent.port());
  wire::StatsRequestMsg request;
  request.format = "prometheus";
  operatorLink->send(wire::MessageType::kStatsRequest, wire::encode(request));

  wire::StatsReplyMsg reply;
  bool got = false;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           operatorLink->poll([&](wire::Frame frame) {
                             if (frame.type != wire::MessageType::kStatsReply) return;
                             reply = wire::decodeStatsReply(frame.payload);
                             got = true;
                           });
                         }},
                        [&] { return got; }, 5.0));
  EXPECT_EQ(reply.agentName, "agent-stats");
  EXPECT_EQ(reply.format, "prometheus");
  // The wire counters instrument this very exchange, so the body is never
  // empty and always carries them.
  EXPECT_NE(reply.body.find("casched_net_frames_in_total"), std::string::npos);

  // An unknown format comes back as a typed error naming the valid ones,
  // without dropping the connection.
  request.format = "xml";
  operatorLink->send(wire::MessageType::kStatsRequest, wire::encode(request));
  got = false;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           operatorLink->poll([&](wire::Frame frame) {
                             if (frame.type != wire::MessageType::kStatsReply) return;
                             reply = wire::decodeStatsReply(frame.payload);
                             got = true;
                           });
                         }},
                        [&] { return got; }, 5.0));
  EXPECT_EQ(reply.format, "error");
  EXPECT_NE(reply.body.find("unknown stats format 'xml'"), std::string::npos);
  EXPECT_FALSE(operatorLink->closed());
}

TEST(NetRuntime, LiveNameCollisionIsRejected) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "taken";
  NetServerDaemon original(serverConfig, clock);
  original.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { original.runOnce(); }},
                        [&] { return original.registered(); }, 5.0));

  // A second daemon claiming the same live name must be refused; the
  // original registration keeps working.
  NetServerDaemon impostor(serverConfig, clock);
  impostor.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { original.runOnce(); },
                         [&] { impostor.runOnce(); }},
                        [&] { return !impostor.connected(); }, 5.0));
  EXPECT_FALSE(impostor.registered());
  EXPECT_EQ(agent.liveServerCount(), 1u);
  EXPECT_TRUE(original.connected());
}

TEST(NetRuntime, HeartbeatTimeoutRetiresSilentServer) {
  const PacedClock clock(1000.0);  // 20 sim seconds pass in 20 wall ms
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.heartbeatTimeout = 20.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "ghost";
  serverConfig.heartbeatPeriod = 2.0;
  NetServerDaemon server(serverConfig, clock);
  server.connect();

  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // The server process "stalls": no more pumping, no more heartbeats. The
  // agent's missed-report deadline must retire the HTM row.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                        [&] { return agent.serverRetired("ghost"); }, 5.0));
  EXPECT_FALSE(agent.agent().htm().hasServer("ghost"));
  EXPECT_EQ(agent.retiredServerCount(), 1u);
  EXPECT_EQ(agent.liveServerCount(), 0u);

  // Retirement closed the link, so when the stalled daemon resumes it
  // notices, re-dials and re-registers - the row is revived.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return !agent.serverRetired("ghost") &&
                                     agent.agent().htm().hasServer("ghost"); },
                        5.0));
  EXPECT_EQ(agent.liveServerCount(), 1u);
}

TEST(NetRuntime, ReconnectAfterRetirementRevivesServer) {
  const PacedClock clock(1000.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.heartbeatTimeout = 15.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "phoenix";
  {
    NetServerDaemon first(serverConfig, clock);
    first.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { first.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));
  }  // transport closes; heartbeats stop
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                        [&] { return agent.serverRetired("phoenix"); }, 5.0));

  // A fresh daemon under the same name re-registers and revives the row.
  NetServerDaemon second(serverConfig, clock);
  second.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { second.runOnce(); }},
                        [&] { return !agent.serverRetired("phoenix") &&
                                     second.registered(); },
                        5.0));
  EXPECT_TRUE(agent.agent().htm().hasServer("phoenix"));
  EXPECT_EQ(agent.liveServerCount(), 1u);
}

TEST(NetRuntime, CrashMidTaskTriggersResubmissionOverTheWire) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig configA;
  configA.agentPort = agent.port();
  configA.machine.name = "doomed";
  NetServerDaemon serverA(configA, clock);
  serverA.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // Two long tasks; with only "doomed" registered they must land there.
  workload::Metatask metatask;
  metatask.name = "crashy";
  for (std::uint64_t i = 0; i < 2; ++i) {
    workload::TaskInstance task;
    task.index = i;
    task.arrival = 0.0;
    task.type = workload::makeSyntheticType("crash-test", 0.0, 50.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
  }
  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);

  const std::vector<std::function<void()>> all = {
      [&] { agent.runOnce(); }, [&] { serverA.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(all, [&] { return serverA.activeTasks() == 2; }, 5.0));

  // A second server joins, then the first crashes with both tasks in flight.
  NetServerConfig configB;
  configB.agentPort = agent.port();
  configB.machine.name = "rescue";
  NetServerDaemon serverB(configB, clock);
  serverB.connect();
  const std::vector<std::function<void()>> withB = {
      [&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
      [&] { serverB.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(withB, [&] { return agent.liveServerCount() == 2; }, 5.0));
  ASSERT_TRUE(serverA.crash());

  ASSERT_TRUE(pumpUntil(withB, [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 2u);
  EXPECT_EQ(client.failedCount(), 0u);

  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_GE(countResubmissions(outcomes), 2u);
  for (const metrics::TaskOutcome& o : outcomes) {
    EXPECT_EQ(o.status, metrics::TaskStatus::kCompleted);
    EXPECT_EQ(o.server, "rescue");  // re-submitted away from the crashed server
  }
}

TEST(NetRuntime, GracefulLeaveDrainsTasksLongerThanHeartbeatTimeout) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  agentConfig.heartbeatTimeout = 20.0;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "leaver";
  serverConfig.heartbeatPeriod = 2.0;
  NetServerDaemon server(serverConfig, clock);
  server.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1; }, 5.0));

  // One task three times longer than the heartbeat timeout, then leave while
  // it runs: the drain must outlive the deadline and still complete.
  workload::Metatask metatask;
  metatask.name = "slow-drain";
  workload::TaskInstance task;
  task.index = 0;
  task.arrival = 0.0;
  task.type = workload::makeSyntheticType("drain-test", 0.0, 60.0, 0.0, 0.0);
  metatask.tasks.push_back(task);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);
  const std::vector<std::function<void()>> all = {
      [&] { agent.runOnce(); }, [&] { server.runOnce(); }, [&] { client.runOnce(); }};
  ASSERT_TRUE(pumpUntil(all, [&] { return server.activeTasks() == 1; }, 5.0));

  server.leave();
  ASSERT_TRUE(pumpUntil(all, [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 1u);
  // The drained daemon closes its link after the idle linger window.
  ASSERT_TRUE(pumpUntil(all, [&] { return server.left(); }, 5.0));
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].attempts, 1);  // drained, not resubmitted
}

TEST(NetRuntime, LeaverDyingMidDrainFallsBackToResubmission) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  NetServerConfig configB;
  configB.agentPort = agent.port();
  configB.machine.name = "backup";
  NetServerDaemon serverB(configB, clock);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);

  {
    NetServerConfig configA;
    configA.agentPort = agent.port();
    configA.machine.name = "quitter";
    NetServerDaemon serverA(configA, clock);
    serverA.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));

    workload::Metatask metatask;
    metatask.name = "mid-drain-death";
    workload::TaskInstance task;
    task.index = 0;
    task.arrival = 0.0;
    task.type = workload::makeSyntheticType("drain-death", 0.0, 80.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
    client.connect();
    client.start(metatask);
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { client.runOnce(); }},
                          [&] { return serverA.activeTasks() == 1; }, 5.0));

    serverB.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { serverB.runOnce(); }},
                          [&] { return agent.liveServerCount() == 2; }, 5.0));

    // Announce the departure, wait until the agent has digested the
    // down-notice (its core in-flight view empties into the drain record),
    // then "die" mid-drain: the daemon goes out of scope, closing the link
    // without completing the task.
    serverA.leave();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.agent().inFlightTasks("quitter").empty(); },
                          5.0));
  }

  // The agent must recover the interrupted drain via its own record.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverB.runOnce(); },
                         [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 1u);
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].server, "backup");
  EXPECT_GE(outcomes[0].attempts, 2);
}

TEST(NetRuntime, DeadServerProcessAbandonsTasksToResubmission) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);

  NetServerConfig configB;
  configB.agentPort = agent.port();
  configB.machine.name = "survivor";
  NetServerDaemon serverB(configB, clock);

  {
    NetServerConfig configA;
    configA.agentPort = agent.port();
    configA.machine.name = "vanisher";
    NetServerDaemon serverA(configA, clock);
    serverA.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); }},
                          [&] { return agent.liveServerCount() == 1; }, 5.0));

    workload::Metatask metatask;
    metatask.name = "abandoned";
    for (std::uint64_t i = 0; i < 2; ++i) {
      workload::TaskInstance task;
      task.index = i;
      task.arrival = 0.0;
      task.type = workload::makeSyntheticType("abandon-test", 0.0, 100.0, 0.0, 0.0);
      metatask.tasks.push_back(task);
    }
    client.connect();
    client.start(metatask);
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { client.runOnce(); }},
                          [&] { return serverA.activeTasks() == 2; }, 5.0));

    serverB.connect();
    ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverA.runOnce(); },
                           [&] { serverB.runOnce(); }},
                          [&] { return agent.liveServerCount() == 2; }, 5.0));
  }  // serverA's process "dies": its socket closes without any victim report

  // The agent must fail the abandoned tasks itself and re-submit them to the
  // survivor; the client still gets both completions.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { serverB.runOnce(); },
                         [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 10.0));
  EXPECT_EQ(client.completedCount(), 2u);
  const std::vector<metrics::TaskOutcome> outcomes = agent.agent().collectOutcomes();
  EXPECT_GE(countResubmissions(outcomes), 2u);
  for (const metrics::TaskOutcome& o : outcomes) {
    EXPECT_EQ(o.server, "survivor");
  }
}

TEST(NetRuntime, LiveLoopbackScenarioMatchesSimulatorCounts) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.churnApplied.leaves, 1u);
  EXPECT_EQ(live.churnApplied.joins, 1u);
  EXPECT_EQ(live.serversStarted, 4u);  // 3 initial + 1 joiner

  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("live-loopback"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.churn.leaves, 1u);
  EXPECT_EQ(sim.churn.joins, 1u);

  // The acceptance bar: completed / lost / resubmitted counts agree between
  // the live TCP deployment and the simulator on the same compiled spec.
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.resubmissions, countResubmissions(sim.tasks));

  // And the JSON record carries the counts.
  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"completed\": 24"), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"live-loopback\""), std::string::npos);
}

TEST(NetRuntime, TimedOutRunCountsEveryUnfinishedTaskAsLost) {
  // The client is the authority on terminal counts: a task still unsent, in
  // flight or running when the wall deadline passes is lost, not uncounted.
  // (Arrivals span ~120 simulated seconds; the deadline stops the run at ~10.)
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 20.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 0.5;
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);

  ASSERT_TRUE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_LT(live.completed, live.tasks);
  EXPECT_EQ(live.completed + live.lost, live.tasks);
}

TEST(NetRuntime, CoalescingReducesWireFrameCountsMeasurably) {
  // The v5 efficiency lock: daemons queue their per-poll-cycle outbound
  // traffic, so bursts of same-type messages (schedule requests due at once,
  // load reports + terminal relays from one advanceTo, sync chunks) share
  // kCoalesced frames. The process-wide transport counters must show fewer
  // wire frames than logical messages, with at least one coalesced frame.
  auto& reg = obs::Registry::global();
  const std::uint64_t framesBefore = reg.counter("casched_net_frames_out_total").value();
  const std::uint64_t messagesBefore =
      reg.counter("casched_net_messages_out_total").value();
  const std::uint64_t coalescedBefore =
      reg.counter("casched_net_coalesced_frames_out_total").value();

  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);
  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);

  const std::uint64_t frames =
      reg.counter("casched_net_frames_out_total").value() - framesBefore;
  const std::uint64_t messages =
      reg.counter("casched_net_messages_out_total").value() - messagesBefore;
  const std::uint64_t coalesced =
      reg.counter("casched_net_coalesced_frames_out_total").value() - coalescedBefore;
  EXPECT_GT(coalesced, 0u);
  EXPECT_LT(frames, messages) << "coalescing saved no frames: " << frames
                              << " frames for " << messages << " messages";
}

TEST(NetRuntime, SimAndLiveProduceTheSamePerTaskSpanChains) {
  // The observability acceptance bar: because every lifecycle span except
  // kStart is recorded inside the shared cas::Agent core (and kStart by the
  // machine-side submit hook on both sides), the live TCP deployment and the
  // simulator emit the SAME per-task phase chain for the same scenario seed.
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;

  trace.enable(1 << 16);
  const LiveRunReport live = runLoopbackScenario("live-loopback", options);
  const auto liveChains = obs::taskPhaseChains(trace.snapshot());
  const std::uint64_t liveDropped = trace.dropped();

  trace.enable(1 << 16);  // reset the ring for the simulator's spans
  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("live-loopback"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  const auto simChains = obs::taskPhaseChains(trace.snapshot());
  trace.disable();

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(liveDropped, 0u);
  EXPECT_EQ(trace.dropped(), 0u);
  ASSERT_EQ(liveChains.size(), compiled.metatask.size());
  ASSERT_EQ(simChains.size(), compiled.metatask.size());
  for (const auto& [taskId, chain] : simChains) {
    ASSERT_TRUE(liveChains.count(taskId) != 0) << "task " << taskId;
    EXPECT_EQ(liveChains.at(taskId), chain) << "task " << taskId;
  }
  // Spot-check the canonical happy-path chain shape.
  EXPECT_EQ(simChains.begin()->second, "submit>predict>decide>dispatch>start>complete");
  (void)sim;
}

TEST(NetRuntime, GeneratedChurnReplaysIdenticallyLiveAndSimulated) {
  // The acceptance bar for the stochastic churn engine: the live TCP
  // deployment and the simulator compile one scenario + seed into the SAME
  // generated fault timeline (equal digests), and under that churn - Markov
  // flapping killing in-flight work - the fault-tolerant run completes every
  // task on both sides.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 45.0;
  const LiveRunReport live = runLoopbackScenario("churn/flapping", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_GT(live.generatedChurn, 0u);
  EXPECT_EQ(live.churnSkipped, 0u);  // every dispatched event found its daemon
  EXPECT_GE(live.churnPlanned.crashes, 1u);
  EXPECT_GT(live.churnPlanned.meanDowntime, 0.0);

  const scenario::CompiledScenario compiled =
      scenario::compileScenario(scenario::findScenario("churn/flapping"), options.seed);
  EXPECT_EQ(compiled.generatedChurn, live.generatedChurn);
  EXPECT_EQ(scenario::churnTimelineDigest(compiled.churn), live.churnDigest);

  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.lost, 0u);
  EXPECT_EQ(live.completed, compiled.metatask.size());

  // The JSON record proves the replay (digest + planned summary travel).
  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"churn_digest\""), std::string::npos);
  EXPECT_NE(json.find("\"generated_churn\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_downtime\""), std::string::npos);
}

TEST(NetRuntime, TraceDrivenFaultsReplayIdenticallyLiveAndSimulated) {
  // The trace-driven [faults] extension holds the same invariant as the
  // stochastic engine: a recorded down/up timeline (plus the scenario's
  // diurnally-modulated crash process) compiles into ONE timeline both sides
  // replay - equal FNV digests, equal counts, zero lost under fault
  // tolerance.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 11;
  options.wallTimeoutSeconds = 45.0;
  const LiveRunReport live = runLoopbackScenario("churn/trace_replay", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_GT(live.generatedChurn, 0u);
  EXPECT_EQ(live.churnSkipped, 0u);
  EXPECT_GE(live.churnPlanned.crashes, 3u);  // at least the replayed trace

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("churn/trace_replay"), options.seed);
  EXPECT_EQ(compiled.generatedChurn, live.generatedChurn);
  EXPECT_EQ(scenario::churnTimelineDigest(compiled.churn), live.churnDigest);

  // The trace rows themselves are in the compiled timeline: grid-1 down at
  // t=10 for 18 s is the first recorded event of the scenario's trace.
  bool sawTraceCrash = false;
  for (const cas::ChurnEvent& e : compiled.churn) {
    if (e.server == "grid-1" && e.time == 10.0 && e.duration == 18.0) {
      sawTraceCrash = true;
    }
  }
  EXPECT_TRUE(sawTraceCrash);

  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.lost, 0u);
  EXPECT_EQ(live.completed, compiled.metatask.size());
}

TEST(MultiAgent, MutualPeerConfigurationKeepsOneLinkPerPair) {
  // Operators naturally configure both agents with each other's address; the
  // hello exchange must collapse the resulting double link to the one dialed
  // by the lexicographically smaller name, or every sync would run twice.
  const PacedClock clock(1000.0);
  AgentDaemonConfig configA;
  configA.agentName = "alpha";
  configA.syncPeriod = 2.0;
  AgentDaemonConfig configB = configA;
  configB.agentName = "beta";
  AgentDaemon alpha(configA, clock);
  AgentDaemon beta(configB, clock);
  alpha.addPeer("127.0.0.1:" + std::to_string(beta.port()));
  beta.addPeer("127.0.0.1:" + std::to_string(alpha.port()));

  const std::vector<std::function<void()>> pumps = {[&] { alpha.runOnce(); },
                                                    [&] { beta.runOnce(); }};
  ASSERT_TRUE(pumpUntil(pumps,
                        [&] {
                          return alpha.syncsReceived() > 2 && beta.syncsReceived() > 2 &&
                                 alpha.connectedPeerCount() == 1 &&
                                 beta.connectedPeerCount() == 1;
                        },
                        5.0));
  // And the single link is stable: three more sync rounds each way never
  // resurrect a duplicate.
  const std::uint64_t alphaSyncs = alpha.syncsReceived();
  const std::uint64_t betaSyncs = beta.syncsReceived();
  ASSERT_TRUE(pumpUntil(pumps,
                        [&] {
                          return alpha.syncsReceived() >= alphaSyncs + 3 &&
                                 beta.syncsReceived() >= betaSyncs + 3;
                        },
                        30.0));
  EXPECT_EQ(alpha.connectedPeerCount(), 1u);
  EXPECT_EQ(beta.connectedPeerCount(), 1u);
}

TEST(MultiAgent, ReplicatedDeploymentMatchesSimulatorCounts) {
  // Acceptance bar: a 2-agent replicated deployment with no churn behaves
  // exactly like the single-agent one - every task flows through the primary
  // while the replica stays warm via kAgentSync - so its completed / lost /
  // resubmitted counts equal the simulator's on the same compiled spec.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario("multi-agent-loopback", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.agentsDeployed, 2u);
  EXPECT_EQ(live.agentMode, "replicated");
  EXPECT_EQ(live.agentCrashes, 0u);
  // The replica actually replicated: syncs flowed and it adopted rows for
  // servers it does not serve.
  EXPECT_GT(live.peerSyncs, 0u);
  EXPECT_GT(live.peerRowsAdopted, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  EXPECT_EQ(live.perAgent[0].tasks, 24u);  // primary saw everything
  EXPECT_EQ(live.perAgent[1].tasks, 0u);   // replica stayed passive

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("multi-agent-loopback"), options.seed);
  EXPECT_EQ(compiled.agents.count, 2u);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.lost, sim.lostCount());
  EXPECT_EQ(live.resubmissions, countResubmissions(sim.tasks));

  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"deployed\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"replicated\""), std::string::npos);
  EXPECT_NE(json.find("\"per_agent\""), std::string::npos);
}

TEST(MultiAgent, AgentCrashFailsOverWithZeroLostTasks) {
  // Acceptance bar: the primary agent crashes mid-run with work in flight;
  // servers re-dial the replica (which adopted the crashed agent's HTM rows
  // from its snapshot syncs), the client fails over its open tasks, and the
  // run still finishes with zero permanently-lost tasks.
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("multi-agent-failover", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.tasks, 24u);
  EXPECT_EQ(live.agentCrashes, 1u);
  EXPECT_EQ(live.agentRestarts, 0u);
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
  // The snapshot existed on the survivor before the crash...
  EXPECT_GT(live.peerSyncs, 0u);
  EXPECT_GT(live.peerRowsAdopted, 0u);
  // ...and the failover actually exercised both migration paths.
  EXPECT_GT(live.clientFailovers, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  EXPECT_GT(live.perAgent[1].tasks, 0u);  // the survivor scheduled work
}

TEST(MultiAgent, RestartedAgentWarmStartsFromSnapshotFile) {
  // Same failover scenario, but the crashed agent comes back 20 simulated
  // seconds later: the fresh daemon must warm-start from the snapshot file
  // its previous incarnation kept writing. The migrated deployment stays on
  // the survivor (sticky client primary), so the run still loses nothing.
  scenario::ScenarioSpec spec = scenario::findScenario("multi-agent-failover");
  ASSERT_EQ(spec.agents.events.size(), 1u);
  spec.agents.events[0].restartAfter = 20.0;

  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario(spec, options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.agentCrashes, 1u);
  EXPECT_EQ(live.agentRestarts, 1u);
  EXPECT_GT(live.warmStartRows, 0u);  // the snapshot file warm-started it
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
}

TEST(MultiAgent, PartitionedDeploymentSpreadsTasksAcrossAgents) {
  // Partitioned mode: each agent owns half the servers, the client spreads
  // tasks round-robin, and load digests give every agent a view of the
  // partitions it does not own.
  scenario::ScenarioSpec spec = scenario::findScenario("multi-agent-loopback");
  spec.agents.mode = "partitioned";

  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 30.0;
  const LiveRunReport live = runLoopbackScenario(spec, options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.completed, 24u);
  EXPECT_EQ(live.lost, 0u);
  ASSERT_EQ(live.perAgent.size(), 2u);
  // Round-robin: both partitions scheduled real work.
  EXPECT_GT(live.perAgent[0].tasks, 0u);
  EXPECT_GT(live.perAgent[1].tasks, 0u);
  EXPECT_EQ(live.perAgent[0].tasks + live.perAgent[1].tasks, 24u);
}

// --- agent mesh over live sockets ----------------------------------------

TEST(MeshLive, SaturatedRescueAgreesWithSimulatorCounts) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 7;
  options.wallTimeoutSeconds = 90.0;
  const LiveRunReport live = runLoopbackScenario("mesh/saturated_rescue", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  EXPECT_GT(live.meshForwards, 0u);
  EXPECT_EQ(live.clientDenies, 0u);

  // The acceptance bar: zero lost tasks on both sides at the same seed, which
  // makes the completed counts equal by construction - and locks them.
  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("mesh/saturated_rescue"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.lostCount(), 0u);
  EXPECT_EQ(live.completed, sim.completedCount());
  EXPECT_EQ(live.tasks, compiled.metatask.size());

  // Rescue really happened over the wire too: some of the saturated
  // partition's tasks ran on the other rack's servers. (agent-0 owns server
  // 0 only; the flat client round-robins, so even metatask indices land on
  // agent-0 first.)
  std::set<std::string> rackB;
  for (const scenario::RackSpec& rack : compiled.mesh.racks) {
    if (rack.agentIndex != 1) continue;
    for (const std::size_t s : rack.servers) {
      rackB.insert(compiled.testbed.servers.at(s).name);
    }
  }
  std::size_t rescued = 0;
  for (const metrics::TaskOutcome& o : live.outcomes) {
    if (o.index % 2 != 0) continue;
    if (o.status == metrics::TaskStatus::kCompleted && rackB.count(o.server) != 0) {
      ++rescued;
    }
  }
  EXPECT_GT(rescued, 0u) << "no task of the saturated partition was rescued";
  // Outcomes are listed by task index, whichever agent placed them.
  for (std::size_t i = 1; i < live.outcomes.size(); ++i) {
    EXPECT_LT(live.outcomes[i - 1].index, live.outcomes[i].index) << "at position " << i;
  }
}

TEST(MeshLive, HierarchyRootRoutesEverythingToTheLeaves) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 11;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("mesh/hierarchy_4agent", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  // The root owns no rack: every request takes exactly one hop to a leaf.
  EXPECT_EQ(live.meshForwards, live.tasks);
  EXPECT_EQ(live.clientDenies, 0u);

  const scenario::CompiledScenario compiled = scenario::compileScenario(
      scenario::findScenario("mesh/hierarchy_4agent"), options.seed);
  const metrics::RunResult sim = scenario::runScenario(compiled, options.heuristic);
  EXPECT_EQ(sim.lostCount(), 0u);
  EXPECT_EQ(live.completed, sim.completedCount());

  const std::string json = liveRunJson(live);
  EXPECT_NE(json.find("\"mesh\""), std::string::npos);
  EXPECT_NE(json.find("\"forwards\": 24"), std::string::npos);
}

TEST(MeshLive, WorkStealingDrainsTheRootQueueOverTheWire) {
  LiveRunOptions options;
  options.heuristic = "msf";
  options.timeScale = 300.0;
  options.seed = 3;
  options.wallTimeoutSeconds = 60.0;
  const LiveRunReport live = runLoopbackScenario("mesh/steal_tree", options);

  ASSERT_FALSE(live.timedOut);
  EXPECT_EQ(live.lost, 0u);
  // Forwarding is off: the serverless root parks everything; the leaves pull
  // every task off its queue over kStealRequest/kStealGrant.
  EXPECT_EQ(live.meshForwards, 0u);
  EXPECT_EQ(live.meshParked, live.tasks);
  EXPECT_EQ(live.meshSteals, live.tasks);
  EXPECT_EQ(live.completed, live.tasks);
}

// --- explicit deny instead of a silent client timeout --------------------

TEST(NetRuntime, AgentWithNoServersDeniesInsteadOfTimingOut) {
  const PacedClock clock(500.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  // Fault tolerance was the silent path: the request sat in the no-server
  // retry loop until the client gave up. Now the daemon answers immediately.
  agentConfig.faultTolerance = true;
  AgentDaemon agent(agentConfig, clock);

  workload::Metatask metatask;
  metatask.name = "denied";
  workload::TaskInstance task;
  task.index = 0;
  task.arrival = 0.0;
  task.type = workload::makeSyntheticType("orphan", 0.0, 1.0, 0.0, 0.0);
  metatask.tasks.push_back(task);

  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  client.start(metatask);

  // The deny must settle the task promptly - seconds of wall budget, not the
  // fault-tolerance retry horizon.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { client.runOnce(); }},
                        [&] { return client.done(); }, 5.0));
  EXPECT_EQ(client.completedCount(), 0u);
  EXPECT_EQ(client.failedCount(), 1u);
  EXPECT_EQ(client.scheduleDenies(), 1u);
}

// --- dynamic resolver ----------------------------------------------------

TEST(NetRuntime, ResolverLearnsPeersAndReranksPastADeadAgent) {
  const PacedClock clock(200.0);

  // Agent B first (its port seeds A's peer list); A dials B, so A's probe
  // replies gossip B's dialable address to the client.
  AgentDaemonConfig configB;
  configB.heuristic = "mct";
  configB.faultTolerance = true;
  configB.agentName = "agent-b";
  auto agentB = std::make_unique<AgentDaemon>(configB, clock);

  AgentDaemonConfig configA;
  configA.heuristic = "mct";
  configA.faultTolerance = true;
  configA.agentName = "agent-a";
  configA.peers.push_back("127.0.0.1:" + std::to_string(agentB->port()));
  auto agentA = std::make_unique<AgentDaemon>(configA, clock);

  NetServerConfig serverConfigA;
  serverConfigA.agentPort = agentA->port();
  serverConfigA.machine.name = "alpha";
  NetServerDaemon serverA(serverConfigA, clock);
  serverA.connect();
  NetServerConfig serverConfigB;
  serverConfigB.agentPort = agentB->port();
  serverConfigB.machine.name = "bravo";
  NetServerDaemon serverB(serverConfigB, clock);
  serverB.connect();

  const auto pumpAll = [&](ClientDriver* client) {
    return std::vector<std::function<void()>>{
        [&] {
          if (agentA) agentA->runOnce();
          if (agentB) agentB->runOnce();
        },
        [&] { serverA.runOnce(); },
        [&] { serverB.runOnce(); },
        [&, client] {
          if (client != nullptr) client->runOnce();
        }};
  };
  ASSERT_TRUE(pumpUntil(pumpAll(nullptr),
                        [&] {
                          return agentA->liveServerCount() == 1 &&
                                 agentB->liveServerCount() == 1 &&
                                 agentA->connectedPeerCount() == 1;
                        },
                        5.0));

  // The client knows only agent A; gossip must teach it agent B.
  ClientConfig clientConfig;
  clientConfig.agentPorts.push_back(agentA->port());
  clientConfig.resolver = true;
  clientConfig.probePeriod = 2.0;
  ClientDriver client(clientConfig, clock);
  client.connect();

  workload::Metatask metatask;
  metatask.name = "resolver-churn";
  for (std::uint64_t i = 0; i < 6; ++i) {
    workload::TaskInstance task;
    task.index = i;
    task.arrival = static_cast<double>(i) * 8.0;
    task.type = workload::makeSyntheticType("probe-work", 0.0, 2.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
  }
  client.start(metatask);

  auto pumps = pumpAll(&client);
  ASSERT_TRUE(pumpUntil(pumps, [&] { return client.completedCount() >= 2; }, 10.0));
  EXPECT_GT(client.resolverStats().probes, 0u);
  ASSERT_EQ(client.resolverStats().learnedPeers, 1u)
      << "gossip never taught the client about agent B";

  // Kill the configured agent mid-run: the resolver must converge on the
  // learned one without losing a single task.
  agentA.reset();
  ASSERT_TRUE(pumpUntil(pumps, [&] { return client.done(); }, 15.0));
  EXPECT_EQ(client.completedCount(), 6u);
  EXPECT_EQ(client.failedCount(), 0u);
  EXPECT_GE(client.resolverStats().reranks, 1u);
  EXPECT_EQ(client.bestRankedLink(), 1u);  // the learned agent-b link
}

// --- run() loops: one readiness wait per turn ------------------------------

std::uint64_t loopTurns(const std::string& daemon) {
  return obs::Registry::global()
      .counter("casched_net_loop_turns_total", "", {{"daemon", daemon}})
      .value();
}

obs::Histogram& loopWaitSeconds(const std::string& daemon) {
  return obs::Registry::global().histogram("casched_net_loop_wait_seconds", {1.0}, "",
                                           {{"daemon", daemon}});
}

/// A plain loopback TCP connection that sends nothing until the test does.
int rawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "cannot connect to 127.0.0.1:" << port;
  }
  return fd;
}

TEST(NetLoop, DaemonsOnTheirRunLoopsServeAClientCampaign) {
  const PacedClock clock(100.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "msf";
  AgentDaemon agent(agentConfig, clock);
  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "looped";
  NetServerDaemon server(serverConfig, clock);
  server.connect();
  // Registration is set-up: the client's first request must find a server.
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1 && server.registered(); },
                        5.0));

  workload::Metatask metatask;
  metatask.name = "run-loops";
  for (std::uint64_t i = 0; i < 12; ++i) {
    workload::TaskInstance task;
    task.index = i;
    task.arrival = 0.5 * static_cast<double>(i);
    task.type = workload::makeSyntheticType("loop-work", 0.0, 1.0, 0.0, 0.0);
    metatask.tasks.push_back(task);
  }
  const std::uint64_t agentTurns = loopTurns("agent");
  const std::uint64_t serverTurns = loopTurns("server");
  const std::uint64_t clientTurns = loopTurns("client");

  // From here on nothing is pumped by hand: every daemon is on its run().
  std::atomic<bool> stop{false};
  std::thread agentThread([&] { agent.run(stop); });
  std::thread serverThread([&] { server.run(stop); });
  ClientConfig clientConfig;
  clientConfig.agentPort = agent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  const std::atomic<bool> never{false};
  const bool finished = client.run(metatask, 20.0, never);
  stop.store(true);
  agentThread.join();
  serverThread.join();

  EXPECT_TRUE(finished);
  EXPECT_EQ(client.completedCount(), metatask.size());
  EXPECT_EQ(client.failedCount(), 0u);
  EXPECT_GT(loopTurns("agent"), agentTurns);
  EXPECT_GT(loopTurns("server"), serverTurns);
  EXPECT_GT(loopTurns("client"), clientTurns);
}

TEST(NetLoop, IdleAgentBlocksInsteadOfPolling) {
  const PacedClock clock(1.0);
  AgentDaemonConfig config;
  config.heuristic = "mct";
  AgentDaemon agent(config, clock);
  const std::uint64_t turns0 = loopTurns("agent");
  obs::Histogram& waits = loopWaitSeconds("agent");
  const std::uint64_t waits0 = waits.count();
  const double waited0 = waits.sum();

  std::atomic<bool> stop{false};
  std::thread loop([&] { agent.run(stop); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  loop.join();

  // Nothing is due and no socket speaks, so each wait runs to the stop cap:
  // about 30 turns. A loop that slept 500 us per turn would make about 550.
  const std::uint64_t turns = loopTurns("agent") - turns0;
  EXPECT_GE(turns, 1u);
  EXPECT_LE(turns, 60u);
  // One wait observed per turn, and the loop spent its time blocked.
  EXPECT_EQ(waits.count() - waits0, turns);
  EXPECT_GT(waits.sum() - waited0, 0.1);
}

TEST(NetLoop, RunReturnsWithinAFewStopCapsOfTheFlag) {
  // perfbench's set-up: no heartbeat deadline for an hour, no sync rounds,
  // so only the stop cap bounds each wait.
  const PacedClock clock(1.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "msf";
  agentConfig.heartbeatTimeout = 3600.0;
  agentConfig.syncPeriod = 0.0;
  AgentDaemon agent(agentConfig, clock);
  NetServerConfig serverConfig;
  serverConfig.agentPort = agent.port();
  serverConfig.machine.name = "stopper";
  serverConfig.heartbeatPeriod = 600.0;
  serverConfig.reportPeriod = 600.0;
  NetServerDaemon server(serverConfig, clock);
  server.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return agent.liveServerCount() == 1 && server.registered(); },
                        5.0));

  std::atomic<bool> stop{false};
  std::thread agentThread([&] { agent.run(stop); });
  std::thread serverThread([&] { server.run(stop); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto flagged = PacedClock::WallClock::now();
  stop.store(true);
  agentThread.join();
  serverThread.join();
  EXPECT_LT(PacedClock::WallClock::now() - flagged, 5 * kStopCap);
}

TEST(NetLoop, NextDeadlineCoversEveryAgentTimer) {
  constexpr double kTimeout = 3600.0;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  for (const double scale : {1.0, 200.0}) {
    SCOPED_TRACE("timeScale " + std::to_string(scale));
    const PacedClock clock(scale);
    // The run loop wakes at wallAt(deadline): never before the deadline on
    // the daemon's clock, and at most two clock ticks after it.
    const auto checkWake = [&](double deadline) {
      const PacedClock::WallClock::time_point wake = clock.wallAt(deadline);
      EXPECT_GE(clock.simAt(wake), deadline);
      const auto exact = clock.epoch() + std::chrono::duration_cast<PacedClock::WallClock::duration>(
                                             std::chrono::duration<double>(deadline / scale));
      EXPECT_LE(wake - exact, PacedClock::WallClock::duration(2));
    };
    AgentDaemonConfig config;
    config.heuristic = "mct";
    config.heartbeatTimeout = kTimeout;

    {  // A pending simulator event, such as a submission's control latency.
      AgentDaemon agent(config, clock);
      agent.runOnce();
      EXPECT_EQ(agent.nextDeadline(), kNever);
      const double due = agent.simulator().now() + 0.25;
      agent.simulator().scheduleAt(due, [] {});
      EXPECT_EQ(agent.nextDeadline(), due);
      checkWake(due);
    }
    {  // A never-identified connection, then a server's heartbeat deadline.
      AgentDaemon agent(config, clock);
      const double t0 = clock.simNow();
      auto link = wire::TcpTransport::connect("127.0.0.1", agent.port());
      agent.runOnce();
      const double t1 = clock.simNow();
      EXPECT_GE(agent.nextDeadline(), t0 + kTimeout);
      EXPECT_LE(agent.nextDeadline(), t1 + kTimeout);
      checkWake(agent.nextDeadline());

      const double t2 = clock.simNow();
      wire::RegisterMsg reg;
      reg.serverName = "beating";
      reg.bwInMBps = 10.0;
      reg.bwOutMBps = 10.0;
      reg.problems = {"*"};
      link->send(wire::MessageType::kRegister, wire::encode(reg));
      ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                            [&] { return agent.liveServerCount() == 1; }, 5.0));
      const double t3 = clock.simNow();
      EXPECT_GE(agent.nextDeadline(), t2 + kTimeout);
      EXPECT_LE(agent.nextDeadline(), t3 + kTimeout);
      checkWake(agent.nextDeadline());
    }
    {  // A mesh request deferred until a peer digest arrives, or it expires.
      AgentDaemonConfig meshConfig = config;
      meshConfig.meshEnabled = true;
      AgentDaemon agent(meshConfig, clock);
      auto client = wire::TcpTransport::connect("127.0.0.1", agent.port());
      client->send(wire::MessageType::kHeartbeat, wire::encode(wire::HeartbeatMsg{}));
      ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                            [&] { return agent.nextDeadline() == kNever; }, 5.0));
      const double t0 = clock.simNow();
      wire::ScheduleRequestMsg request;
      request.taskId = 1;
      request.problem = "nowhere";
      request.refSeconds = 1.0;
      client->send(wire::MessageType::kScheduleRequest, wire::encode(request));
      ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); }},
                            [&] { return agent.nextDeadline() != kNever; }, 5.0));
      const double t1 = clock.simNow();
      EXPECT_GE(agent.nextDeadline(), t0 + kTimeout);
      EXPECT_LE(agent.nextDeadline(), t1 + kTimeout);
      checkWake(agent.nextDeadline());
    }
  }
}

TEST(NetLoop, NextDeadlineCoversServerAndClientTimers) {
  const PacedClock clock(200.0);
  AgentDaemonConfig agentConfig;
  agentConfig.heuristic = "mct";
  auto agent = std::make_unique<AgentDaemon>(agentConfig, clock);

  // Server: its heartbeat is a simulator event, then, once the agent is
  // gone, the re-dial.
  NetServerConfig serverConfig;
  serverConfig.agentPort = agent->port();
  serverConfig.machine.name = "timed";
  serverConfig.heartbeatPeriod = 50.0;
  serverConfig.reportPeriod = 500.0;
  serverConfig.reconnectPeriod = 20.0;
  NetServerDaemon server(serverConfig, clock);
  const double connectedAt = clock.simNow();
  server.connect();
  ASSERT_TRUE(pumpUntil({[&] { agent->runOnce(); }, [&] { server.runOnce(); }},
                        [&] { return server.registered(); }, 5.0));
  EXPECT_GE(server.nextDeadline(), connectedAt);
  EXPECT_LE(server.nextDeadline(), clock.simNow() + serverConfig.heartbeatPeriod);
  agent.reset();
  ASSERT_TRUE(pumpUntil({[&] { server.runOnce(); }},
                        [&] { return server.nextDeadline() < connectedAt + 40.0; }, 5.0))
      << "the re-dial 20 s after the link dropped must undercut the heartbeat";

  // Client: the next arrival.
  AgentDaemon clientAgent(agentConfig, clock);
  ClientConfig clientConfig;
  clientConfig.agentPort = clientAgent.port();
  ClientDriver client(clientConfig, clock);
  client.connect();
  workload::Metatask metatask;
  workload::TaskInstance task;
  task.arrival = clock.simNow() + 30.0;
  task.type = workload::makeSyntheticType("later", 0.0, 1.0, 0.0, 0.0);
  metatask.tasks.push_back(task);
  client.start(metatask);
  EXPECT_EQ(client.nextDeadline(), task.arrival);
}

TEST(NetLoop, SilentMetricsScrapesNeverStallTheAgentTurn) {
  AgentDaemonConfig config;
  config.heuristic = "mct";
  config.metricsPort = 0;
  AgentDaemon agent(config, PacedClock(1.0));
  const std::uint16_t port = agent.metricsHttpPort();
  ASSERT_NE(port, 0);

  // Three scrapes that connect and never send their request: a turn that
  // waited 100 ms on each would take 300 ms.
  std::vector<int> silent;
  for (int i = 0; i < 3; ++i) silent.push_back(rawConnect(port));
  const auto start = PacedClock::WallClock::now();
  agent.runOnce();
  EXPECT_LT(PacedClock::WallClock::now() - start, std::chrono::milliseconds(100));

  // A real scrape behind them is still answered.
  const int scrape = rawConnect(port);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(scrape, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  bool answered = false;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           char buf[4096];
                           ssize_t n;
                           while ((n = ::recv(scrape, buf, sizeof(buf), MSG_DONTWAIT)) > 0) {
                             response.append(buf, static_cast<std::size_t>(n));
                           }
                           if (n == 0) answered = true;
                         }},
                        [&] { return answered; }, 5.0));
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u);

  // The silent ones are dropped, unanswered, once their request is overdue.
  std::size_t dropped = 0;
  ASSERT_TRUE(pumpUntil({[&] { agent.runOnce(); },
                         [&] {
                           for (int& fd : silent) {
                             char byte;
                             if (fd >= 0 && ::recv(fd, &byte, 1, MSG_DONTWAIT) == 0) {
                               ::close(fd);
                               fd = -1;
                               ++dropped;
                             }
                           }
                         }},
                        [&] { return dropped == 3; }, 10.0));
  ::close(scrape);
}

}  // namespace
}  // namespace casched::net
