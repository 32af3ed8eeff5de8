// Agent-mesh subsystem: [mesh] parsing/validation, the shared router policy,
// and the multi-agent mesh simulator (forwarding, hierarchy, work-stealing).
// The live-vs-sim count-agreement tests for the mesh registry entries live in
// net_test.cpp next to the other loopback harness tests.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "mesh/router.hpp"
#include "obs/metrics.hpp"
#include "scenario/generate.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "util/error.hpp"

namespace casched {
namespace {

using scenario::CompiledScenario;
using scenario::ScenarioSpec;

// --- router policy -------------------------------------------------------

mesh::RouterConfig routerConfig(bool forwarding, double threshold, bool stealing) {
  mesh::RouterConfig c;
  c.forwarding = forwarding;
  c.hopLimit = 1;
  c.overloadThreshold = threshold;
  c.stealing = stealing;
  return c;
}

TEST(MeshRouter, FeasibleAndCalmStaysLocal) {
  mesh::LocalView local;
  local.feasible = true;
  local.meanLoad = 0.5;
  const std::vector<mesh::PeerDigest> peers{{1, 0.0, 4, 0}};
  const auto d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
}

TEST(MeshRouter, OverloadForwardsOnlyToALessLoadedPeer) {
  mesh::LocalView local;
  local.feasible = true;
  local.now = 100.0;
  local.predictedCompletion = 400.0;  // 300 s out, threshold 90
  local.meanLoad = 3.0;
  std::vector<mesh::PeerDigest> peers{{1, 1.0, 4, 0}, {2, 0.5, 2, 0}};
  auto d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kForward);
  EXPECT_EQ(d.peer, 2u);  // least loaded wins
  // Every peer busier than us: place locally anyway.
  peers = {{1, 5.0, 4, 0}};
  d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
  // Under the threshold: never forward.
  local.predictedCompletion = 150.0;
  peers = {{1, 0.0, 4, 0}};
  d = decideRoute(routerConfig(true, 90.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kLocal);
}

TEST(MeshRouter, InfeasibleForwardsParksOrDenies) {
  mesh::LocalView local;  // no feasible server
  std::vector<mesh::PeerDigest> peers{{1, 9.0, 2, 0}};
  // Any capable peer takes an infeasible request, load regardless.
  auto d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kForward);
  EXPECT_EQ(d.peer, 1u);
  // Peers with zero live servers cannot help: deny (or park when stealing).
  peers = {{1, 0.0, 0, 0}};
  d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
  d = decideRoute(routerConfig(true, 0.0, true), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kPark);
  // Hop limit spent: no second forward.
  local.hops = 1;
  peers = {{1, 0.0, 4, 0}};
  d = decideRoute(routerConfig(true, 0.0, false), local, peers);
  EXPECT_EQ(d.kind, mesh::RouteKind::kDeny);
}

// --- [mesh] parsing + validation -----------------------------------------

TEST(MeshScenario, MeshSectionRoundTripsThroughTheParser) {
  const ScenarioSpec spec = scenario::findScenario("mesh/saturated_rescue");
  ASSERT_TRUE(spec.mesh.enabled);
  EXPECT_TRUE(spec.mesh.forwarding);
  EXPECT_EQ(spec.mesh.hopLimit, 1u);
  EXPECT_DOUBLE_EQ(spec.mesh.overloadThreshold, 60.0);
  EXPECT_EQ(spec.mesh.topology, "flat");
  ASSERT_EQ(spec.mesh.racks.size(), 2u);
  EXPECT_EQ(spec.mesh.racks[0].agentIndex, 0u);
  EXPECT_EQ(spec.mesh.racks[0].servers, (std::vector<std::size_t>{0}));
  EXPECT_EQ(spec.mesh.racks[1].servers, (std::vector<std::size_t>{1, 2, 3}));

  const std::string rendered = scenario::renderScenario(spec);
  const ScenarioSpec reparsed = scenario::parseScenario(rendered);
  ASSERT_TRUE(reparsed.mesh.enabled);
  EXPECT_EQ(reparsed.mesh.hopLimit, spec.mesh.hopLimit);
  EXPECT_DOUBLE_EQ(reparsed.mesh.overloadThreshold, spec.mesh.overloadThreshold);
  ASSERT_EQ(reparsed.mesh.racks.size(), 2u);
  EXPECT_EQ(reparsed.mesh.racks[1].servers, spec.mesh.racks[1].servers);

  const ScenarioSpec steal = scenario::findScenario("mesh/steal_tree");
  EXPECT_FALSE(steal.mesh.forwarding);
  EXPECT_DOUBLE_EQ(steal.mesh.stealPeriod, 5.0);
  EXPECT_EQ(steal.mesh.stealBatch, 2u);
  EXPECT_EQ(steal.mesh.topology, "tree");
}

TEST(MeshScenario, ValidationRejectsBrokenMeshShapes) {
  ScenarioSpec spec = scenario::findScenario("mesh/saturated_rescue");

  // Churn and mesh do not compose yet.
  ScenarioSpec churny = spec;
  churny.churn.push_back({10.0, "crash", "grid-0", 1.0, 0.0});
  EXPECT_THROW(compileScenario(churny, 1), util::Error);

  // Racks must cover the whole testbed.
  ScenarioSpec partial = spec;
  partial.mesh.racks[1].servers = {1, 2};
  EXPECT_THROW(compileScenario(partial, 1), util::Error);

  // A tree root must not own a rack.
  ScenarioSpec rootRack = scenario::findScenario("mesh/hierarchy_4agent");
  rootRack.mesh.racks[0].agentIndex = 0;
  EXPECT_THROW(compileScenario(rootRack, 1), util::Error);

  // Mesh needs the partitioned multi-agent mode.
  ScenarioSpec replicated = spec;
  replicated.agents.mode = "replicated";
  EXPECT_THROW(compileScenario(replicated, 1), util::Error);
}

// --- mesh simulator ------------------------------------------------------

/// Names of the servers owned by `agentIndex` in the compiled scenario.
std::set<std::string> rackServers(const CompiledScenario& compiled,
                                  std::size_t agentIndex) {
  std::set<std::string> names;
  for (const scenario::RackSpec& rack : compiled.mesh.racks) {
    if (rack.agentIndex != agentIndex) continue;
    for (const std::size_t s : rack.servers) {
      names.insert(compiled.testbed.servers.at(s).name);
    }
  }
  return names;
}

TEST(MeshSim, SaturatedPartitionRescuedWithZeroLostTasks) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/saturated_rescue"), 7);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  EXPECT_GT(result.mesh.forwards, 0u);
  EXPECT_EQ(result.mesh.forwardDenies, 0u);

  // Flat topology round-robins clients over the two agents; agent0's single
  // server saturates, so at least 30% of its half of the metatask must be
  // rescued onto agent1's rack.
  const std::set<std::string> rackB = rackServers(compiled, 1);
  std::size_t agent0Tasks = 0;
  std::size_t rescued = 0;
  for (const metrics::TaskOutcome& t : result.tasks) {
    if (t.index % 2 != 0) continue;  // submitted to agent1
    ++agent0Tasks;
    if (rackB.count(t.server) != 0) ++rescued;
  }
  ASSERT_GT(agent0Tasks, 0u);
  EXPECT_GE(rescued * 100, agent0Tasks * 30)
      << rescued << "/" << agent0Tasks << " of agent0's tasks ran on rack B";
}

TEST(MeshSim, TreeRootForwardsEveryRequestToTheLeaves) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/hierarchy_4agent"), 11);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // The root owns no servers, so every single request takes exactly one hop.
  EXPECT_EQ(result.mesh.forwards, compiled.metatask.size());
  EXPECT_EQ(result.mesh.forwardDenies, 0u);
  // All three leaf racks should see work (the root spreads by load).
  std::set<std::string> used;
  for (const metrics::TaskOutcome& t : result.tasks) used.insert(t.server);
  for (std::size_t leaf = 1; leaf <= 3; ++leaf) {
    const std::set<std::string> rack = rackServers(compiled, leaf);
    bool hit = false;
    for (const std::string& s : rack) hit = hit || used.count(s) != 0;
    EXPECT_TRUE(hit) << "leaf " << leaf << " never received work";
  }
}

TEST(MeshSim, HopCountAccumulatesAcrossForwards) {
  // hop-limit 2 plus a tight overload threshold under a hard arrival burst:
  // the serverless root spends hop 1 on every request, and leaves - whose
  // loads keep shifting inside the forwarding-latency window - spend hop 2
  // on a less-loaded sibling. No request may take a third hop, so forwards
  // is bounded by tasks * hop-limit. A re-forward that resets the hop count
  // instead of accumulating it circulates requests past that bound (at this
  // burst rate the broken accounting overshoots it by a comfortable margin).
  scenario::ScenarioSpec spec = scenario::findScenario("mesh/hierarchy_4agent");
  spec.mesh.hopLimit = 2;
  spec.mesh.overloadThreshold = 1.0;
  spec.workload.count = 200;
  spec.arrival.meanInterarrival = 0.005;
  const CompiledScenario compiled = compileScenario(spec, 5);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // Every request leaves the root once, and the burst forces second hops...
  EXPECT_GT(result.mesh.forwards, compiled.metatask.size());
  // ...but none may hop more than hop-limit times in total.
  EXPECT_LE(result.mesh.forwards, compiled.metatask.size() * spec.mesh.hopLimit);
}

TEST(MeshSim, WorkStealingDrainsTheParkedRootQueue) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/steal_tree"), 3);
  const metrics::RunResult result = runScenario(compiled, "msf");

  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  // Forwarding is off: the serverless root parks everything and the leaves
  // pull every task off its queue.
  EXPECT_EQ(result.mesh.forwards, 0u);
  EXPECT_EQ(result.mesh.parked, compiled.metatask.size());
  EXPECT_EQ(result.mesh.steals, compiled.metatask.size());
}

TEST(MeshSim, SameSeedIsBitIdentical) {
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/saturated_rescue"), 21);
  const metrics::RunResult a = runScenario(compiled, "msf");
  const metrics::RunResult b = runScenario(compiled, "msf");
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].server, b.tasks[i].server);
    EXPECT_DOUBLE_EQ(a.tasks[i].completion, b.tasks[i].completion);
  }
  EXPECT_EQ(a.mesh.forwards, b.mesh.forwards);
}

TEST(MeshSim, RunsCountIntoTheSimulatorCounters) {
  // Mesh runs are simulator activity like any other: one run adds one to the
  // run counter and its executed events to the event counter.
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& runs = registry.counter("casched_sim_runs_total");
  const obs::Counter& events = registry.counter("casched_sim_events_total");
  const CompiledScenario compiled =
      compileScenario(scenario::findScenario("mesh/saturated_rescue"), 7);
  const std::uint64_t runsBefore = runs.value();
  const std::uint64_t eventsBefore = events.value();
  const metrics::RunResult result = runScenario(compiled, "msf");
  EXPECT_EQ(runs.value(), runsBefore + 1);
  EXPECT_GT(result.simulatedEvents, 0u);
  EXPECT_EQ(events.value(), eventsBefore + result.simulatedEvents);
}

}  // namespace
}  // namespace casched
