// Tests of the scenario subsystem: parser round-trips and error reporting,
// generator determinism, registry completeness, the new arrival processes,
// and end-to-end dynamic-membership runs (leave drains, crash re-submits
// elsewhere, joiners absorb work).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.hpp"

#include "cas/system.hpp"
#include "scenario/faults.hpp"
#include "scenario/generate.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "workload/arrival.hpp"

namespace casched::scenario {
namespace {

TEST(ScenarioParser, RoundTripsEveryRegistryEntry) {
  for (const std::string& name : scenarioNames()) {
    const ScenarioSpec parsed = parseScenario(scenarioText(name));
    EXPECT_EQ(parsed.name, name);
    const std::string rendered = renderScenario(parsed);
    const ScenarioSpec reparsed = parseScenario(rendered);
    // The renderer is the parser's inverse: a second round-trip is stable.
    EXPECT_EQ(renderScenario(reparsed), rendered) << name;
  }
}

TEST(ScenarioParser, ParsesTheInterestingFields) {
  const ScenarioSpec spec = findScenario("churny-grid");
  EXPECT_EQ(spec.arrival.pattern.kind, workload::ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(spec.arrival.meanInterarrival, 8.0);
  EXPECT_EQ(spec.workload.count, 400u);
  ASSERT_EQ(spec.workload.mix.size(), 2u);
  EXPECT_EQ(spec.workload.mix[0].typeName, "waste-cpu-200");
  EXPECT_DOUBLE_EQ(spec.workload.mix[0].weight, 2.0);
  EXPECT_EQ(spec.platform.kind, PlatformKind::kTemplate);
  EXPECT_EQ(spec.platform.servers, 6u);
  EXPECT_TRUE(spec.system.faultTolerance);
  ASSERT_EQ(spec.churn.size(), 7u);
  EXPECT_EQ(spec.churn[0].action, "slowdown");
  EXPECT_DOUBLE_EQ(spec.churn[0].value, 0.5);
  EXPECT_EQ(spec.churn[2].action, "join");
  EXPECT_EQ(spec.churn[2].server, "helper-0");
}

TEST(ScenarioParser, ParsesTheAgentsSection) {
  const ScenarioSpec spec = findScenario("multi-agent-failover");
  EXPECT_EQ(spec.agents.count, 2u);
  EXPECT_EQ(spec.agents.mode, "replicated");
  EXPECT_DOUBLE_EQ(spec.agents.syncPeriod, 5.0);
  ASSERT_EQ(spec.agents.events.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.agents.events[0].time, 60.0);
  EXPECT_EQ(spec.agents.events[0].agentIndex, 0u);
  EXPECT_LT(spec.agents.events[0].restartAfter, 0.0);  // stays dead

  // Specs without the section keep the single-agent default and render
  // without it (the round-trip test above covers the rendered form).
  const ScenarioSpec plain = findScenario("churny-grid");
  EXPECT_EQ(plain.agents.count, 1u);
  EXPECT_EQ(renderScenario(plain).find("[agents]"), std::string::npos);
}

TEST(ScenarioParser, RejectsMalformedAgentsSection) {
  const auto wrap = [](const std::string& body) {
    return "[scenario]\nname = x\n[workload]\nmix = waste-cpu-200\n[agents]\n" + body;
  };
  EXPECT_THROW(parseScenario(wrap("count = 0\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("mode = quorum\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("sync-period = 0\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("event = 5, explode, 0\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("event = 5, crash\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("bogus = 1\n")), util::ConfigError);
  // Out-of-range agent indices surface at compilation.
  EXPECT_THROW(
      compileScenario(parseScenario(wrap("count = 2\nevent = 5, crash, 7\n")), 3),
      util::Error);
  // Agent churn with a single agent would be silently unreachable in the
  // live harness; compilation rejects the combination.
  EXPECT_THROW(compileScenario(parseScenario(wrap("event = 5, crash, 0\n")), 3),
               util::Error);
}

TEST(ScenarioParser, RejectsMalformedInput) {
  EXPECT_THROW(parseScenario("[scenario]\nname = x\n[nosuch]\nkey = 1\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario("[scenario]\nname = x\n[arrival]\nbogus = 1\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario("[scenario]\nname = x\n[arrival]\nmean = abc\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario("[scenario]\nname = x\n[churn]\nevent = 5, explode, s\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario("key = before-any-section\n"), util::ConfigError);
  EXPECT_THROW(parseScenario("[scenario]\ndescription = nameless\n"),
               util::ConfigError);
  // The error message carries the offending line number.
  try {
    parseScenario("[scenario]\nname = x\n[workload]\nmix = \n");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(ScenarioGenerator, SameSeedSameMetataskAndPlatform) {
  const ScenarioSpec spec = findScenario("churny-grid");
  const CompiledScenario a = compileScenario(spec, 7);
  const CompiledScenario b = compileScenario(spec, 7);
  ASSERT_EQ(a.metatask.size(), b.metatask.size());
  for (std::size_t i = 0; i < a.metatask.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.metatask.tasks[i].arrival, b.metatask.tasks[i].arrival);
    EXPECT_EQ(a.metatask.tasks[i].type.name, b.metatask.tasks[i].type.name);
  }
  ASSERT_EQ(a.testbed.servers.size(), b.testbed.servers.size());
  for (std::size_t i = 0; i < a.testbed.servers.size(); ++i) {
    EXPECT_EQ(a.testbed.servers[i].name, b.testbed.servers[i].name);
    EXPECT_DOUBLE_EQ(a.testbed.costs.speedIndex(a.testbed.servers[i].name),
                     b.testbed.costs.speedIndex(b.testbed.servers[i].name));
  }
  EXPECT_EQ(a.churn.size(), b.churn.size());

  const CompiledScenario c = compileScenario(spec, 8);
  bool anyDiff = false;
  for (std::size_t i = 0; i < a.metatask.size(); ++i) {
    anyDiff |= a.metatask.tasks[i].arrival != c.metatask.tasks[i].arrival;
  }
  EXPECT_TRUE(anyDiff);
}

TEST(ScenarioRegistry, HasTheAdvertisedEntriesAndTheyCompile) {
  const auto& names = scenarioNames();
  EXPECT_GE(names.size(), 14u);
  for (const char* expected :
       {"paper/table5_matmul_low", "paper/table6_matmul_high",
        "paper/table7_wastecpu_low", "paper/table8_wastecpu_high",
        "ablation/rate_sweep", "ablation/staleness", "ablation/htm_sync",
        "ablation/memory_aware", "burst-storm", "diurnal-day", "heavy-tail",
        "flash-crowd", "churny-grid", "mega-cluster", "live-loopback",
        "multi-agent-loopback", "multi-agent-failover", "churn/flapping",
        "churn/zone_outage", "churn/soak", "churn/trace_replay"}) {
    EXPECT_TRUE(hasScenario(expected)) << expected;
  }
  EXPECT_FALSE(hasScenario("no-such-scenario"));
  EXPECT_THROW(scenarioText("no-such-scenario"), util::ConfigError);
  for (const std::string& name : names) {
    const CompiledScenario compiled = compileScenario(findScenario(name), 3);
    EXPECT_FALSE(compiled.testbed.servers.empty()) << name;
    EXPECT_FALSE(compiled.metatask.tasks.empty()) << name;
  }
  EXPECT_GE(compileScenario(findScenario("mega-cluster"), 3).testbed.servers.size(),
            64u);
}

TEST(ScenarioRegistry, PrefixGroupsAndEnumeratingErrors) {
  EXPECT_EQ(scenarioNamesWithPrefix("paper/").size(), 4u);
  EXPECT_EQ(scenarioNamesWithPrefix("ablation/").size(), 4u);
  EXPECT_EQ(scenarioNamesWithPrefix("churn/").size(), 4u);
  EXPECT_TRUE(scenarioNamesWithPrefix("no-such-prefix/").empty());
  // Unknown-scenario errors enumerate the registry.
  try {
    findScenario("no-such-scenario");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("paper/table5_matmul_low"), std::string::npos);
    EXPECT_NE(what.find("mega-cluster"), std::string::npos);
  }
}

TEST(ScenarioRegistry, ResolvesScenarioGroupsAndLists) {
  EXPECT_EQ(resolveScenarioList("all").size(), 24u);
  EXPECT_EQ(resolveScenarioList("all"), scenarioNames());
  for (const char* group : {"paper", "ablation", "ablations", "churn"}) {
    EXPECT_EQ(resolveScenarioList(group).size(), 4u) << group;
  }
  EXPECT_EQ(resolveScenarioList("ablation"), resolveScenarioList("ablations"));
  EXPECT_EQ(resolveScenarioList(" Paper "), scenarioNamesWithPrefix("paper/"));

  const std::vector<std::string> traffic = resolveScenarioList("traffic");
  EXPECT_FALSE(traffic.empty());
  for (const std::string& name : traffic) {
    EXPECT_EQ(name.find('/'), std::string::npos) << name;
  }
  EXPECT_NE(std::find(traffic.begin(), traffic.end(), "flash-crowd"), traffic.end());

  // An explicit list is split on commas, trimmed, and loses empty fields.
  EXPECT_EQ(resolveScenarioList(" paper/table5_matmul_low , flash-crowd,,"),
            (std::vector<std::string>{"paper/table5_matmul_low", "flash-crowd"}));
  EXPECT_EQ(resolveScenarioList("churny-grid"),
            std::vector<std::string>{"churny-grid"});

  for (const char* empty : {"", "  ", ",", " , ,"}) {
    EXPECT_THROW(resolveScenarioList(empty), util::ConfigError) << "'" << empty << "'";
  }
}

TEST(ScenarioParser, ParsesCampaignAndSweepSections) {
  const ScenarioSpec table7 = findScenario("paper/table7_wastecpu_low");
  EXPECT_EQ(table7.campaign.heuristics,
            (std::vector<std::string>{"mct", "hmct", "mp", "msf"}));
  EXPECT_EQ(table7.campaign.baseline, "mct");
  EXPECT_EQ(table7.campaign.metatasks, 3u);
  EXPECT_EQ(table7.campaign.replications, 3u);
  EXPECT_EQ(table7.campaign.ftPolicy, "paper");
  EXPECT_NE(table7.campaign.title.find("Table 7"), std::string::npos);
  EXPECT_TRUE(table7.sweep.empty());

  const ScenarioSpec sync = findScenario("ablation/htm_sync");
  ASSERT_EQ(sync.sweep.size(), 2u);
  EXPECT_EQ(sync.sweep[0].parameter, "noise");
  EXPECT_EQ(sync.sweep[0].values.size(), 4u);
  EXPECT_EQ(sync.sweep[1].parameter, "htm-sync");
  EXPECT_EQ(sync.sweep[1].values,
            (std::vector<std::string>{"predict-only", "drop-on-notice", "rescale"}));
  EXPECT_EQ(sync.campaign.heuristics, (std::vector<std::string>{"msf"}));

  // A scenario without the new sections keeps the campaign defaults.
  const ScenarioSpec plain = findScenario("churny-grid");
  EXPECT_EQ(plain.campaign.heuristics.size(), 4u);
  EXPECT_EQ(plain.campaign.metatasks, 1u);
  EXPECT_EQ(plain.campaign.ftPolicy, "scenario");
  EXPECT_TRUE(plain.campaign.title.empty());
}

TEST(ScenarioParser, RejectsMalformedCampaignAndSweep) {
  const std::string head = "[scenario]\nname = x\n";
  EXPECT_THROW(parseScenario(head + "[campaign]\nbogus = 1\n"), util::ConfigError);
  EXPECT_THROW(parseScenario(head + "[campaign]\nreplications = 0\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario(head + "[campaign]\nft-policy = maybe\n"),
               util::ConfigError);
  EXPECT_THROW(parseScenario(head + "[sweep]\naxis = rate\n"), util::ConfigError);
  EXPECT_THROW(parseScenario(head + "[sweep]\nbogus = rate : 1\n"),
               util::ConfigError);
  EXPECT_THROW(
      parseScenario(head + "[sweep]\naxis = rate : 1\naxis = rate : 2\n"),
      util::ConfigError);
}

TEST(ScenarioArrivals, NewProcessesAreMonotoneAndDeterministic) {
  workload::ArrivalPattern bursty{workload::ArrivalKind::kBursty};
  bursty.burstOn = 30.0;
  bursty.burstOff = 70.0;
  workload::ArrivalPattern diurnal{workload::ArrivalKind::kDiurnal};
  workload::ArrivalPattern pareto{workload::ArrivalKind::kPareto};
  for (const auto& pattern : {bursty, diurnal, pareto}) {
    const auto a = workload::makeArrivalProcess(pattern, 10.0, 5);
    const auto b = workload::makeArrivalProcess(pattern, 10.0, 5);
    double last = 0.0;
    for (int i = 0; i < 200; ++i) {
      const double t = a->next();
      EXPECT_DOUBLE_EQ(t, b->next());
      EXPECT_GE(t, last);
      last = t;
    }
  }
  // Bursty arrivals only ever land inside an on-window.
  const auto p = workload::makeArrivalProcess(bursty, 10.0, 17);
  for (int i = 0; i < 500; ++i) {
    const double cyclePos = std::fmod(p->next(), 100.0);
    EXPECT_LT(cyclePos, 30.0);
  }
}

TEST(ScenarioChurn, CrashedServersTasksRetryElsewhere) {
  // Two identical servers; MCT's deterministic tie-break sends the lone task
  // to server-0, which we crash mid-execution.
  platform::Testbed bed = platform::buildUniform(2, 10.0, 0.0);
  workload::Metatask mt;
  mt.name = "crash";
  mt.tasks.push_back({0, 1.0, workload::makeSyntheticType("slow", 0.0, 100.0, 0.0, 0.0)});
  cas::SystemConfig cfg;
  cfg.controlLatency = 0.0;
  cfg.faultTolerance = true;

  cas::ChurnEvent crash;
  crash.time = 20.0;
  crash.action = cas::ChurnAction::kCrash;
  crash.server = "server-0";
  const metrics::RunResult result = cas::runExperimentSystem(
      bed, mt, "mct", cfg, {crash});
  ASSERT_EQ(result.tasks.size(), 1u);
  EXPECT_EQ(result.tasks[0].status, metrics::TaskStatus::kCompleted);
  EXPECT_EQ(result.tasks[0].server, "server-1");
  EXPECT_EQ(result.tasks[0].attempts, 2);
  EXPECT_EQ(result.churn.crashes, 1u);
  // Re-submission at t=20 onto the idle server-1 finishes at t=120.
  EXPECT_NEAR(result.tasks[0].completion, 120.0, 1e-9);
}

TEST(ScenarioChurn, LeaveDrainsInFlightAndStopsNewWork) {
  platform::Testbed bed = platform::buildUniform(2, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 50.0, 0.0, 0.0);
  workload::Metatask mt;
  mt.name = "leave";
  mt.tasks.push_back({0, 1.0, type});   // lands on server-0 (tie-break)
  mt.tasks.push_back({1, 30.0, type});  // server-0 already left: server-1
  cas::SystemConfig cfg;
  cfg.controlLatency = 0.0;

  cas::ChurnEvent leave;
  leave.time = 10.0;
  leave.action = cas::ChurnAction::kLeave;
  leave.server = "server-0";
  const metrics::RunResult result =
      cas::runExperimentSystem(bed, mt, "mct", cfg, {leave});
  ASSERT_EQ(result.tasks.size(), 2u);
  // The in-flight task drains on the departed server.
  EXPECT_EQ(result.tasks[0].status, metrics::TaskStatus::kCompleted);
  EXPECT_EQ(result.tasks[0].server, "server-0");
  EXPECT_NEAR(result.tasks[0].completion, 51.0, 1e-9);
  EXPECT_EQ(result.tasks[1].server, "server-1");
  EXPECT_EQ(result.churn.leaves, 1u);
}

TEST(ScenarioChurn, JoinersAbsorbWork) {
  platform::Testbed bed = platform::buildUniform(1, 10.0, 0.0);
  const auto type = workload::makeSyntheticType("t", 0.0, 40.0, 0.0, 0.0);
  workload::Metatask mt;
  mt.name = "join";
  for (std::size_t i = 0; i < 4; ++i) {
    mt.tasks.push_back({i, 5.0 + 20.0 * static_cast<double>(i), type});
  }
  cas::SystemConfig cfg;
  cfg.controlLatency = 0.0;

  cas::ChurnEvent join;
  join.time = 10.0;
  join.action = cas::ChurnAction::kJoin;
  join.server = "booster";
  join.joinSpec.bwInMBps = 10.0;
  join.joinSpec.bwOutMBps = 10.0;
  join.joinSpec.latencyIn = 0.0;
  join.joinSpec.latencyOut = 0.0;
  join.speedIndex = 1.0;
  const metrics::RunResult result =
      cas::runExperimentSystem(bed, mt, "hmct", cfg, {join});
  EXPECT_EQ(result.completedCount(), 4u);
  EXPECT_EQ(result.churn.joins, 1u);
  std::set<std::string> servers;
  for (const auto& t : result.tasks) servers.insert(t.server);
  EXPECT_TRUE(servers.count("booster") == 1) << "joiner never used";
}

TEST(ScenarioChurn, ChurnyGridLosesNothingWithFaultTolerance) {
  const CompiledScenario compiled = compileScenario(findScenario("churny-grid"), 42);
  ASSERT_TRUE(compiled.system.faultTolerance);
  const metrics::RunResult result = runScenario(compiled, "hmct");
  EXPECT_EQ(result.completedCount(), compiled.metatask.size());
  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_GE(result.churn.joins, 1u);
  EXPECT_GE(result.churn.leaves, 1u);
  EXPECT_GE(result.churn.crashes, 1u);
}

TEST(ScenarioParser, ParsesTheFaultsSectionAndExtendedChurnEvents) {
  const ScenarioSpec soak = findScenario("churn/soak");
  EXPECT_DOUBLE_EQ(soak.faults.horizon, 6000.0);
  EXPECT_DOUBLE_EQ(soak.faults.crashMtbf, 1500.0);
  EXPECT_DOUBLE_EQ(soak.faults.crashShape, 1.5);
  EXPECT_DOUBLE_EQ(soak.faults.flapTick, 20.0);
  EXPECT_DOUBLE_EQ(soak.faults.flapStayUp, 0.995);
  EXPECT_EQ(soak.faults.autoDomains, 4u);
  EXPECT_DOUBLE_EQ(soak.faults.outageMtbf, 3000.0);
  EXPECT_DOUBLE_EQ(soak.faults.slowMin, 0.4);
  EXPECT_DOUBLE_EQ(soak.faults.linkDuration, 150.0);
  EXPECT_TRUE(soak.faults.enabled());
  // A spec without the section keeps every process disabled and renders
  // without it.
  const ScenarioSpec plain = findScenario("churny-grid");
  EXPECT_FALSE(plain.faults.enabled());
  EXPECT_EQ(renderScenario(plain).find("[faults]"), std::string::npos);

  // Extended churn grammar: crash downtime, slowdown/link durations, and
  // explicit domain tagging all round-trip.
  const std::string text = R"(
[scenario]
name = extended
[workload]
mix = waste-cpu-200
[platform]
kind = template
servers = 4
catalog = uniform
[churn]
event = 10, crash, grid-0, 45
event = 20, slowdown, grid-1, 0.5, 120
event = 30, link, grid-2, 0.25, 60
[faults]
horizon = 500
outage-mtbf = 200
outage-mttr = 50
domain = rack-a : grid-0, grid-1
domain = rack-b : grid-2, grid-3
)";
  const ScenarioSpec spec = parseScenario(text);
  ASSERT_EQ(spec.churn.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.churn[0].duration, 45.0);
  EXPECT_DOUBLE_EQ(spec.churn[1].value, 0.5);
  EXPECT_DOUBLE_EQ(spec.churn[1].duration, 120.0);
  EXPECT_EQ(spec.churn[2].action, "link");
  ASSERT_EQ(spec.faults.domains.size(), 2u);
  EXPECT_EQ(spec.faults.domains[1].name, "rack-b");
  EXPECT_EQ(spec.faults.domains[1].servers,
            (std::vector<std::string>{"grid-2", "grid-3"}));
  const ScenarioSpec reparsed = parseScenario(renderScenario(spec));
  EXPECT_EQ(renderScenario(reparsed), renderScenario(spec));
  // The compiled timeline carries the semantics into cas::ChurnEvent.
  const CompiledScenario compiled = compileScenario(spec, 5);
  EXPECT_EQ(compiled.churn[0].action, cas::ChurnAction::kCrash);
  EXPECT_DOUBLE_EQ(compiled.churn[0].duration, 45.0);
  EXPECT_EQ(compiled.churn[2].action, cas::ChurnAction::kLink);
  ASSERT_EQ(compiled.faultDomains.size(), 2u);
}

TEST(ScenarioParser, RejectsMalformedFaultsAndChurn) {
  const auto wrap = [](const std::string& body) {
    return "[scenario]\nname = x\n[workload]\nmix = waste-cpu-200\n" + body;
  };
  // [faults] structural errors surface at parse time.
  EXPECT_THROW(parseScenario(wrap("[faults]\ncrash-mtbf = 100\n")),
               util::ConfigError);  // no horizon
  EXPECT_THROW(parseScenario(wrap("[faults]\nhorizon = 10\nflap-tick = 5\n"
                                  "flap-stay-up = 1.5\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("[faults]\nhorizon = 10\noutage-mtbf = 5\n")),
               util::ConfigError);  // outage without domains
  EXPECT_THROW(parseScenario(wrap("[faults]\nhorizon = 10\noutage-mtbf = 5\n"
                                  "domains = 2\ndomain = a : s1\n")),
               util::ConfigError);  // both domain styles
  EXPECT_THROW(parseScenario(wrap("[faults]\nhorizon = 10\nslow-mtbf = 5\n"
                                  "slow-min = 0.9\nslow-max = 0.5\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("[faults]\nbogus = 1\n")), util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("[faults]\ndomain = a : s1\n")),
               util::ConfigError);  // domains without an outage process
  EXPECT_THROW(parseScenario(wrap("[faults]\nflap-tick = -5\n")),
               util::ConfigError);  // negative rates never silently disable
  // Extended churn grammar errors.
  EXPECT_THROW(parseScenario(wrap("[churn]\nevent = 5, crash, s, 0\n")),
               util::ConfigError);  // zero downtime
  EXPECT_THROW(parseScenario(wrap("[churn]\nevent = 5, crash, s, 10, 3\n")),
               util::ConfigError);  // crash takes no duration field
  EXPECT_THROW(parseScenario(wrap("[churn]\nevent = 5, leave, s, 1\n")),
               util::ConfigError);  // leave takes no value
  EXPECT_THROW(parseScenario(wrap("[churn]\nevent = 5, slowdown, s, 0.5, -1\n")),
               util::ConfigError);
}

TEST(ScenarioFaults, TraceReplayCompilesDownUpPairsIntoCrashes) {
  const std::string text =
      "[scenario]\nname = trace\n"
      "[workload]\nmix = waste-cpu-200\n"
      "[platform]\nkind = template\nservers = 2\ncatalog = uniform\n"
      "[faults]\n"
      "horizon = 100\n"
      "trace-event = 10, down, grid-0\n"
      "trace-event = 25, up, grid-0\n"
      "trace-event = 40, down, grid-1\n";
  const CompiledScenario compiled = compileScenario(parseScenario(text), 5);
  // Two crashes: grid-0 down for 15 s, grid-1 closed by the horizon (60 s).
  ASSERT_EQ(compiled.churn.size(), 2u);
  EXPECT_EQ(compiled.generatedChurn, 2u);
  EXPECT_EQ(compiled.churn[0].server, "grid-0");
  EXPECT_EQ(compiled.churn[0].action, cas::ChurnAction::kCrash);
  EXPECT_DOUBLE_EQ(compiled.churn[0].time, 10.0);
  EXPECT_DOUBLE_EQ(compiled.churn[0].duration, 15.0);
  EXPECT_EQ(compiled.churn[1].server, "grid-1");
  EXPECT_DOUBLE_EQ(compiled.churn[1].time, 40.0);
  EXPECT_DOUBLE_EQ(compiled.churn[1].duration, 60.0);
  // Pure replay: the same spec compiles identically at any seed.
  const CompiledScenario other = compileScenario(parseScenario(text), 77);
  EXPECT_EQ(churnTimelineDigest(compiled.churn), churnTimelineDigest(other.churn));
}

TEST(ScenarioFaults, TraceReplayRejectsMalformedTimelines) {
  const auto wrap = [](const std::string& faults) {
    return "[scenario]\nname = trace\n"
           "[workload]\nmix = waste-cpu-200\n"
           "[platform]\nkind = template\nservers = 2\ncatalog = uniform\n"
           "[faults]\n" +
           faults;
  };
  const auto expectCompileError = [&](const std::string& faults,
                                      const std::string& needle) {
    try {
      compileScenario(parseScenario(wrap(faults)), 5);
      FAIL() << "expected ConfigError for: " << faults;
    } catch (const util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  // Parse-time grammar errors.
  EXPECT_THROW(parseScenario(wrap("trace-event = 10, sideways, grid-0\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("trace-event = -3, down, grid-0\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("trace-event = 10, down\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("trace = \n")), util::ConfigError);
  // Compile-time timeline errors, each with a named cause.
  expectCompileError("trace-event = 10, down, grid-9\n", "unknown server");
  expectCompileError(
      "trace-event = 10, down, grid-0\ntrace-event = 10, up, grid-0\n",
      "strictly increasing");
  expectCompileError("trace-event = 10, up, grid-0\n", "without going down");
  expectCompileError(
      "trace-event = 10, down, grid-0\ntrace-event = 20, down, grid-0\n",
      "goes down twice");
  expectCompileError("trace-event = 10, down, grid-0\n", "set a horizon");
  // A trace file that does not exist is a compile error, not a silent no-op.
  expectCompileError("trace = /no/such/trace.csv\n", "cannot open trace file");
}

TEST(ScenarioFaults, ParseFaultTraceReadsCsvRows) {
  const std::string csv =
      "# recorded outage timeline\n"
      "\n"
      "10.5, down, grid-0\n"
      "12, UP, grid-0\n";
  const auto events = parseFaultTrace(csv, "test.csv");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 10.5);
  EXPECT_TRUE(events[0].down);
  EXPECT_EQ(events[0].server, "grid-0");
  EXPECT_FALSE(events[1].down);
  // Malformed rows name the source and row.
  try {
    parseFaultTrace("10, wobbly, grid-0\n", "bad.csv");
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("bad.csv"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos);
  }
  EXPECT_THROW(parseFaultTrace("nonsense\n", "bad.csv"), util::ConfigError);
  EXPECT_THROW(parseFaultTrace("x, down, grid-0\n", "bad.csv"),
               util::ConfigError);
}

TEST(ScenarioFaults, DiurnalModulationReshapesButStaysDeterministic) {
  const auto wrap = [](const std::string& extra) {
    return "[scenario]\nname = diurnal\n"
           "[workload]\nmix = waste-cpu-200\n"
           "[platform]\nkind = template\nservers = 8\ncatalog = uniform\n"
           "[faults]\nhorizon = 2000\ncrash-mtbf = 300\ncrash-mttr = 30\n" +
           extra;
  };
  const ScenarioSpec flat = parseScenario(wrap(""));
  const ScenarioSpec wavy = parseScenario(
      wrap("diurnal-period = 500\ndiurnal-amplitude = 0.8\ndiurnal-phase = 0\n"));
  std::vector<std::string> servers;
  for (std::size_t i = 0; i < 8; ++i) servers.push_back("grid-" + std::to_string(i));
  const auto a = generateFaultTimeline(wavy.faults, servers, {}, 11);
  const auto b = generateFaultTimeline(wavy.faults, servers, {}, 11);
  EXPECT_EQ(churnTimelineDigest(a), churnTimelineDigest(b));
  // Modulation changes the timeline relative to the unmodulated process.
  const auto plain = generateFaultTimeline(flat.faults, servers, {}, 11);
  EXPECT_NE(churnTimelineDigest(a), churnTimelineDigest(plain));
  // Structural validation of the diurnal keys themselves.
  EXPECT_THROW(parseScenario(wrap("diurnal-amplitude = 1.5\n"
                                  "diurnal-period = 500\n")),
               util::ConfigError);
  EXPECT_THROW(parseScenario(wrap("diurnal-amplitude = 0.5\n")),
               util::ConfigError);  // amplitude without period
}

TEST(ScenarioFaults, SameSeedIsByteIdenticalDifferentSeedsDiffer) {
  const ScenarioSpec spec = findScenario("churn/soak");
  std::vector<std::string> servers;
  for (std::size_t i = 0; i < 16; ++i) {
    servers.push_back("grid-" + std::to_string(i));
  }
  const auto domains = resolveFaultDomains(spec.faults, servers);
  const auto a = generateFaultTimeline(spec.faults, servers, domains, 99);
  const auto b = generateFaultTimeline(spec.faults, servers, domains, 99);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].server, b[i].server);
    EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
    EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
  }
  EXPECT_EQ(churnTimelineDigest(a), churnTimelineDigest(b));
  const auto c = generateFaultTimeline(spec.faults, servers, domains, 100);
  EXPECT_NE(churnTimelineDigest(a), churnTimelineDigest(c));

  // The compiled scenario embeds the same determinism end to end: two
  // compilations at one seed carry identical merged timelines.
  const CompiledScenario x = compileScenario(spec, 7);
  const CompiledScenario y = compileScenario(spec, 7);
  EXPECT_GT(x.generatedChurn, 0u);
  EXPECT_EQ(churnTimelineDigest(x.churn), churnTimelineDigest(y.churn));
  EXPECT_NE(churnTimelineDigest(x.churn),
            churnTimelineDigest(compileScenario(spec, 8).churn));
}

TEST(ScenarioFaults, GeneratedProcessesRespectTheirShapes) {
  FaultsSpec faults;
  faults.horizon = 10000.0;
  faults.crashMtbf = 500.0;
  faults.crashMttr = 50.0;
  const std::vector<std::string> servers{"a", "b"};
  const auto crashes = generateFaultTimeline(faults, servers, {}, 3);
  ASSERT_FALSE(crashes.empty());
  double last = 0.0;
  for (const cas::ChurnEvent& e : crashes) {
    EXPECT_EQ(e.action, cas::ChurnAction::kCrash);
    EXPECT_GT(e.duration, 0.0);
    EXPECT_LT(e.time, faults.horizon);
    EXPECT_GE(e.time, last);  // sorted
    last = e.time;
  }

  // Flapping: down runs are tick-quantized and never overlap per server.
  FaultsSpec flap;
  flap.horizon = 2000.0;
  flap.flapTick = 10.0;
  flap.flapStayUp = 0.9;
  flap.flapStayDown = 0.5;
  const auto flaps = generateFaultTimeline(flap, {"s"}, {}, 11);
  ASSERT_FALSE(flaps.empty());
  double prevEnd = -1.0;
  for (const cas::ChurnEvent& e : flaps) {
    EXPECT_GE(e.time, prevEnd);
    prevEnd = e.time + e.duration;
    EXPECT_NEAR(std::fmod(e.duration + 1e-9, flap.flapTick), 0.0, 1e-6);
  }

  // Domain outages: every member crashes at the same instant with the same
  // downtime, and the summary sees the whole domain dead at once.
  FaultsSpec outage;
  outage.horizon = 5000.0;
  outage.outageMtbf = 800.0;
  outage.outageMttr = 100.0;
  outage.autoDomains = 2;
  const std::vector<std::string> grid{"g0", "g1", "g2", "g3"};
  const auto zones = resolveFaultDomains(outage, grid);
  ASSERT_EQ(zones.size(), 2u);
  EXPECT_EQ(zones[0].servers, (std::vector<std::string>{"g0", "g2"}));
  const auto events = generateFaultTimeline(outage, grid, zones, 21);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size() % 2, 0u);  // zones of two servers die in pairs
  const ChurnTimelineSummary summary = summarizeChurnTimeline(events, zones);
  EXPECT_EQ(summary.crashes, events.size());
  EXPECT_GE(summary.maxConcurrentDeadDomains, 1u);
  EXPECT_GE(summary.maxConcurrentDown, 2u);
  EXPECT_GT(summary.meanDowntime, 0.0);

  // Capacity churn factors stay inside the configured band.
  FaultsSpec slow;
  slow.horizon = 5000.0;
  slow.slowMtbf = 300.0;
  slow.slowMin = 0.4;
  slow.slowMax = 0.8;
  slow.slowDuration = 60.0;
  for (const cas::ChurnEvent& e : generateFaultTimeline(slow, {"s"}, {}, 5)) {
    EXPECT_EQ(e.action, cas::ChurnAction::kSlowdown);
    EXPECT_GE(e.factor, 0.4);
    EXPECT_LE(e.factor, 0.8);
    EXPECT_GT(e.duration, 0.0);
  }
}

TEST(ScenarioFaults, CompileRejectsBadDomainsAndDuplicateEvents) {
  // Domain naming an unknown server fails at compile time.
  ScenarioSpec spec = findScenario("churn/zone_outage");
  spec.faults.autoDomains = 0;
  spec.faults.domains = {{"rack-a", {"grid-0", "no-such-server"}}};
  EXPECT_THROW(compileScenario(spec, 1), util::ConfigError);

  // A server in two domains is ambiguous.
  ScenarioSpec twice = findScenario("churn/zone_outage");
  twice.faults.autoDomains = 0;
  twice.faults.domains = {{"a", {"grid-0"}}, {"b", {"grid-0"}}};
  EXPECT_THROW(compileScenario(twice, 1), util::ConfigError);

  // Exact duplicate churn events are rejected at compile time (they used to
  // silently no-op in the live path).
  ScenarioSpec dup = findScenario("churny-grid");
  dup.churn.push_back(dup.churn.front());
  EXPECT_THROW(compileScenario(dup, 1), util::Error);
}

TEST(ScenarioFaults, FlappingAndZoneOutageScenariosLoseNothing) {
  const CompiledScenario flapping =
      compileScenario(findScenario("churn/flapping"), 7);
  EXPECT_GT(flapping.generatedChurn, 0u);
  const metrics::RunResult result = runScenario(flapping, "hmct");
  EXPECT_EQ(result.completedCount(), flapping.metatask.size());
  EXPECT_EQ(result.lostCount(), 0u);
  EXPECT_GE(result.churn.crashes, 1u);

  const CompiledScenario zones =
      compileScenario(findScenario("churn/zone_outage"), 42);
  EXPECT_EQ(zones.faultDomains.size(), 3u);
  EXPECT_GT(zones.generatedChurn, 0u);
  const ChurnTimelineSummary summary =
      summarizeChurnTimeline(zones.churn, zones.faultDomains);
  EXPECT_GE(summary.crashes, 1u);
  EXPECT_GE(summary.linkEvents, 1u);
}

TEST(ScenarioSweep, ExpandsTheCrossProductInOrder) {
  const ScenarioSpec rate = findScenario("ablation/rate_sweep");
  const auto ratePoints = expandSweep(rate);
  ASSERT_EQ(ratePoints.size(), 6u);
  EXPECT_EQ(ratePoints[0].coordinates[0],
            (std::pair<std::string, std::string>{"rate", "30"}));
  EXPECT_DOUBLE_EQ(ratePoints[0].spec.arrival.meanInterarrival, 30.0);
  EXPECT_DOUBLE_EQ(ratePoints[5].spec.arrival.meanInterarrival, 15.0);
  // Expanded variants are concrete: they do not expand again.
  EXPECT_TRUE(ratePoints[0].spec.sweep.empty());
  EXPECT_EQ(sweepLabel(ratePoints[0]), "rate=30");

  const ScenarioSpec sync = findScenario("ablation/htm_sync");
  const auto grid = expandSweep(sync);
  ASSERT_EQ(grid.size(), 12u);  // 4 amplitudes x 3 policies, last axis fastest
  EXPECT_EQ(grid[0].coordinates[0].second, "0");
  EXPECT_EQ(grid[0].coordinates[1].second, "predict-only");
  EXPECT_EQ(grid[1].coordinates[1].second, "drop-on-notice");
  EXPECT_EQ(grid[3].coordinates[0].second, "0.05");
  EXPECT_DOUBLE_EQ(grid[3].spec.system.cpuNoiseAmplitude, 0.05);
  EXPECT_DOUBLE_EQ(grid[3].spec.system.linkNoiseAmplitude, 0.05);
  EXPECT_EQ(grid[4].spec.system.htmSync, "drop-on-notice");

  // A sweep-free spec is its own single point.
  const auto single = expandSweep(findScenario("churny-grid"));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].coordinates.empty());
  EXPECT_EQ(sweepLabel(single[0]), "");
}

TEST(ScenarioSweep, AppliesEveryParameterAndRejectsBadInput) {
  ScenarioSpec spec = findScenario("churny-grid");
  EXPECT_DOUBLE_EQ(applySweepValue(spec, "rate", "12.5").arrival.meanInterarrival,
                   12.5);
  EXPECT_EQ(applySweepValue(spec, "count", "37").workload.count, 37u);
  EXPECT_DOUBLE_EQ(applySweepValue(spec, "report-period", "60").system.reportPeriod,
                   60.0);
  EXPECT_DOUBLE_EQ(applySweepValue(spec, "cpu-noise", "0.2").system.cpuNoiseAmplitude,
                   0.2);
  EXPECT_DOUBLE_EQ(
      applySweepValue(spec, "link-noise", "0.3").system.linkNoiseAmplitude, 0.3);
  EXPECT_EQ(applySweepValue(spec, "htm-sync", "rescale").system.htmSync, "rescale");

  EXPECT_THROW(applySweepValue(spec, "frobnication", "1"), util::ConfigError);
  EXPECT_THROW(applySweepValue(spec, "rate", "abc"), util::ConfigError);
  EXPECT_THROW(applySweepValue(spec, "rate", "-3"), util::ConfigError);
  EXPECT_THROW(applySweepValue(spec, "count", "2.5"), util::ConfigError);
  EXPECT_THROW(applySweepValue(spec, "noise", "-0.1"), util::ConfigError);
  EXPECT_THROW(applySweepValue(spec, "htm-sync", "telepathy"), util::ConfigError);
}

TEST(ScenarioGenerator, UniformMixTakesTheUnweightedDrawPath) {
  // All-equal weights compile to an empty weight vector (the uniform RNG
  // path), so paper/* entries reproduce the historical hand-built specs.
  const CompiledScenario uniform =
      compileScenario(findScenario("paper/table5_matmul_low"), 5);
  EXPECT_TRUE(uniform.metataskConfig.typeWeights.empty());
  EXPECT_EQ(uniform.metataskConfig.types.size(), 3u);

  const CompiledScenario weighted = compileScenario(findScenario("burst-storm"), 5);
  EXPECT_EQ(weighted.metataskConfig.typeWeights,
            (std::vector<double>{2.0, 1.0}));
}

TEST(ScenarioGenerator, RejectsBadSpecs) {
  ScenarioSpec spec = findScenario("churny-grid");
  spec.workload.mix.clear();
  spec.workload.custom.clear();
  EXPECT_THROW(compileScenario(spec, 1), util::Error);

  ScenarioSpec badChurn = findScenario("churny-grid");
  ChurnSpec ghost;
  ghost.time = 100.0;
  ghost.action = "crash";
  ghost.server = "not-a-server";
  badChurn.churn.push_back(ghost);
  EXPECT_THROW(compileScenario(badChurn, 1), util::Error);

  EXPECT_THROW(resolveTypeName("matmul-abc"), util::ConfigError);
  EXPECT_THROW(resolveTypeName("quicksort-9"), util::ConfigError);
}

}  // namespace
}  // namespace casched::scenario
