#include "scenario/registry.hpp"

#include <utility>

#include "scenario/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::scenario {

namespace {

struct NamedScenario {
  const char* name;
  const char* text;
};

/// The paper's calibrated operating points first (Tables 5-8; the numeric
/// rates reproduce the published contention regimes - see EXPERIMENTS.md),
/// then the ablation sweeps, then the production-shaped traffic scenarios,
/// membership stress and scale.
constexpr NamedScenario kRegistry[] = {
    {"paper/table5_matmul_low", R"(
[scenario]
name = paper/table5_matmul_low
description = Paper Table 5: 500 multiplication tasks on server set 1, low rate

[arrival]
process = poisson
mean = 30

[workload]
count = 500
mix = matmul-1200 : 1
mix = matmul-1500 : 1
mix = matmul-1800 : 1

[platform]
kind = preset
preset = set1

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, mp, msf
baseline = mct
metatasks = 1
replications = 3
ft-policy = paper
title = Table 5. results for 1/lambda = 30s for multiplication tasks
)"},
    {"paper/table6_matmul_high", R"(
[scenario]
name = paper/table6_matmul_high
description = Paper Table 6: multiplication tasks at the high rate (memory-collapse regime)

[arrival]
process = poisson
mean = 21

[workload]
count = 500
mix = matmul-1200 : 1
mix = matmul-1500 : 1
mix = matmul-1800 : 1

[platform]
kind = preset
preset = set1

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, mp, msf
baseline = mct
metatasks = 1
replications = 3
ft-policy = paper
title = Table 6. results for 1/lambda = 21s for multiplication tasks (MCT has NetSolve fault tolerance)
)"},
    {"paper/table7_wastecpu_low", R"(
[scenario]
name = paper/table7_wastecpu_low
description = Paper Table 7: waste-cpu tasks on server set 2, low rate, three metatasks

[arrival]
process = poisson
mean = 30

[workload]
count = 500
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = preset
preset = set2

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, mp, msf
baseline = mct
metatasks = 3
replications = 3
ft-policy = paper
title = Table 7. results for 1/lambda = 30s for waste-cpu tasks
)"},
    {"paper/table8_wastecpu_high", R"(
[scenario]
name = paper/table8_wastecpu_high
description = Paper Table 8: waste-cpu tasks on server set 2, high rate, three metatasks

[arrival]
process = poisson
mean = 18

[workload]
count = 500
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = preset
preset = set2

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, mp, msf
baseline = mct
metatasks = 3
replications = 3
ft-policy = paper
title = Table 8. results for 1/lambda = 18s for waste-cpu tasks
)"},
    {"ablation/rate_sweep", R"(
[scenario]
name = ablation/rate_sweep
description = Ablation A1: arrival-rate sweep over the waste-cpu workload (set 2)

[arrival]
process = poisson
mean = 30

[workload]
count = 500
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = preset
preset = set2

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, mp, msf
baseline = mct
replications = 3
ft-policy = paper
title = Ablation: arrival-rate sweep (waste-cpu, set 2)

[sweep]
axis = rate : 30, 27, 24, 21, 18, 15
)"},
    {"ablation/staleness", R"(
[scenario]
name = ablation/staleness
description = Ablation A2: load-report staleness sweep, MCT vs the HTM heuristics

[arrival]
process = poisson
mean = 18

[workload]
count = 500
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = preset
preset = set2

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, msf
baseline = mct
replications = 3
ft-policy = paper
title = Ablation: MCT under load-report staleness (waste-cpu, high rate)

[sweep]
axis = report-period : 5, 15, 30, 60, 120, 300
)"},
    {"ablation/htm_sync", R"(
[scenario]
name = ablation/htm_sync
description = Ablation A3: HTM synchronization policies under ground-truth noise

[arrival]
process = poisson
mean = 18

[workload]
count = 500
mix = waste-cpu-200 : 1
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = preset
preset = set2

[campaign]
heuristics = msf
baseline = msf
replications = 3
ft-policy = paper
title = Ablation: HTM sync policy vs noise (MSF, waste-cpu)

[sweep]
axis = noise : 0, 0.05, 0.1, 0.2
axis = htm-sync : predict-only, drop-on-notice, rescale
)"},
    {"ablation/memory_aware", R"(
[scenario]
name = ablation/memory_aware
description = Ablation A4: memory-aware admission vs the Table 6 collapse regime

[arrival]
process = poisson
mean = 21

[workload]
count = 500
mix = matmul-1200 : 1
mix = matmul-1500 : 1
mix = matmul-1800 : 1

[platform]
kind = preset
preset = set1

[system]
cpu-noise = 0.08
link-noise = 0.10

[campaign]
heuristics = mct, hmct, msf, ma-hmct, ma-msf
baseline = mct
replications = 3
ft-policy = paper
title = Ablation: memory-aware admission (matmul, high rate; 'ma-' = future-work decorator)
)"},
    {"burst-storm", R"(
[scenario]
name = burst-storm
description = On/off traffic: minute-long storms at 5x the sustainable rate

[arrival]
process = bursty
mean = 15
on = 60
off = 240

[workload]
count = 300
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 8
catalog = uniform
heterogeneity = 0.2

[system]
cpu-noise = 0.05
)"},
    {"diurnal-day", R"(
[scenario]
name = diurnal-day
description = One compressed day: sinusoidal rate swing of 80% around the mean

[arrival]
process = diurnal
mean = 12
period = 7200
amplitude = 0.8

[workload]
count = 600
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1

[platform]
kind = preset
preset = set2

[system]
cpu-noise = 0.08
link-noise = 0.10
)"},
    {"heavy-tail", R"(
[scenario]
name = heavy-tail
description = Pareto inter-arrivals (alpha 1.3): long lulls, violent clumps

[arrival]
process = pareto
mean = 40
alpha = 1.3

[workload]
count = 400
mix = matmul-1200 : 1
mix = matmul-1500 : 1

[platform]
kind = preset
preset = set1

[system]
cpu-noise = 0.08
link-noise = 0.10
)"},
    {"flash-crowd", R"(
[scenario]
name = flash-crowd
description = Three servers near saturation; reinforcements join mid-run

[arrival]
process = poisson
mean = 6

[workload]
count = 300
mix = waste-cpu-200 : 1

[platform]
kind = template
servers = 3
catalog = uniform

[system]
fault-tolerance = true
cpu-noise = 0.05

[churn]
event = 600, join, surge-0, 1.2
event = 700, join, surge-1, 1.2
event = 800, join, surge-2, 1.0
)"},
    {"churny-grid", R"(
[scenario]
name = churny-grid
description = Dynamic membership: leaves, joins, a crash and a slowdown mid-run

[arrival]
process = poisson
mean = 8

[workload]
count = 400
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 6
catalog = uniform
heterogeneity = 0.3

[system]
fault-tolerance = true
max-retries = 5
cpu-noise = 0.05

[churn]
event = 400, slowdown, grid-0, 0.5
event = 600, leave, grid-1
event = 900, join, helper-0, 1.5
event = 1200, crash, grid-2
event = 1800, join, helper-1, 1.0
event = 2200, leave, grid-3
event = 2600, slowdown, grid-0, 1.0
)"},
    {"live-loopback", R"(
[scenario]
name = live-loopback
description = Distributed-runtime smoke: 3 servers, a graceful leave and a mid-run join over real sockets

[arrival]
process = poisson
mean = 5

[workload]
count = 24
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 3
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
report-period = 10

[churn]
event = 40, leave, grid-1
event = 60, join, helper-0, 1.5
)"},
    {"multi-agent-loopback", R"(
[scenario]
name = multi-agent-loopback
description = Two replicated agents over loopback sockets, no churn: live counts must match the single-agent simulator

[arrival]
process = poisson
mean = 5

[workload]
count = 24
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
report-period = 10

[agents]
count = 2
mode = replicated
sync-period = 5
)"},
    {"multi-agent-failover", R"(
[scenario]
name = multi-agent-failover
description = Split-brain churn: the primary agent crashes mid-run, servers and client fail over to the snapshot-warmed replica with zero lost tasks

[arrival]
process = poisson
mean = 5

[workload]
count = 24
# Heavy enough (~34 s reference) that the t=60 crash always catches tasks in
# flight - the fail-over paths are the point of this scenario.
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
max-retries = 8
report-period = 10

[agents]
count = 2
mode = replicated
sync-period = 5
event = 60, crash, 0, -1
)"},
    {"churn/flapping", R"(
[scenario]
name = churn/flapping
description = Generated Markov flapping: every server runs a sticky up/down chain, short outages kill in-flight work

[arrival]
process = poisson
mean = 5

[workload]
count = 24
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.3

[system]
fault-tolerance = true
max-retries = 8
report-period = 10

[campaign]
heuristics = mct, hmct, msf
baseline = mct
replications = 3

[faults]
horizon = 150
flap-tick = 5
flap-stay-up = 0.93
flap-stay-down = 0.5
)"},
    {"churn/zone_outage", R"(
[scenario]
name = churn/zone_outage
description = Correlated rack outages: 12 servers in 3 zones, one draw kills a whole zone; bandwidth churn rides along

[arrival]
process = poisson
mean = 8

[workload]
count = 300
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 12
catalog = uniform
heterogeneity = 0.3

[system]
fault-tolerance = true
max-retries = 8
cpu-noise = 0.05

[campaign]
heuristics = mct, hmct, msf
baseline = mct
replications = 3

[faults]
horizon = 2400
domains = 3
outage-mtbf = 900
outage-mttr = 150
link-mtbf = 600
link-min = 0.3
link-max = 0.7
link-duration = 120
)"},
    {"churn/soak", R"(
[scenario]
name = churn/soak
description = Long-horizon soak: every generated fault process at once on a 16-server, 2-agent deployment

[arrival]
process = poisson
mean = 12

[workload]
count = 500
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1
mix = waste-cpu-600 : 1

[platform]
kind = template
servers = 16
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
max-retries = 10
cpu-noise = 0.05
report-period = 15

[campaign]
heuristics = hmct, msf
baseline = hmct
replications = 2

[agents]
count = 2
mode = replicated
sync-period = 10

[faults]
horizon = 6000
crash-mtbf = 1500
crash-mttr = 120
crash-shape = 1.5
flap-tick = 20
flap-stay-up = 0.995
flap-stay-down = 0.5
domains = 4
outage-mtbf = 3000
outage-mttr = 200
slow-mtbf = 900
slow-min = 0.4
slow-max = 0.8
slow-duration = 180
link-mtbf = 900
link-min = 0.3
link-max = 0.8
link-duration = 150
)"},
    {"churn/trace_replay", R"(
[scenario]
name = churn/trace_replay
description = Trace-driven replay: a recorded down/up timeline plus a diurnally-modulated crash process on 4 servers, replayed digest-identically in sim and live

[arrival]
process = poisson
mean = 5

[workload]
count = 24
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.3

[system]
fault-tolerance = true
max-retries = 8
report-period = 10

[campaign]
heuristics = mct, hmct, msf
baseline = mct
replications = 3

[faults]
horizon = 150
crash-mtbf = 120
crash-mttr = 15
crash-shape = 1
trace-event = 10, down, grid-1
trace-event = 28, up, grid-1
trace-event = 45, down, grid-3
trace-event = 60, up, grid-3
trace-event = 95, down, grid-1
diurnal-period = 120
diurnal-amplitude = 0.6
diurnal-phase = 0
)"},
    {"mesh/saturated_rescue", R"(
[scenario]
name = mesh/saturated_rescue
description = Two-partition mesh: agent 0 owns one server and saturates, forwarding rescues its overflow onto agent 1's three-server rack with zero lost tasks

[arrival]
process = poisson
mean = 5

[workload]
count = 24
# Heavy enough (~34 s reference) that agent 0's single server falls behind
# its ~10 s interarrival share - the rescue path is the point.
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
report-period = 10

[agents]
count = 2
mode = partitioned
sync-period = 5

[mesh]
forwarding = true
hop-limit = 1
overload-threshold = 60
topology = flat
rack = 0 : 0
rack = 1 : 1, 2, 3
)"},
    {"mesh/hierarchy_4agent", R"(
[scenario]
name = mesh/hierarchy_4agent
description = Hierarchical mesh: a serverless root agent routes every request to the least-loaded of three leaf agents, each owning a two-server rack

[arrival]
process = poisson
mean = 4

[workload]
count = 24
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 6
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
report-period = 10

[agents]
count = 4
mode = partitioned
sync-period = 5

[mesh]
forwarding = true
hop-limit = 1
topology = tree
root = 0
rack = 1 : 0, 1
rack = 2 : 2, 3
rack = 3 : 4, 5
)"},
    {"mesh/steal_tree", R"(
[scenario]
name = mesh/steal_tree
description = Work-stealing mesh: forwarding off, so the serverless root parks every request and the two leaf agents pull them off its queue via steal grants

[arrival]
process = poisson
mean = 5

[workload]
count = 20
mix = waste-cpu-60 : 1

[platform]
kind = template
servers = 4
catalog = uniform
heterogeneity = 0.4

[system]
fault-tolerance = true
report-period = 10

[agents]
count = 3
mode = partitioned
sync-period = 5

[mesh]
forwarding = false
steal-period = 5
steal-batch = 2
topology = tree
root = 0
rack = 1 : 0, 1
rack = 2 : 2, 3
)"},
    {"mega-cluster", R"(
[scenario]
name = mega-cluster
description = Scale test: 64 heterogeneous servers at sub-second arrival rate

[arrival]
process = poisson
mean = 0.6

[workload]
count = 1500
mix = waste-cpu-200 : 2
mix = waste-cpu-400 : 1

[platform]
kind = template
servers = 64
catalog = uniform
heterogeneity = 0.5

[system]
cpu-noise = 0.05
)"},
};

}  // namespace

const std::vector<std::string>& scenarioNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const NamedScenario& s : kRegistry) out.push_back(s.name);
    return out;
  }();
  return names;
}

std::vector<std::string> scenarioNamesWithPrefix(const std::string& prefix) {
  std::vector<std::string> out;
  for (const std::string& name : scenarioNames()) {
    if (util::startsWith(name, prefix)) out.push_back(name);
  }
  return out;
}

std::vector<std::string> resolveScenarioList(const std::string& value) {
  const std::string v = util::toLower(util::trim(value));
  if (v == "all") return scenarioNames();
  if (v == "paper") return scenarioNamesWithPrefix("paper/");
  if (v == "ablation" || v == "ablations") return scenarioNamesWithPrefix("ablation/");
  if (v == "churn") return scenarioNamesWithPrefix("churn/");
  if (v == "traffic") {
    std::vector<std::string> names;
    for (const std::string& name : scenarioNames()) {
      if (name.find('/') == std::string::npos) names.push_back(name);
    }
    return names;
  }
  std::vector<std::string> names;
  for (const std::string& n : util::split(value, ',')) {
    const std::string_view trimmed = util::trim(n);
    if (!trimmed.empty()) names.emplace_back(trimmed);
  }
  if (names.empty()) throw util::ConfigError("empty scenario list");
  return names;
}

bool hasScenario(const std::string& name) {
  for (const NamedScenario& s : kRegistry) {
    if (name == s.name) return true;
  }
  return false;
}

const std::string& scenarioText(const std::string& name) {
  static const std::vector<std::pair<std::string, std::string>> texts = [] {
    std::vector<std::pair<std::string, std::string>> out;
    for (const NamedScenario& s : kRegistry) out.emplace_back(s.name, s.text);
    return out;
  }();
  for (const auto& [n, text] : texts) {
    if (n == name) return text;
  }
  throw util::ConfigError("unknown scenario '" + name + "'; available entries: " +
                          util::join(scenarioNames(), ", "));
}

ScenarioSpec findScenario(const std::string& name) {
  return parseScenario(scenarioText(name));
}

}  // namespace casched::scenario
