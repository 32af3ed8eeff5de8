/// Scenario runner: compiles a declarative scenario (registry entry or file)
/// and runs it under one or more heuristics, printing a comparison table and
/// the membership events that fired. It is the only front end that runs a
/// scenario file, and the only one that runs a scenario's [mesh] topology in
/// the simulator; bench_suite campaigns run every scenario on one agent.
/// `casched_report --registry` lists the registry entries.
///
///   ./scenario_runner --scenario churny-grid --heuristics mct,hmct
///   ./scenario_runner --file my.scn --seed 7

#include <iostream>

#include "exp/runner.hpp"
#include "metrics/metrics.hpp"
#include "scenario/generate.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace casched;
  util::ArgParser args("scenario_runner", "run a declarative scenario");
  args.addString("scenario", "churny-grid", "registry scenario name");
  args.addString("file", "", "scenario file (overrides --scenario)");
  args.addString("heuristics", "mct,hmct,mp,msf", "comma-separated heuristics");
  args.addInt("seed", 42, "master seed");
  args.addString("ft", "scenario", "fault tolerance: scenario | paper | all | none");
  try {
    if (!args.parse(argc, argv)) return 0;

    const std::string file = args.getString("file");
    const scenario::ScenarioSpec spec =
        file.empty() ? scenario::findScenario(args.getString("scenario"))
                     : scenario::loadScenario(file);
    const auto seed = static_cast<std::uint64_t>(args.getInt("seed"));
    const scenario::CompiledScenario compiled = scenario::compileScenario(spec, seed);

    std::cout << "Scenario '" << compiled.name << "': " << spec.description << "\n"
              << "  platform: " << compiled.testbed.servers.size() << " servers ("
              << compiled.testbed.name << ")\n"
              << "  workload: " << compiled.metatask.size() << " tasks, "
              << workload::arrivalKindName(spec.arrival.pattern.kind)
              << " arrivals, last at t="
              << util::formatNumber(compiled.metatask.lastArrival()) << "s\n"
              << "  churn:    " << compiled.churn.size() << " scheduled events\n\n";

    const exp::FaultTolerancePolicy ftPolicy =
        exp::parseFaultTolerancePolicy(args.getString("ft"));
    util::TablePrinter table("Scenario '" + compiled.name + "' (seed " +
                             std::to_string(seed) + ")");
    table.setHeader({"heuristic", "completed", "lost", "makespan", "mean flow",
                     "mean stretch", "joins", "leaves", "crashes", "slowdowns",
                     "links"});
    for (const std::string& h : util::split(args.getString("heuristics"), ',')) {
      const std::string heuristic = std::string(util::trim(h));
      if (heuristic.empty()) continue;
      scenario::CompiledScenario run = compiled;
      run.system.faultTolerance = exp::resolveFaultTolerance(
          ftPolicy, heuristic, compiled.system.faultTolerance);
      const metrics::RunResult result = scenario::runScenario(run, heuristic);
      const metrics::RunMetrics m = metrics::computeMetrics(result);
      table.addRow({heuristic, std::to_string(m.completed), std::to_string(m.lost),
                    util::formatNumber(m.makespan), util::formatNumber(m.meanFlow),
                    util::formatNumber(m.meanStretch, 2),
                    std::to_string(result.churn.joins),
                    std::to_string(result.churn.leaves),
                    std::to_string(result.churn.crashes),
                    std::to_string(result.churn.slowdowns),
                    std::to_string(result.churn.links)});
    }
    table.print(std::cout);
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
