/// Suite driver: runs any set of registry scenarios as replicated campaigns
/// in one invocation - the paper's result tables, the ablation sweeps, the
/// production traffic scenarios, or all of them - and emits every paper-style
/// table, its CSV twin, and one JSON record with per-scenario aggregates and
/// throughput (events/sec). This is the CI entry point for the per-scenario
/// perf baseline (`mega-cluster` is the scale canary).
///
///   ./bench_suite --suite paper
///   ./bench_suite --suite ablations --replications 1
///   ./bench_suite --scenarios paper/table5_matmul_low,mega-cluster --tasks 120
///   ./bench_suite --compare bench_out/run_a.json,bench_out/run_b.json
///   ./bench_suite --scenarios live-loopback --compare-seeds 1,2
///
/// Groups: all | paper | ablations | churn | traffic, or an explicit comma
/// list. The two --compare modes produce a re-planning study (per-scenario
/// deltas, regressions flagged past --compare-threshold) written to
/// <out>/compare.md and echoed to stdout - an instrument, not a gate, so
/// both exit 0 regardless of what they find.

#include <fstream>
#include <iostream>

#include "exp/report.hpp"
#include "exp/suite.hpp"
#include "exp/tables.hpp"
#include "obs/decision.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

void writeFileOrDie(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw casched::util::IoError("cannot write '" + path + "'");
  out << text << "\n";
  std::cout << "[wrote " << path << "]\n";
}

std::vector<std::string> commaList(const std::string& value) {
  std::vector<std::string> out;
  for (const std::string& field : casched::util::split(value, ',')) {
    const std::string trimmed(casched::util::trim(field));
    if (!trimmed.empty()) out.push_back(trimmed);
  }
  return out;
}

casched::exp::SuiteOptions suiteOptionsFromFlags(const casched::util::ArgParser& args) {
  using namespace casched;
  exp::SuiteOptions options;
  options.seed = static_cast<std::uint64_t>(args.getInt("seed"));
  options.taskCount = static_cast<std::size_t>(args.getInt("tasks"));
  options.replications = static_cast<std::size_t>(args.getInt("replications"));
  options.metatasks = static_cast<std::size_t>(args.getInt("metatasks"));
  options.threads = static_cast<unsigned>(args.getInt("threads"));
  options.heuristics = commaList(args.getString("heuristics"));
  if (!args.getString("ft").empty()) {
    options.ftPolicy = exp::parseFaultTolerancePolicy(args.getString("ft"));
  }
  return options;
}

/// Prints one suite scenario: its paper-style table, per-server diagnostics
/// for unswept campaigns, and the perf record.
void printSuiteScenario(const casched::exp::SuiteScenarioResult& s) {
  using namespace casched;
  exp::renderSuiteScenarioTable(s).print(std::cout);
  if (!s.swept()) {
    std::cout << "\n";
    exp::renderServerDiagnostics(
        "Per-server diagnostics (first run of each heuristic)",
        s.variants.front().result)
        .print(std::cout);
  }
  std::cout << util::strformat(
      "\n[perf] %s: %.0f events/s (%llu events in %.2fs)\n", s.scenario.c_str(),
      s.eventsPerSecond(), static_cast<unsigned long long>(s.simulatedEvents),
      s.wallSeconds);
}

void emitComparison(const casched::exp::ReportSuite& a,
                    const casched::exp::ReportSuite& b, double thresholdPct,
                    const std::string& outDir) {
  casched::exp::CompareOptions options;
  options.thresholdPct = thresholdPct;
  const casched::exp::CompareOutcome outcome =
      casched::exp::compareSuites(a, b, options);
  casched::exp::emitText(outcome.markdown, outDir, "compare.md");
  std::cout << outcome.markdown;
  std::cout << "[wrote " << outDir << "/compare.md]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casched;
  util::ArgParser args("bench_suite",
                       "run registry scenarios as campaigns via the suite driver");
  args.addString("suite", "paper",
                 "scenario group: all | paper | ablations | churn | traffic");
  args.addString("scenarios", "", "explicit comma-separated list (overrides --suite)");
  args.addString("json", "suite", "base name of the aggregated JSON record");
  args.addString("trace", "",
                 "write the task-lifecycle trace here (Chrome trace-event JSON; "
                 "forces --threads 1 so the spans form one coherent timeline)");
  args.addString("decisions", "",
                 "write heuristic decision records here (JSON; forces --threads 1)");
  args.addString("compare", "",
                 "compare two existing suite records 'a.json,b.json' as a "
                 "re-planning study and exit (writes <out>/compare.md)");
  args.addString("compare-seeds", "",
                 "run the scenario list at two seeds 's1,s2' and emit a "
                 "seed-vs-seed re-planning comparison beside both records");
  args.addDouble("compare-threshold", 10.0,
                 "direction-aware regression flag threshold for comparisons, "
                 "in percent");
  // Suite-level overrides of what each registry scenario declares.
  args.addInt("seed", 42, "master seed");
  args.addInt("tasks", 0, "tasks per metatask (0 = scenario value)");
  args.addInt("replications", 0, "replications per metatask (0 = scenario value)");
  args.addInt("metatasks", 0, "distinct metatasks (0 = scenario value)");
  args.addString("heuristics", "", "heuristic list override (comma-separated)");
  args.addString("ft", "", "fault-tolerance policy override: scenario|paper|all|none");
  args.addInt("threads", 0, "replication threads (0 = hardware)");
  args.addString("out", "bench_out", "output directory for table/CSV/JSON twins");
  try {
    if (!args.parse(argc, argv)) return 0;

    // Pure post-processing mode: diff two records somebody already ran.
    const std::vector<std::string> compareFiles =
        commaList(args.getString("compare"));
    if (!compareFiles.empty()) {
      if (compareFiles.size() != 2) {
        throw util::ConfigError("--compare wants exactly two record files");
      }
      emitComparison(exp::loadSuiteRecord(compareFiles[0]),
                     exp::loadSuiteRecord(compareFiles[1]),
                     args.getDouble("compare-threshold"),
                     args.getString("out"));
      return 0;
    }

    const std::vector<std::string> names =
        scenario::resolveScenarioList(args.getString("scenarios").empty()
                                          ? args.getString("suite")
                                          : args.getString("scenarios"));
    exp::SuiteOptions options = suiteOptionsFromFlags(args);

    // Seed-vs-seed re-planning study: the same campaign twice, only the
    // master seed differs, so every delta is replication noise or a genuine
    // seed-sensitive regime change.
    const std::vector<std::string> compareSeeds =
        commaList(args.getString("compare-seeds"));
    if (!compareSeeds.empty()) {
      if (compareSeeds.size() != 2) {
        throw util::ConfigError("--compare-seeds wants exactly two seeds");
      }
      std::vector<exp::ReportSuite> parsed;
      for (const std::string& seedText : compareSeeds) {
        exp::SuiteOptions seeded = options;
        try {
          seeded.seed = std::stoull(seedText);
        } catch (const std::exception&) {
          throw util::ConfigError("--compare-seeds wants integers, got '" +
                                  seedText + "'");
        }
        exp::SuiteResult suite;
        suite.seed = seeded.seed;
        for (const std::string& name : names) {
          std::cout << "=== " << name << " (seed " << seedText << ") ===\n"
                    << std::flush;
          suite.scenarios.push_back(
              exp::runSuiteScenario(scenario::findScenario(name), seeded));
          printSuiteScenario(suite.scenarios.back());
          std::cout << "\n";
        }
        const std::string base = args.getString("json") + "_seed" + seedText;
        exp::emitSuite(suite, args.getString("out"), base);
        parsed.push_back(exp::parseSuiteRecord(
            util::JsonValue::parse(exp::suiteJson(suite)), "seed " + seedText));
      }
      emitComparison(parsed[0], parsed[1], args.getDouble("compare-threshold"),
                     args.getString("out"));
      return 0;
    }

    const bool tracing = !args.getString("trace").empty();
    const bool introspecting = !args.getString("decisions").empty();
    if (tracing || introspecting) {
      // Interleaved replication threads would shuffle records from unrelated
      // runs into one buffer; a single thread keeps the export readable.
      options.threads = 1;
      if (tracing) obs::TraceBuffer::global().enable(1 << 18);
      if (introspecting) obs::DecisionLog::global().enable(1 << 16);
    }

    exp::SuiteResult suite;
    suite.seed = options.seed;
    for (const std::string& name : names) {
      std::cout << "=== " << name << " ===\n" << std::flush;
      suite.scenarios.push_back(
          exp::runSuiteScenario(scenario::findScenario(name), options));
      printSuiteScenario(suite.scenarios.back());
      std::cout << "\n";
    }

    if (tracing) writeFileOrDie(args.getString("trace"),
                                obs::TraceBuffer::global().chromeTraceJson());
    if (introspecting) writeFileOrDie(args.getString("decisions"),
                                      obs::DecisionLog::global().json());

    exp::emitSuite(suite, args.getString("out"), args.getString("json"));
    std::cout << "[wrote " << args.getString("out") << "/<scenario>.{txt,csv} and "
              << args.getString("out") << "/" << args.getString("json")
              << ".json for " << suite.scenarios.size() << " scenarios]\n";
    return 0;
  } catch (const util::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
