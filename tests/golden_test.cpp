// Golden behaviour digests: one FNV digest per registry scenario x heuristic
// at a fixed seed and size, run through scenario::runScenario. Each digest
// folds the agent decision sequence (task, attempt, chosen server, placing
// agent, origin, decision instant) and every task's terminal outcome (status,
// server, attempts, quantised completion time), plus the run's churn, mesh
// and per-server counts. A change that moves any decision or completion time
// on any registry entry changes its digest.
//
// The expected values live in tests/data/behaviour_digests.txt. A change
// that is meant to alter behaviour regenerates the file with
//   CASCHED_GOLDEN_OUT=tests/data/behaviour_digests.txt ./build/golden_test
// and says which rows moved and why; a refactor must leave it untouched.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/decision.hpp"
#include "scenario/generate.hpp"
#include "scenario/registry.hpp"
#include "util/strings.hpp"

#ifndef CASCHED_TEST_DATA_DIR
#error "CASCHED_TEST_DATA_DIR must name the tests/data directory"
#endif

namespace casched {
namespace {

constexpr std::uint64_t kSeed = 12;
/// Every scenario's workload is cut to at most this many tasks.
constexpr std::size_t kMaxTasks = 150;
/// Simulated times are folded as integer multiples of this (seconds).
constexpr double kTimeQuantum = 1e-6;

/// 64-bit FNV-1a over little-endian words, length-prefixed strings and
/// quantised times.
class Fnv {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void text(const std::string& s) {
    word(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ULL;
    }
  }
  void time(double t) { word(static_cast<std::uint64_t>(std::llround(t / kTimeQuantum))); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

std::uint64_t behaviourDigest(const std::string& name, const std::string& heuristic) {
  scenario::ScenarioSpec spec = scenario::findScenario(name);
  if (spec.workload.count > kMaxTasks) spec.workload.count = kMaxTasks;
  const scenario::CompiledScenario compiled = scenario::compileScenario(spec, kSeed);

  obs::DecisionLog& log = obs::DecisionLog::global();
  log.enable(1 << 16);
  const metrics::RunResult result = scenario::runScenario(compiled, heuristic);
  log.disable();
  EXPECT_EQ(log.dropped(), 0u) << name << " " << heuristic;

  Fnv fnv;
  for (const obs::DecisionRecord& d : log.snapshot()) {
    fnv.word(d.taskId);
    fnv.word(static_cast<std::uint64_t>(d.attempt));
    fnv.text(d.chosen);
    fnv.text(d.agent);
    fnv.text(d.origin);
    fnv.time(d.time);
  }
  log.clear();
  for (const metrics::TaskOutcome& o : result.tasks) {
    fnv.word(o.index);
    fnv.word(static_cast<std::uint64_t>(o.status));
    fnv.text(o.server);
    fnv.word(static_cast<std::uint64_t>(o.attempts));
    fnv.time(o.completion);
  }
  fnv.time(result.endTime);
  for (const std::uint64_t n : {result.churn.joins, result.churn.leaves, result.churn.crashes,
                                result.churn.slowdowns, result.churn.links,
                                result.mesh.forwards, result.mesh.forwardDenies,
                                result.mesh.steals, result.mesh.parked}) {
    fnv.word(n);
  }
  for (const auto& [server, s] : result.servers) {
    fnv.text(server);
    fnv.word(s.tasksCompleted);
    fnv.word(s.tasksFailed);
    fnv.word(s.collapses);
  }
  return fnv.value();
}

/// "<scenario> <heuristic>" -> digest, in registry x campaign-heuristic order.
std::vector<std::pair<std::string, std::uint64_t>> computeDigests() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const std::string& name : scenario::scenarioNames()) {
    for (const std::string& h : scenario::findScenario(name).campaign.heuristics) {
      out.emplace_back(name + " " + h, behaviourDigest(name, h));
    }
  }
  return out;
}

std::string render(const std::vector<std::pair<std::string, std::uint64_t>>& digests) {
  std::ostringstream os;
  os << "# scenario heuristic digest  (seed " << kSeed << ", at most " << kMaxTasks
     << " tasks; see tests/golden_test.cpp)\n";
  for (const auto& [key, digest] : digests) {
    os << key << " " << util::strformat("%016llx", static_cast<unsigned long long>(digest))
       << "\n";
  }
  return os.str();
}

std::map<std::string, std::string> loadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t cut = line.rfind(' ');
    golden[line.substr(0, cut)] = line.substr(cut + 1);
  }
  return golden;
}

TEST(GoldenDigest, EveryRegistryScenarioAndHeuristicMatches) {
  const auto digests = computeDigests();
  if (const char* out = std::getenv("CASCHED_GOLDEN_OUT")) {
    std::ofstream(out) << render(digests);
    GTEST_SKIP() << "wrote " << digests.size() << " digests to " << out;
  }
  const std::string path = std::string(CASCHED_TEST_DATA_DIR) + "/behaviour_digests.txt";
  const std::map<std::string, std::string> golden = loadGolden(path);
  ASSERT_FALSE(golden.empty()) << "no digests in " << path;
  EXPECT_EQ(golden.size(), digests.size()) << "registry x heuristic set changed";
  for (const auto& [key, digest] : digests) {
    const auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << key << " has no golden digest";
    EXPECT_EQ(it->second,
              util::strformat("%016llx", static_cast<unsigned long long>(digest)))
        << key;
  }
}

TEST(GoldenDigest, RepeatedRunsAgree) {
  // The digest is a pure function of (scenario, heuristic, seed).
  EXPECT_EQ(behaviourDigest("mesh/saturated_rescue", "msf"),
            behaviourDigest("mesh/saturated_rescue", "msf"));
  EXPECT_EQ(behaviourDigest("churny-grid", "mct"), behaviourDigest("churny-grid", "mct"));
}

}  // namespace
}  // namespace casched
