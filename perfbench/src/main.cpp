// perfbench_driver: runs one benchmark workload against the casched library
// and prints its raw measurements as one JSON document on standard output.
// perfbench/run.py is the entry point; it passes the workload's parameters
// from perfbench/workloads.json.

#include <sched.h>

#include <iostream>

#include "bench.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace {

/// Pins the process, and every thread it starts later, to the highest CPU it
/// may run on (best effort). On a virtualized host, wakeups across virtual
/// CPUs pay the host's scheduling delay, which swamped the live workload's
/// tail latency; on one CPU the deployment (well under one CPU of work)
/// wakes locally. The simulator workloads run one thread and are not
/// pinned: a pinned campaign cannot move off a CPU that another process
/// also needs.
void pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casched;
  util::ArgParser args("perfbench_driver", "runs one benchmark workload, prints raw JSON");
  args.addString("kind", "sim", "sim | live");
  args.addInt("seed", 1, "input seed");
  args.addDouble("seconds", 10.0, "measured time");
  args.addBool("trace", false, "traced run: per-layer measurements");
  args.addString("scenario", "", "sim: registry scenario");
  args.addInt("tasks", 0, "sim: tasks per metatask (0 keeps the scenario's)");
  args.addInt("instances", 1, "sim: independently seeded campaigns per repetition");
  args.addInt("replications", 0, "sim: replications per metatask (0 keeps the scenario's)");
  args.addInt("max-retries", 0, "sim: fault-tolerance retry budget (0 keeps the scenario's)");
  try {
    if (!args.parse(argc, argv)) return 0;
    perfbench::Params p;
    p.kind = args.getString("kind");
    p.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    p.seconds = args.getDouble("seconds");
    p.trace = args.getBool("trace");
    p.scenario = args.getString("scenario");
    p.tasks = static_cast<std::size_t>(args.getInt("tasks"));
    p.instances = static_cast<std::size_t>(args.getInt("instances"));
    p.replications = static_cast<std::size_t>(args.getInt("replications"));
    p.maxRetries = static_cast<int>(args.getInt("max-retries"));
    CASCHED_CHECK(p.instances >= 1, "instances must be positive");
    util::Log::setLevel(util::LogLevel::kError);

    util::JsonWriter json;
    json.beginObject();
    json.key("kind").value(p.kind);
    json.key("seed").value(static_cast<std::uint64_t>(p.seed));
    json.key("trace").value(p.trace);
    if (p.kind == "sim") {
      perfbench::runSimWorkload(p, json);
    } else if (p.kind == "live") {
      pinToOneCpu();
      perfbench::runLiveWorkload(p, json);
    } else {
      throw util::ConfigError("unknown workload kind '" + p.kind + "'");
    }
    json.endObject();
    std::cout << json.str() << "\n" << std::flush;
    if (!std::cout) throw util::IoError("cannot write the result");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
