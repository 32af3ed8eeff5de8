#include "cas/client.hpp"

#include "util/error.hpp"

namespace casched::cas {

Client::Client(simcore::Simulator& sim, Agent& agent, double controlLatency)
    : sim_(sim), agent_(agent), latency_(controlLatency) {
  CASCHED_CHECK(latency_ >= 0.0, "latency must be non-negative");
}

void Client::submitMetatask(const workload::Metatask& metatask) {
  // Consecutive tasks sharing an arrival date form one placement batch: a
  // single submission event hands them to Agent::scheduleBatch, amortizing
  // one HTM refresh over the run. Placements are identical to per-task
  // events at the same instant (a batch of one IS requestSchedule, and each
  // task in a batch sees its predecessors' commits exactly as sequential
  // requests at that time would). The submissions go through one stream:
  // only the next one waits in the event heap.
  const std::vector<workload::TaskInstance>& tasks = metatask.tasks;
  const simcore::StreamId arrivals = sim_.openStream();
  for (std::size_t i = 0; i < tasks.size();) {
    std::size_t j = i + 1;
    while (j < tasks.size() && tasks[j].arrival == tasks[i].arrival) ++j;
    submitted_ += j - i;
    std::vector<workload::TaskInstance> group(
        tasks.begin() + static_cast<std::ptrdiff_t>(i),
        tasks.begin() + static_cast<std::ptrdiff_t>(j));
    sim_.scheduleInStream(arrivals, tasks[i].arrival + latency_,
                          [this, group = std::move(group)] { agent_.scheduleBatch(group); });
    i = j;
  }
}

}  // namespace casched::cas
