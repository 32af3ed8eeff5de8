// The host-speed reference: fixed work of the benchmark's own, timed between
// a simulator workload's campaigns.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kHeapSize = 2048;
constexpr std::size_t kTableSize = 1 << 13;  // a power of two
constexpr std::size_t kRecords = 128;
constexpr int kSteps = 55000;
volatile double gSink = 0.0;  ///< keeps the work from being optimized away

/// One in-flight record of the trace-like part: a phase (which sets its
/// progress rate) and the work it has left.
struct Record {
  int phase;
  double remaining;
};

}  // namespace

double referenceWorkSeconds() {
  const double start = processCpuSeconds();
  std::vector<double> heap;
  heap.reserve(kHeapSize + 1);
  std::vector<std::uint64_t> table(kTableSize, 0);
  std::vector<Record> records;
  records.reserve(kRecords + 1);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
  };
  for (std::size_t i = 0; i < kRecords; ++i) {
    records.push_back({static_cast<int>(i % 3), 1.0 + static_cast<double>(next() >> 44)});
  }
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t r = next();
    // An event heap at a fixed size: push one, pop the earliest.
    heap.push_back(static_cast<double>(r >> 40));
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > kHeapSize) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += heap.back();
      heap.pop_back();
    }
    // A keyed table with linear probing.
    const std::uint64_t key = (r >> 33) | 1;
    std::size_t slot = key & (kTableSize - 1);
    while (table[slot] != 0 && table[slot] != key && (slot & 7) != 7) {
      slot = (slot + 1) & (kTableSize - 1);
    }
    table[slot] = key;
    // Every fourth step, one round of a fair-share trace: the time to the
    // next finish at per-phase rates, every record advanced by it, the
    // finished one replaced.
    if ((i & 3) == 0) {
      const double rates[3] = {1.0, 0.5 + static_cast<double>(i & 7), 0.25};
      double dt = std::numeric_limits<double>::infinity();
      std::size_t first = 0;
      for (std::size_t j = 0; j < records.size(); ++j) {
        const double t = records[j].remaining / rates[records[j].phase];
        if (t < dt) {
          dt = t;
          first = j;
        }
      }
      for (Record& rec : records) rec.remaining -= rates[rec.phase] * dt;
      records.erase(records.begin() + static_cast<std::ptrdiff_t>(first));
      records.push_back({static_cast<int>(r % 3), 1.0 + static_cast<double>(r >> 44)});
      acc += dt;
    }
  }
  gSink = acc + static_cast<double>(table[x & (kTableSize - 1)]);
  return processCpuSeconds() - start;
}

}  // namespace perfbench
