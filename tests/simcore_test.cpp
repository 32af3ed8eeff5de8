// Tests for the discrete-event engine and the deterministic RNG streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "simcore/engine.hpp"
#include "simcore/rng.hpp"
#include "util/error.hpp"

namespace casched::simcore {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.scheduleAt(3.0, [&] { order.push_back(3); });
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleAt(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.scheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ScheduleAfterUsesNow) {
  Simulator sim;
  double fired = -1.0;
  sim.scheduleAt(5.0, [&] {
    sim.scheduleAfter(2.5, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired, 7.5);
}

TEST(Engine, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle h = sim.scheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(h));
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.executedEvents(), 0u);
}

TEST(Engine, CancelTwiceIsFalse) {
  Simulator sim;
  EventHandle h = sim.scheduleAt(1.0, [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Engine, CancelAfterFireIsFalse) {
  Simulator sim;
  EventHandle h = sim.scheduleAt(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(h));
}

TEST(Engine, CancelInvalidHandle) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{}));
}

TEST(Engine, RunUntilHorizonAdvancesClock) {
  Simulator sim;
  sim.scheduleAt(10.0, [] {});
  const std::uint64_t n = sim.run(4.0);
  EXPECT_EQ(n, 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Engine, EventAtExactHorizonFires) {
  Simulator sim;
  bool fired = false;
  sim.scheduleAt(4.0, [&] { fired = true; });
  sim.run(4.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, RequestStopEndsRun) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.scheduleAt(i, [&] {
      if (++count == 3) sim.requestStop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pendingEvents(), 7u);
}

TEST(Engine, SelfReschedulingCallback) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 5) sim.scheduleAfter(1.0, tick);
  };
  sim.scheduleAfter(1.0, tick);
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Engine, PastTimeRejected) {
  Simulator sim;
  sim.scheduleAt(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(1.0, [] {}), util::Error);
}

TEST(Engine, NullCallbackRejected) {
  Simulator sim;
  EXPECT_THROW(sim.scheduleAt(1.0, nullptr), util::Error);
}

TEST(Engine, NextEventTimeSkipsCancelled) {
  Simulator sim;
  EventHandle h = sim.scheduleAt(1.0, [] {});
  sim.scheduleAt(2.0, [] {});
  sim.cancel(h);
  EXPECT_DOUBLE_EQ(sim.nextEventTime(), 2.0);
}

TEST(Engine, EmptyQueueNextEventIsInfinity) {
  Simulator sim;
  EXPECT_EQ(sim.nextEventTime(), kTimeInfinity);
  EXPECT_TRUE(sim.empty());
}

TEST(EngineStream, ItemsFireInTimeOrderAmongHeapEvents) {
  Simulator sim;
  std::vector<int> order;
  const StreamId s = sim.openStream();
  sim.scheduleInStream(s, 1.0, [&] { order.push_back(1); });
  sim.scheduleInStream(s, 3.0, [&] { order.push_back(3); });
  sim.scheduleInStream(s, 5.0, [&] { order.push_back(5); });
  sim.scheduleAt(2.0, [&] { order.push_back(2); });
  sim.scheduleAt(4.0, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EngineStream, EqualTimesKeepSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const StreamId a = sim.openStream();
  const StreamId b = sim.openStream();
  sim.scheduleInStream(a, 1.0, [&] { order.push_back(0); });
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleInStream(b, 1.0, [&] { order.push_back(2); });
  sim.scheduleInStream(a, 1.0, [&] { order.push_back(3); });
  sim.scheduleInStream(b, 1.0, [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EngineStream, OutOfOrderItemStillFiresInOrder) {
  Simulator sim;
  std::vector<int> order;
  const StreamId s = sim.openStream();
  sim.scheduleInStream(s, 2.0, [&] { order.push_back(2); });
  sim.scheduleInStream(s, 6.0, [&] { order.push_back(6); });
  sim.scheduleInStream(s, 4.0, [&] { order.push_back(4); });  // before the tail
  sim.scheduleInStream(s, 1.0, [&] { order.push_back(1); });  // before the head
  sim.scheduleInStream(s, 6.0, [&] { order.push_back(7); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 6, 7}));
}

TEST(EngineStream, PendingEventsCountsEveryStreamItem) {
  Simulator sim;
  const StreamId s = sim.openStream();
  for (int i = 1; i <= 5; ++i) sim.scheduleInStream(s, i, [] {});
  sim.scheduleAt(2.5, [] {});
  EXPECT_EQ(sim.pendingEvents(), 6u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pendingEvents(), 5u);
  sim.run(3.0);
  EXPECT_EQ(sim.pendingEvents(), 2u);
  sim.run();
  EXPECT_EQ(sim.pendingEvents(), 0u);
  EXPECT_EQ(sim.executedEvents(), 6u);
}

TEST(EngineStream, NextEventTimeAndEmptySeeTheStreamHead) {
  Simulator sim;
  const StreamId s = sim.openStream();
  EXPECT_TRUE(sim.empty());
  sim.scheduleInStream(s, 3.0, [] {});
  sim.scheduleInStream(s, 7.0, [] {});
  EXPECT_FALSE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.nextEventTime(), 3.0);
  sim.run(5.0);
  EXPECT_FALSE(sim.empty());
  EXPECT_DOUBLE_EQ(sim.nextEventTime(), 7.0);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.nextEventTime(), kTimeInfinity);
  // A drained stream takes new items again.
  sim.scheduleInStream(s, 8.0, [] {});
  EXPECT_DOUBLE_EQ(sim.nextEventTime(), 8.0);
  EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST(EngineStream, RejectsPastTimesNullCallbacksAndUnknownStreams) {
  Simulator sim;
  const StreamId s = sim.openStream();
  sim.scheduleAt(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleInStream(s, 1.0, [] {}), util::Error);
  EXPECT_THROW(sim.scheduleInStream(s, 6.0, nullptr), util::Error);
  EXPECT_THROW(sim.scheduleInStream(StreamId{7}, 6.0, [] {}), util::Error);
}

// Differential model test: random programs of scheduleAt / scheduleAfter /
// cancel / scheduleInStream / step / run(until), with callbacks that schedule
// more events, against a reference queue that is a plain ordered set of
// (time, seq). Every schedule call takes the next sequence number in both,
// so the engine must fire exactly the reference's minimum every time.
class ReferenceRun {
 public:
  explicit ReferenceRun(std::uint64_t seed) : rng_(seed) {
    const int streams = 1 + static_cast<int>(rng_.nextBelow(3));
    for (int i = 0; i < streams; ++i) {
      streams_.push_back(sim_.openStream());
      streamTail_.push_back(0.0);
    }
  }

  /// Runs one random program; returns "" or the first divergence.
  std::string play() {
    for (int op = 0; op < 120 && error_.empty(); ++op) {
      const std::uint64_t pick = rng_.nextBelow(100);
      if (pick < 25) {
        scheduleHeap(rng_.nextBelow(2) == 0);
      } else if (pick < 55) {
        scheduleStream(rng_.nextBelow(streams_.size()));
      } else if (pick < 70) {
        cancelSome();
      } else if (pick < 85) {
        const bool due = !model_.empty();
        if (sim_.step() != due) fail("step() disagrees with the reference");
      } else if (pick < 97) {
        runUntil(sim_.now() + 0.25 * static_cast<double>(rng_.nextBelow(12)));
      } else {
        runUntil(kTimeInfinity);
      }
      checkCounts();
    }
    if (error_.empty()) runUntil(kTimeInfinity);
    if (error_.empty() && fired_ != expectedFires_) fail("fire count differs");
    return error_;
  }

 private:
  using Key = std::tuple<SimTime, std::uint64_t, int>;  // (time, seq, id)

  void fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream out;
      out << what << " (now " << sim_.now() << ", " << fired_ << " fired)";
      error_ = out.str();
    }
  }

  /// Times on a 0.25 grid, so equal times are common and exact.
  SimTime futureTime() { return sim_.now() + 0.25 * static_cast<double>(rng_.nextBelow(16)); }

  Simulator::Callback callback(int id) {
    return [this, id] { onFire(id); };
  }

  void scheduleHeap(bool after) {
    const int id = nextId_++;
    const SimTime at = futureTime();
    const EventHandle h = after ? sim_.scheduleAfter(at - sim_.now(), callback(id))
                                : sim_.scheduleAt(at, callback(id));
    handles_.emplace_back(h, Key{at, nextSeq_, id});
    model_.insert(Key{at, nextSeq_++, id});
    ++expectedFires_;
  }

  void scheduleStream(std::size_t which) {
    const int id = nextId_++;
    SimTime at;
    if (rng_.nextBelow(5) == 0) {
      at = futureTime();  // may land before the stream's tail
    } else {
      at = std::max(sim_.now(),
                    streamTail_[which] + 0.25 * static_cast<double>(rng_.nextBelow(6)));
    }
    streamTail_[which] = std::max(streamTail_[which], at);
    sim_.scheduleInStream(streams_[which], at, callback(id));
    model_.insert(Key{at, nextSeq_++, id});
    ++expectedFires_;
  }

  void cancelSome() {
    if (handles_.empty()) return;
    const auto& [handle, key] = handles_[rng_.nextBelow(handles_.size())];
    const bool pending = model_.count(key) != 0;
    if (sim_.cancel(handle) != pending) fail("cancel() disagrees with the reference");
    if (pending) {
      model_.erase(key);
      --expectedFires_;
    }
  }

  void onFire(int id) {
    ++fired_;
    if (model_.empty()) return fail("fired with an empty reference queue");
    const Key head = *model_.begin();
    if (std::get<2>(head) != id || std::get<0>(head) != sim_.now()) {
      return fail("fired id " + std::to_string(id) + ", reference expected id " +
                  std::to_string(std::get<2>(head)));
    }
    model_.erase(model_.begin());
    // Self-rescheduling callbacks, bounded so every program terminates.
    if (budget_ > 0 && rng_.nextBelow(3) == 0) {
      --budget_;
      if (rng_.nextBelow(2) == 0) {
        scheduleHeap(true);
      } else {
        scheduleStream(rng_.nextBelow(streams_.size()));
      }
    }
  }

  void runUntil(SimTime until) {
    const SimTime before = sim_.now();
    sim_.run(until);
    if (!model_.empty() && std::get<0>(*model_.begin()) <= until) {
      fail("run(until) left a due event behind");
    }
    const SimTime expectedNow = until == kTimeInfinity ? sim_.now() : std::max(before, until);
    if (sim_.now() != expectedNow) fail("run(until) left the clock off the horizon");
  }

  void checkCounts() {
    if (sim_.pendingEvents() != model_.size()) fail("pendingEvents() differs");
    if (sim_.empty() != model_.empty()) fail("empty() differs");
    const SimTime next = model_.empty() ? kTimeInfinity : std::get<0>(*model_.begin());
    if (sim_.nextEventTime() != next) fail("nextEventTime() differs");
  }

  Simulator sim_;
  Xoshiro256 rng_;
  std::vector<StreamId> streams_;
  std::vector<SimTime> streamTail_;
  std::set<Key> model_;
  std::vector<std::pair<EventHandle, Key>> handles_;
  std::uint64_t nextSeq_ = 0;
  int nextId_ = 0;
  int budget_ = 60;
  std::uint64_t fired_ = 0;
  std::uint64_t expectedFires_ = 0;
  std::string error_;
};

TEST(EngineStream, MatchesReferenceQueueOnRandomPrograms) {
  constexpr std::uint64_t kSeeds = 3000;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::string error = ReferenceRun(seed).play();
    if (!error.empty()) {
      ADD_FAILURE() << "seed " << seed << ": " << error;
      return;
    }
  }
}

TEST(Rng, DeterministicStreams) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, DeriveSeedIndependence) {
  const std::uint64_t m = 1234;
  EXPECT_NE(deriveSeed(m, 0), deriveSeed(m, 1));
  EXPECT_NE(deriveSeed(m, 1), deriveSeed(m, 2));
  EXPECT_EQ(deriveSeed(m, 7), deriveSeed(m, 7));
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 g(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = g.nextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Xoshiro256 g(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(g.nextBelow(7), 7u);
  EXPECT_THROW(g.nextBelow(0), util::Error);
}

TEST(Rng, UniformIntInclusiveRange) {
  RandomStream rs(3);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rs.uniformInt(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    sawLo |= (v == 2);
    sawHi |= (v == 4);
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanConverges) {
  RandomStream rs(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rs.exponentialMean(20.0);
  EXPECT_NEAR(sum / n, 20.0, 0.3);
}

TEST(Rng, NormalMoments) {
  RandomStream rs(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rs.normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.1);
}

TEST(Rng, DiscretePicksByWeight) {
  RandomStream rs(17);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[rs.discrete({1.0, 0.0, 3.0})];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, DiscreteValidation) {
  RandomStream rs(1);
  EXPECT_THROW(rs.discrete({}), util::Error);
  EXPECT_THROW(rs.discrete({0.0, 0.0}), util::Error);
  EXPECT_THROW(rs.discrete({-1.0, 2.0}), util::Error);
}

TEST(Rng, BernoulliEdges) {
  RandomStream rs(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rs.bernoulli(0.0));
    EXPECT_TRUE(rs.bernoulli(1.0));
  }
}

}  // namespace
}  // namespace casched::simcore
