#pragma once
/// \file engine.hpp
/// Deterministic discrete-event simulation engine.
///
/// Events are (time, sequence) ordered; the sequence number makes simultaneous
/// events fire in scheduling order, so runs are bit-reproducible.
///
/// Storage is a pooled arena: each event lives in a recycled slot, callbacks
/// are held in a SmallFn (captures up to ~120 bytes stay inline in the slot),
/// and the ready order is an indexed 4-ary min-heap. Each heap entry carries
/// its own (time, seq) key next to the slot number, so sifting compares
/// entries without loading the arena, and the best of four children is picked
/// by a branch-free two-level tournament. Steady state schedules, cancels and
/// fires events without touching the heap allocator, and cancellation is a
/// true O(log n) removal through generation-tagged handles - no lazy-deletion
/// sets to purge.
///
/// Events known in advance (a run's metatask arrivals, its churn timeline)
/// go into sorted streams instead: only a stream's head sits in the heap, and
/// when it fires the next item replaces it at the root. The heap then holds
/// the events that are actually racing, not the whole future of the run. A
/// stream item gets its slot and sequence number when it is scheduled, just
/// like scheduleAt, so streams never change the firing order.

#include <cstdint>
#include <vector>

#include "simcore/time.hpp"
#include "util/small_fn.hpp"

namespace casched::simcore {

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled. Encodes (slot, generation): a recycled slot bumps its
/// generation, so stale handles can never cancel an unrelated later event.
struct EventHandle {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Names a stream opened by Simulator::openStream.
struct StreamId {
  std::uint32_t index = 0;
};

/// Discrete-event simulator. Single-threaded by design: one simulation per
/// engine; the experiment layer parallelizes across engines.
class Simulator {
 public:
  using Callback = util::SmallFn<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at` (>= now). Returns a cancellable
  /// handle.
  EventHandle scheduleAt(SimTime at, Callback cb);

  /// Schedules `cb` after `delay` seconds (>= 0).
  EventHandle scheduleAfter(SimTime delay, Callback cb);

  /// Opens an empty event stream. Streams live as long as the engine.
  StreamId openStream();

  /// Schedules `cb` at `at` (>= now) through `stream`. It fires exactly when
  /// scheduleAt(at, cb) called at this point would have; the stream only
  /// keeps it out of the heap until it is the stream's earliest item, so
  /// append items in time order to gain from it. An item earlier than the
  /// stream's last one still fires in order: it goes straight into the heap.
  /// Stream items cannot be cancelled.
  void scheduleInStream(StreamId stream, SimTime at, Callback cb);

  /// Cancels a pending event; no-op when the event already fired or was
  /// cancelled. Returns true when something was cancelled.
  bool cancel(EventHandle handle);

  /// Runs until the queue drains or `until` is reached (events at exactly
  /// `until` still fire). Returns the number of events executed.
  std::uint64_t run(SimTime until = kTimeInfinity);

  /// Executes at most one event; returns false when the queue is empty or the
  /// head is beyond `until`.
  bool step(SimTime until = kTimeInfinity);

  /// Runs every event due up to `t`, then moves the clock forward to `t` even
  /// when no event lands exactly there. This is how the distributed runtime
  /// slaves a simulator to the wall clock: each daemon pump advances its
  /// engine to the scaled wall time. Times before `now` are a no-op.
  std::uint64_t advanceTo(SimTime t);

  /// Requests run() to return after the current event completes.
  void requestStop() { stopRequested_ = true; }

  // Every non-empty stream has its head in the heap, so an empty heap means
  // nothing is pending anywhere.
  bool empty() const { return heap_.empty(); }
  std::size_t pendingEvents() const { return heap_.size() + queued_; }
  std::uint64_t executedEvents() const { return executed_; }

  /// Time of the earliest pending event, or kTimeInfinity.
  SimTime nextEventTime() const { return heap_.empty() ? kTimeInfinity : heap_[0].time; }

 private:
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  static constexpr std::uint32_t kNoStream = 0xffffffffu;

  struct Event {
    std::uint32_t gen = 0;  // bumped on release; invalidates old handles
    std::uint32_t heapPos = kNotInHeap;
    Callback cb;
  };

  /// A heap entry carries its event's order key, so sifting never loads the
  /// arena. `stream` names the stream whose head this is, or kNoStream.
  struct Entry {
    SimTime time;
    std::uint64_t seq;  // tie-break: FIFO among simultaneous events
    std::uint32_t slot;
    std::uint32_t stream;
  };

  struct Stream {
    std::vector<Entry> queued;  // items behind the head, in fire order
    std::size_t next = 0;       // first entry of `queued` still waiting
    bool headInHeap = false;
    SimTime tail = 0.0;  // time of the last item in the stream
  };

  /// Fires-before order: earlier time, then earlier sequence number. Written
  /// without short-circuits so that it compiles to flag arithmetic.
  static bool before(const Entry& a, const Entry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.seq < b.seq));
  }

  /// Clamps float drift on `at` to now, takes a slot for `cb` and returns
  /// the event's heap entry (not yet placed).
  Entry makeEntry(SimTime at, Callback cb, const char* what);
  void heapPush(const Entry& entry);
  void siftUp(std::uint32_t pos);
  void siftDown(std::uint32_t pos);
  void heapPlace(std::uint32_t pos, const Entry& entry) {
    heap_[pos] = entry;
    pool_[entry.slot].heapPos = pos;
  }
  /// Detaches the entry at heap position `pos` and restores the heap order.
  void heapRemove(std::uint32_t pos);
  /// Returns the slot to the free list and invalidates outstanding handles.
  void release(std::uint32_t slot);

  /// Handle layout: (slot + 1) in the high 32 bits (so id 0 stays the
  /// explicit "no event" value), generation in the low 32.
  static std::uint64_t packHandle(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(slot) + 1) << 32 | gen;
  }

  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_;  // recycled pool slots
  std::vector<Entry> heap_;          // 4-ary min-heap of pending events
  std::vector<Stream> streams_;
  std::size_t queued_ = 0;  // stream items waiting behind their heads
  SimTime now_ = 0.0;
  std::uint64_t nextSeq_ = 1;
  std::uint64_t executed_ = 0;
  bool stopRequested_ = false;
};

}  // namespace casched::simcore
