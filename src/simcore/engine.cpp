#include "simcore/engine.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace casched::simcore {

Simulator::Entry Simulator::makeEntry(SimTime at, Callback cb, const char* what) {
  CASCHED_CHECK(cb != nullptr, util::strformat("%s: null callback", what));
  // Tolerate tiny negative drift from floating-point arithmetic on completion
  // dates but reject genuinely past times.
  if (at < now_) {
    CASCHED_CHECK(timeAlmostEqual(at, now_),
                  util::strformat("%s: time %.9f is before now %.9f", what, at, now_));
    at = now_;
  }
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  pool_[slot].cb = std::move(cb);
  return Entry{at, nextSeq_++, slot, kNoStream};
}

EventHandle Simulator::scheduleAt(SimTime at, Callback cb) {
  const Entry entry = makeEntry(at, std::move(cb), "scheduleAt");
  heapPush(entry);
  return EventHandle{packHandle(entry.slot, pool_[entry.slot].gen)};
}

EventHandle Simulator::scheduleAfter(SimTime delay, Callback cb) {
  CASCHED_CHECK(delay >= 0.0, "scheduleAfter: negative delay");
  return scheduleAt(now_ + delay, std::move(cb));
}

StreamId Simulator::openStream() {
  streams_.emplace_back();
  return StreamId{static_cast<std::uint32_t>(streams_.size() - 1)};
}

void Simulator::scheduleInStream(StreamId stream, SimTime at, Callback cb) {
  CASCHED_CHECK(stream.index < streams_.size(), "scheduleInStream: unknown stream");
  Entry entry = makeEntry(at, std::move(cb), "scheduleInStream");
  Stream& s = streams_[stream.index];
  if (!s.headInHeap) {
    entry.stream = stream.index;
    s.headInHeap = true;
    s.tail = entry.time;
    heapPush(entry);
  } else if (entry.time < s.tail) {
    heapPush(entry);  // out of order: an ordinary event with the same key
  } else {
    entry.stream = stream.index;
    s.tail = entry.time;
    s.queued.push_back(entry);
    ++queued_;
  }
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>((handle.id >> 32) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(handle.id);
  if (slot >= pool_.size()) return false;
  const Event& ev = pool_[slot];
  if (ev.gen != gen || ev.heapPos == kNotInHeap) return false;  // fired/cancelled
  heapRemove(ev.heapPos);
  release(slot);
  return true;
}

void Simulator::heapPush(const Entry& entry) {
  heap_.push_back(entry);
  siftUp(static_cast<std::uint32_t>(heap_.size() - 1));
}

void Simulator::siftUp(std::uint32_t pos) {
  const Entry moving = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    heapPlace(pos, heap_[parent]);
    pos = parent;
  }
  heapPlace(pos, moving);
}

void Simulator::siftDown(std::uint32_t pos) {
  const Entry moving = heap_[pos];
  const Entry* h = heap_.data();
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    const std::uint32_t first = pos * 4 + 1;
    std::uint32_t best;
    if (first + 3 < n) {
      // Two-level tournament over the four children; the winners are picked
      // by arithmetic on the comparison results, not by branches.
      const std::uint32_t a = first + static_cast<std::uint32_t>(before(h[first + 1], h[first]));
      const std::uint32_t b =
          first + 2 + static_cast<std::uint32_t>(before(h[first + 3], h[first + 2]));
      best = a + (b - a) * static_cast<std::uint32_t>(before(h[b], h[a]));
    } else if (first < n) {
      best = first;
      for (std::uint32_t c = first + 1; c < n; ++c) {
        if (before(h[c], h[best])) best = c;
      }
    } else {
      break;
    }
    if (!before(h[best], moving)) break;
    heapPlace(pos, h[best]);
    pos = best;
  }
  heapPlace(pos, moving);
}

void Simulator::heapRemove(std::uint32_t pos) {
  pool_[heap_[pos].slot].heapPos = kNotInHeap;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail
  heapPlace(pos, last);
  // The moved entry may need to go either way relative to its new neighbors.
  if (pos > 0 && before(last, heap_[(pos - 1) / 4])) {
    siftUp(pos);
  } else {
    siftDown(pos);
  }
}

void Simulator::release(std::uint32_t slot) {
  Event& ev = pool_[slot];
  ++ev.gen;
  ev.heapPos = kNotInHeap;
  ev.cb.reset();
  free_.push_back(slot);
}

bool Simulator::step(SimTime until) {
  if (heap_.empty()) return false;
  const Entry top = heap_[0];
  if (top.time > until) return false;
  CASCHED_CHECK(top.time >= now_, "event queue went backwards in time");
  now_ = top.time;
  // Move the callback out and free the slot BEFORE invoking: the callback may
  // schedule new events (reusing this slot) or re-enter the engine.
  Callback cb = std::move(pool_[top.slot].cb);
  if (top.stream == kNoStream) {
    heapRemove(0);
  } else {
    // The stream's next item takes the root: one sift instead of a removal
    // plus a later insertion.
    Stream& s = streams_[top.stream];
    if (s.next < s.queued.size()) {
      heapPlace(0, s.queued[s.next]);
      if (++s.next == s.queued.size()) {
        s.queued.clear();
        s.next = 0;
      }
      --queued_;
      siftDown(0);
    } else {
      s.headInHeap = false;
      heapRemove(0);
    }
  }
  release(top.slot);
  ++executed_;
  cb();
  return true;
}

std::uint64_t Simulator::run(SimTime until) {
  stopRequested_ = false;
  std::uint64_t n = 0;
  while (!stopRequested_ && step(until)) ++n;
  if (until != kTimeInfinity && now_ < until && nextEventTime() > until) {
    now_ = until;  // advance the clock to the horizon even with no event there
  }
  return n;
}

std::uint64_t Simulator::advanceTo(SimTime t) {
  if (t <= now_) return 0;
  return run(t);
}

}  // namespace casched::simcore
