#pragma once
/// \file loop_wait.hpp
/// The one blocking call of a live daemon's run() loop. After each
/// runOnce() turn the daemon lists every socket it reads and its earliest
/// timer deadline, then blocks in a single ppoll until a socket is readable
/// (or hung up) or the deadline passes. Deadlines kept in simulated time go
/// through PacedClock::wallAt, which rounds up, so a wake is never early and
/// the loop does not spin on a timer that is not due yet.

#include <poll.h>

#include <chrono>
#include <string>
#include <vector>

#include "net/clock.hpp"

namespace casched::obs {
class Counter;
class Histogram;
}  // namespace casched::obs

namespace casched::net {

/// Longest single wait. run(stop) polls a plain atomic flag that nothing can
/// wake, so this bounds how long a daemon takes to notice it was stopped.
inline constexpr std::chrono::milliseconds kStopCap{10};

class LoopWait {
 public:
  using WallClock = PacedClock::WallClock;

  /// `daemon` labels the loop metrics: "agent", "server" or "client".
  explicit LoopWait(const std::string& daemon);

  /// Starts a turn's wait set: no sockets, deadline kStopCap from now.
  void reset();
  /// Wakes when `fd` is readable or hung up; negative descriptors are ignored.
  void watch(int fd);
  /// Wakes no later than `at`; a daemon passes clock.wallAt(simDeadline).
  void wakeBy(WallClock::time_point at) {
    if (at < deadline_) deadline_ = at;
  }

  /// Blocks until a watched socket is ready or the deadline passes (a signal
  /// ends the wait early), then counts the turn and the seconds it blocked.
  void wait();

 private:
  std::vector<pollfd> fds_;
  WallClock::time_point deadline_;
  obs::Counter& turns_;
  obs::Histogram& waitSeconds_;
};

}  // namespace casched::net
