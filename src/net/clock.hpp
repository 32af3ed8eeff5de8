#pragma once
/// \file clock.hpp
/// Wall-clock pacing for the distributed runtime. Every live daemon owns a
/// discrete-event Simulator (the same engine the reproduction benches use)
/// and, at the start of each runOnce() turn, advances it to
/// `scale * wallElapsed`. Between turns a daemon blocked in its run() loop
/// sleeps until its next timer is due, which wallAt() converts from
/// simulated to wall time. Sharing one PacedClock (same epoch, same scale)
/// across the daemons of a deployment keeps their simulation clocks aligned,
/// so completion dates and load-report sample times stay comparable across
/// the wire.

#include <algorithm>
#include <chrono>

namespace casched::net {

class PacedClock {
 public:
  using WallClock = std::chrono::steady_clock;

  /// `timeScale` is simulated seconds per wall second (200 runs a 10-minute
  /// scenario in three wall seconds); the epoch defaults to "now".
  explicit PacedClock(double timeScale = 1.0,
                      WallClock::time_point epoch = WallClock::now())
      : scale_(timeScale), epoch_(epoch) {}

  double timeScale() const { return scale_; }
  WallClock::time_point epoch() const { return epoch_; }

  /// Simulated time at wall instant `at`.
  double simAt(WallClock::time_point at) const {
    return scale_ * std::chrono::duration<double>(at - epoch_).count();
  }

  /// Simulated time corresponding to the current wall clock.
  double simNow() const { return simAt(WallClock::now()); }

  /// The wall instant at which simulated time reaches `simTime`, rounded up
  /// to the clock's tick plus one tick, so that floating-point rounding never
  /// makes simAt() of the result fall short: a daemon woken there finds the
  /// timer due. Times before the epoch map to the epoch; infinite, NaN and
  /// far-future times (past a billion wall seconds) to time_point::max().
  WallClock::time_point wallAt(double simTime) const {
    const double wallSeconds = std::max(simTime / scale_, 0.0);
    if (!(wallSeconds < 1e9)) return WallClock::time_point::max();
    return epoch_ +
           std::chrono::ceil<WallClock::duration>(std::chrono::duration<double>(wallSeconds)) +
           WallClock::duration(1);
  }

  /// Wall seconds elapsed since the epoch.
  double wallElapsed() const {
    return std::chrono::duration<double>(WallClock::now() - epoch_).count();
  }

  /// Shifts the epoch so simNow() equals `simTime` right now. Server daemons
  /// call this with the agent's clock from the registration ack, aligning
  /// independently started processes.
  void resyncTo(double simTime) {
    epoch_ = WallClock::now() - std::chrono::duration_cast<WallClock::duration>(
                                    std::chrono::duration<double>(simTime / scale_));
  }

 private:
  double scale_;
  WallClock::time_point epoch_;
};

/// A fixed wall-clock deadline, for registration waits, client timeouts and
/// test pumps.
class WallDeadline {
 public:
  explicit WallDeadline(double seconds)
      : at_(PacedClock::WallClock::now() +
            std::chrono::duration_cast<PacedClock::WallClock::duration>(
                std::chrono::duration<double>(seconds))) {}

  bool passed() const { return PacedClock::WallClock::now() > at_; }
  PacedClock::WallClock::time_point at() const { return at_; }

 private:
  PacedClock::WallClock::time_point at_;
};

}  // namespace casched::net
