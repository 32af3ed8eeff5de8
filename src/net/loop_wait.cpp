#include "net/loop_wait.hpp"

#include <ctime>

#include "obs/metrics.hpp"

namespace casched::net {

LoopWait::LoopWait(const std::string& daemon)
    : turns_(obs::Registry::global().counter("casched_net_loop_turns_total",
                                             "Turns of a live daemon's run() loop",
                                             {{"daemon", daemon}})),
      waitSeconds_(obs::Registry::global().histogram(
          "casched_net_loop_wait_seconds",
          {1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2},
          "Wall seconds a live daemon's run() loop blocked per turn",
          {{"daemon", daemon}})) {}

void LoopWait::reset() {
  fds_.clear();
  deadline_ = WallClock::now() + kStopCap;
}

void LoopWait::watch(int fd) {
  if (fd >= 0) fds_.push_back({fd, POLLIN, 0});
}

void LoopWait::wait() {
  const WallClock::time_point start = WallClock::now();
  if (deadline_ > start) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(deadline_ - start);
    const timespec timeout{static_cast<std::time_t>(ns.count() / 1'000'000'000),
                           static_cast<long>(ns.count() % 1'000'000'000)};
    // Readiness, timeout and EINTR all end the wait the same way: the next
    // runOnce() reads whatever is there and fires whatever is due.
    ::ppoll(fds_.data(), fds_.size(), &timeout, nullptr);
  }
  turns_.inc();
  waitSeconds_.observe(std::chrono::duration<double>(WallClock::now() - start).count());
}

}  // namespace casched::net
