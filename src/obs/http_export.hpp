#pragma once
/// \file http_export.hpp
/// Minimal HTTP/1.0 metrics endpoint (POSIX sockets, loopback only): each
/// request gets the current registry snapshot as Prometheus text, or JSON
/// when the path mentions "json". One non-blocking listener polled from the
/// owning daemon's pump loop - no threads, no HTTP library. An accepted
/// scrape is held, never waited on, until its request is readable, so a
/// silent connection cannot stall the daemon; one still silent after
/// kRequestTimeout is dropped unanswered.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace casched::obs {

/// Full HTTP response bytes for `body` (status 200, Connection: close).
std::string httpOkResponse(const std::string& body, const std::string& contentType);

class MetricsHttpServer {
 public:
  using WallClock = std::chrono::steady_clock;

  /// How long an accepted scrape may stay silent before it is dropped.
  static constexpr std::chrono::milliseconds kRequestTimeout{1000};
  /// Scrapes held at once; further connections wait in the listen backlog.
  static constexpr std::size_t kMaxHeld = 32;

  /// Binds 127.0.0.1:`port` (0 picks a free port); throws util::IoError on
  /// failure.
  explicit MetricsHttpServer(std::uint16_t port);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepts every pending connection, answers each held scrape whose
  /// request has arrived and drops those past kRequestTimeout; returns the
  /// number of requests served. Never waits for a socket.
  std::size_t pollOnce();

  /// Calls `fn(fd)` for every descriptor whose readiness gives pollOnce()
  /// work: each held scrape, and the listener while there is room to accept.
  template <typename Fn>
  void forEachFd(Fn&& fn) const {
    if (held_.size() < kMaxHeld) fn(fd_);
    for (const Held& h : held_) fn(h.fd);
  }

  /// When the oldest held scrape is dropped; time_point::max() when none is
  /// held.
  WallClock::time_point nextDropAt() const;

 private:
  struct Held {
    int fd;
    WallClock::time_point dropAt;
  };

  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Held> held_;
};

}  // namespace casched::obs
