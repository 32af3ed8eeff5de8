#include "obs/http_export.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace casched::obs {

namespace {
[[noreturn]] void throwErrno(const std::string& what) {
  throw util::IoError(what + ": " + std::strerror(errno));
}

/// Sends the response to a scrape whose request reads `request`; the
/// caller closes the socket.
void respond(int client, const std::string& request) {
  const StatsFormat format = request.find("json") != std::string::npos
                                 ? StatsFormat::kJson
                                 : StatsFormat::kPrometheus;
  const std::string body = renderStats(Registry::global().snapshot(), format);
  const std::string response = httpOkResponse(
      body, format == StatsFormat::kJson ? "application/json"
                                         : "text/plain; version=0.0.4; charset=utf-8");
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n =
        ::send(client, response.data() + sent, response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
}
}  // namespace

std::string httpOkResponse(const std::string& body, const std::string& contentType) {
  std::ostringstream out;
  out << "HTTP/1.0 200 OK\r\n"
      << "Content-Type: " << contentType << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

MetricsHttpServer::MetricsHttpServer(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throwErrno("socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throwErrno("bind metrics port");
  }
  if (::listen(fd_, 8) != 0 || ::fcntl(fd_, F_SETFL, O_NONBLOCK) != 0) {
    ::close(fd_);
    throwErrno("listen metrics port");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    throwErrno("getsockname metrics port");
  }
  port_ = ntohs(addr.sin_port);
}

MetricsHttpServer::~MetricsHttpServer() {
  for (const Held& h : held_) ::close(h.fd);
  if (fd_ >= 0) ::close(fd_);
}

MetricsHttpServer::WallClock::time_point MetricsHttpServer::nextDropAt() const {
  // Held in accept order, so the first one is dropped first.
  return held_.empty() ? WallClock::time_point::max() : held_.front().dropAt;
}

std::size_t MetricsHttpServer::pollOnce() {
  const WallClock::time_point now = WallClock::now();
  while (held_.size() < kMaxHeld) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: nothing pending
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    held_.push_back({client, now + kRequestTimeout});
  }

  std::size_t served = 0;
  std::size_t kept = 0;
  for (const Held& h : held_) {
    char buf[1024];
    const ssize_t n = ::recv(h.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) &&
        now < h.dropAt) {
      held_[kept++] = h;  // request not here yet
      continue;
    }
    if (n > 0) {
      respond(h.fd, std::string(buf, static_cast<std::size_t>(n)));
      ++served;
    }
    ::close(h.fd);
  }
  held_.resize(kept);
  return served;
}

}  // namespace casched::obs
