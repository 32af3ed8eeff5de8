#include "wire/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace casched::wire {

namespace {
[[noreturn]] void throwErrno(const std::string& what) {
  throw util::IoError(what + ": " + std::strerror(errno));
}

/// Process-wide wire traffic instruments: every TcpTransport (agent, server,
/// client, peer links) funnels through send/poll, so counting here covers
/// the whole daemon. messagesOut counts logical messages (each inner message
/// of a coalesced frame counts), so messagesOut - framesOut is the traffic
/// coalescing saved.
struct WireInstruments {
  obs::Counter& framesOut;
  obs::Counter& bytesOut;
  obs::Counter& framesIn;
  obs::Counter& bytesIn;
  obs::Counter& decodeErrors;
  obs::Counter& messagesOut;
  obs::Counter& coalescedFramesOut;

  static WireInstruments& get() {
    auto& reg = obs::Registry::global();
    static WireInstruments* instruments = new WireInstruments{
        reg.counter("casched_net_frames_out_total", "Wire frames sent over TCP"),
        reg.counter("casched_net_bytes_out_total", "Bytes sent over TCP (framing included)"),
        reg.counter("casched_net_frames_in_total", "Wire frames decoded from TCP"),
        reg.counter("casched_net_bytes_in_total", "Bytes received over TCP"),
        reg.counter("casched_net_decode_errors_total",
                    "Frames rejected by the decoder (any kind)"),
        reg.counter("casched_net_messages_out_total",
                    "Logical messages sent over TCP (coalesced frames count "
                    "every inner message)"),
        reg.counter("casched_net_coalesced_frames_out_total",
                    "Frames that carried more than one message"),
    };
    return *instruments;
  }
};

/// Per-kind rejection counters ("checksum", "version", "schema", ...); the
/// plain total above stays for dashboards that predate the kinds.
void countDecodeError(const util::DecodeError& e) {
  WireInstruments::get().decodeErrors.inc();
  const char* kind = "message";
  if (const auto* framed = dynamic_cast<const FrameDecodeError*>(&e)) {
    kind = frameErrorName(framed->kind());
  }
  obs::Registry::global()
      .counter("casched_net_decode_errors_total",
               "Frames rejected by the decoder (any kind)", {{"kind", kind}})
      .inc();
}
}  // namespace

std::shared_ptr<TcpTransport> TcpTransport::connect(const std::string& host,
                                                    std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throwErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw util::IoError("invalid address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throwErrno("connect");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::shared_ptr<TcpTransport>(new TcpTransport(fd));
  transport->sendSchemaHello();
  return transport;
}

TcpTransport::~TcpTransport() { close(); }

void TcpTransport::send(MessageType type, const Bytes& payload) {
  if (closed_) return;
  const Bytes frame = buildFrame(type, payload);
  WireInstruments& ins = WireInstruments::get();
  ins.framesOut.inc();
  ins.bytesOut.inc(frame.size());
  if (type == MessageType::kCoalesced && payload.size() >= 6) {
    // Envelope body is [u16 inner][u32 count]...; count the inner messages.
    std::uint32_t count = 0;
    for (int i = 0; i < 4; ++i) {
      count |= static_cast<std::uint32_t>(payload[2 + static_cast<std::size_t>(i)]) << (8 * i);
    }
    ins.messagesOut.inc(count);
    ins.coalescedFramesOut.inc();
  } else {
    ins.messagesOut.inc();
  }
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      closed_ = true;
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::size_t TcpTransport::poll(const FrameFn& fn) {
  if (closed_) return 0;
  WireInstruments& ins = WireInstruments::get();
  std::size_t delivered = 0;
  std::uint8_t buf[4096];
  // One non-blocking recv per chunk until the socket runs dry: no readiness
  // probe before each read, so an idle link costs one syscall per drain.
  while (true) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      closed_ = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) closed_ = true;
      break;
    }
    ins.bytesIn.inc(static_cast<std::uint64_t>(n));
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
  try {
    while (auto frame = decoder_.next()) {
      if (consumeHandshake(*frame)) continue;
      ++delivered;
      ins.framesIn.inc();
      if (fn) fn(std::move(*frame));
    }
  } catch (const util::DecodeError& e) {
    countDecodeError(e);
    throw;  // the daemon's poll loop closes the link on bad frames
  }
  return delivered;
}

bool TcpTransport::closed() const { return closed_; }

void TcpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  closed_ = true;
}

TcpListener::TcpListener(std::uint16_t port) {
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
    throwErrno("bind");
  }
  if (::listen(fd_, 16) != 0) {
    ::close(fd_);
    throwErrno("listen");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    throwErrno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::shared_ptr<TcpTransport> TcpListener::accept(int timeoutMs) {
  pollfd p{fd_, POLLIN, 0};
  const int ready = ::poll(&p, 1, timeoutMs);
  if (ready <= 0) return nullptr;
  const int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) return nullptr;
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto transport = std::shared_ptr<TcpTransport>(new TcpTransport(client));
  transport->sendSchemaHello();
  return transport;
}

}  // namespace casched::wire
