#include "net/socket_transport.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <utility>

#include "common/error.h"
#include "net/socket_util.h"

namespace hoh::net {

namespace {

/// How long a redial waits for its own connection on the listener
/// before the attempt counts as failed.
constexpr int kAcceptTimeoutMs = 1000;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

/// Accepts the server side of the connection dialed on \p client_fd,
/// closing any stray peer queued ahead of it. Returns -1 on timeout or
/// error.
int accept_own(int listen_fd, int client_fd) {
  sockaddr_in want{};
  socklen_t len = sizeof(want);
  ::getsockname(client_fd, reinterpret_cast<sockaddr*>(&want), &len);
  for (;;) {
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, kAcceptTimeoutMs) <= 0) return -1;
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int fd =
        ::accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      if (would_block() || errno == EINTR) continue;
      return -1;
    }
    if (peer.sin_port == want.sin_port &&
        peer.sin_addr.s_addr == want.sin_addr.s_addr) {
      return fd;
    }
    ::close(fd);  // only the transport's own connection is served
  }
}

/// Pops one complete frame off \p ring. Returns false while it is still
/// incomplete; throws CodecError on a corrupt header.
bool pop_frame(RingBuffer& ring, Envelope* out) {
  std::uint8_t header[kFrameHeaderBytes];
  if (ring.peek(header, sizeof(header)) < sizeof(header)) return false;
  Unpacker hu(header, sizeof(header));
  const FrameHeader fh = FrameHeader::unpack(hu);
  if (ring.size() < kFrameHeaderBytes + fh.length) return false;
  ring.consume(kFrameHeaderBytes);
  out->type = static_cast<MsgType>(fh.type);
  out->payload.resize(fh.length);
  ring.peek(out->payload.data(), fh.length);
  ring.consume(fh.length);
  return true;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)), reconnect_rng_(config_.reconnect_seed) {
  config_.reconnect.validate();
  listen_fd_ = tcp_listen(config_.host, config_.port, &port_);
  set_nonblocking(listen_fd_);
  common::MutexLock lock(mu_);
  try {
    connect_with_backoff();
  } catch (...) {
    close_socket(listen_fd_);  // no destructor runs for a failed ctor
    throw;
  }
}

SocketTransport::~SocketTransport() {
  {
    common::MutexLock lock(mu_);
    drop_connection();
  }
  close_socket(listen_fd_);
}

void SocketTransport::connect_with_backoff() {
  const common::RetryPolicy& policy = config_.reconnect;
  for (int attempt = 1;; ++attempt) {
    try {
      int client = tcp_connect(config_.host, port_);
      int server = accept_own(listen_fd_, client);
      if (server >= 0) {
        const int one = 1;
        ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        set_nonblocking(client);
        set_nonblocking(server);
        fds_[0] = client;
        fds_[1] = server;
        return;
      }
      close_socket(client);
    } catch (const common::ResourceError&) {
      // connect() refused: retry under the budget below.
    }
    if (!policy.allows(attempt + 1)) {
      throw common::ResourceError(
          "SocketTransport: could not establish loopback connection to " +
          config_.host + ":" + std::to_string(port_) + " after " +
          std::to_string(attempt) + " attempts");
    }
    const double backoff = policy.backoff_for(attempt, reconnect_rng_);
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

void SocketTransport::drop_connection() {
  for (int slot = 0; slot < 2; ++slot) {
    close_socket(fds_[slot]);
    in_[slot].clear();
  }
}

// --- registry --------------------------------------------------------

void SocketTransport::register_endpoint(const std::string& endpoint,
                                        Handler handler) {
  common::MutexLock lock(mu_);
  endpoints_[endpoint] = std::move(handler);
}

void SocketTransport::unregister_endpoint(const std::string& endpoint) {
  common::MutexLock lock(mu_);
  endpoints_.erase(endpoint);
}

bool SocketTransport::has_endpoint(const std::string& endpoint) const {
  common::MutexLock lock(mu_);
  return endpoints_.count(endpoint) != 0;
}

Transport::Handler SocketTransport::handler_for(
    const std::string& endpoint) const {
  auto it = endpoints_.find(endpoint);
  if (it == endpoints_.end()) {
    throw common::NotFoundError("transport: no endpoint \"" + endpoint + "\"");
  }
  return it->second;
}

TransportStats SocketTransport::stats() const {
  common::MutexLock lock(mu_);
  return stats_;
}

// --- wire ------------------------------------------------------------

std::vector<std::uint8_t> SocketTransport::encode_wire(
    std::uint64_t seq, WireKind kind, const std::string& endpoint,
    const Envelope& envelope) {
  Packer body;
  body.u64(seq);
  body.u8(kind);
  body.str(endpoint);
  body.bytes(envelope.payload);
  return encode_frame(Envelope{envelope.type, body.take()});
}

SocketTransport::WireMessage SocketTransport::decode_wire(
    const Envelope& frame) {
  Unpacker u(frame.payload);
  WireMessage msg;
  msg.seq = u.u64();
  msg.kind = u.u8();
  msg.endpoint = u.str();
  msg.envelope.type = frame.type;
  msg.envelope.payload = u.bytes();
  u.expect_done();
  return msg;
}

SocketTransport::WireMessage SocketTransport::wire_transfer(
    int slot, WireKind kind, const std::string& endpoint,
    const Envelope& envelope) {
  const std::uint64_t seq = next_seq_++;
  const std::vector<std::uint8_t> bytes =
      encode_wire(seq, kind, endpoint, envelope);
  WireMessage got;
  for (;;) {
    if (fds_[0] < 0) connect_with_backoff();  // an earlier redial gave up
    bool delivered = false;
    try {
      delivered = try_transfer(slot, bytes, seq, &got);
    } catch (const CodecError&) {
      // A corrupt stream is as good as a torn one.
    }
    if (delivered) return got;
    drop_connection();
    ++stats_.reconnects;
    connect_with_backoff();  // then retransmit on the fresh connection
  }
}

bool SocketTransport::try_transfer(int slot,
                                   const std::vector<std::uint8_t>& bytes,
                                   std::uint64_t seq, WireMessage* got) {
  const int out_fd = fds_[slot];
  const int in_fd = fds_[1 - slot];
  RingBuffer& ring = in_[1 - slot];
  std::size_t written = 0;
  std::uint64_t received = 0;
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    while (written < bytes.size()) {
      const ssize_t n = ::send(out_fd, bytes.data() + written,
                               bytes.size() - written, MSG_NOSIGNAL);
      if (n >= 0) {
        written += static_cast<std::size_t>(n);
      } else if (would_block()) {
        break;  // buffers full: drain the reader before writing on
      } else if (errno != EINTR) {
        return false;  // EPIPE / ECONNRESET: torn
      }
    }
    for (;;) {
      const ssize_t n = ::recv(in_fd, chunk, sizeof(chunk), 0);
      if (n == 0) return false;  // EOF: torn
      if (n < 0) {
        if (would_block()) break;
        if (errno == EINTR) continue;
        return false;
      }
      ring.append(chunk, static_cast<std::size_t>(n));
      received += static_cast<std::uint64_t>(n);
      Envelope frame;
      while (pop_frame(ring, &frame)) {
        WireMessage msg = decode_wire(frame);
        // Only this frame is in flight, so a foreign seq is a stray:
        // drop it and keep reading for ours.
        if (msg.seq != seq) continue;
        stats_.bytes_sent += written;
        stats_.bytes_received += received;
        *got = std::move(msg);
        return true;
      }
    }
    // Nothing more to read yet: wait until either end can move.
    pollfd fds[2] = {
        {in_fd, POLLIN, 0},
        {out_fd, static_cast<short>(written < bytes.size() ? POLLOUT : 0), 0},
    };
    if (::poll(fds, 2, -1) < 0 && errno != EINTR) return false;
    for (const pollfd& p : fds) {
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) return false;
    }
  }
}

Envelope SocketTransport::call(const std::string& endpoint,
                               const Envelope& request) {
  WireMessage delivered;
  Handler handler;
  {
    common::MutexLock lock(mu_);
    ++stats_.calls;
    // Request crosses the wire client -> server...
    delivered = wire_transfer(0, kRequest, endpoint, request);
    handler = handler_for(delivered.endpoint);
  }
  // ...the handler runs here, on the caller's thread...
  const Envelope reply = handler(delivered.envelope);
  // ...and the reply crosses back server -> client.
  common::MutexLock lock(mu_);
  return wire_transfer(1, kReply, endpoint, reply).envelope;
}

void SocketTransport::send(const std::string& endpoint,
                           const Envelope& message) {
  WireMessage delivered;
  Handler handler;
  {
    common::MutexLock lock(mu_);
    ++stats_.sends;
    delivered = wire_transfer(0, kOneWay, endpoint, message);
    handler = handler_for(delivered.endpoint);
  }
  handler(delivered.envelope);
}

void SocketTransport::kill_connection() {
  common::MutexLock lock(mu_);
  if (fds_[0] >= 0) ::shutdown(fds_[0], SHUT_RDWR);
}

}  // namespace hoh::net
