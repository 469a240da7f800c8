#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/thread_annotations.h"
#include "net/ring_buffer.h"
#include "net/transport.h"

/// \file socket_transport.h
/// The socket-backed Transport (DESIGN.md §14): every envelope is packed
/// into a versioned frame and round-trips a real loopback TCP connection
/// before its handler runs. The calling thread drives both ends of that
/// connection itself with non-blocking I/O: it writes the frame on one
/// end, drains the other into a ring buffer until the frame is
/// reassembled, and poll()s both when the socket buffers are full, so a
/// frame far larger than the buffers still makes progress on one thread.
/// No I/O thread, no hand-off: a crossing costs the two syscalls.
///
/// call() therefore traverses the wire twice (request over, reply back)
/// and send() once, while the handler itself still executes on the
/// caller's thread — the same synchronous-at-call-site contract as
/// InProcessTransport, which is what makes the two modes produce
/// byte-identical simulation digests while this one genuinely exercises
/// framing, partial reads, backpressure and reconnect.
///
/// A torn connection (EOF, EPIPE, POLLERR/POLLHUP; kill_connection() in
/// tests) is repaired transparently: both ends are closed, a fresh
/// connection is dialed and accepted under a common::RetryPolicy
/// (wall-clock exponential backoff, seeded jitter), the in-flight frame
/// is retransmitted, and stats().reconnects counts the repairs.
///
/// Transfers are serialised by mu_, which is held across the I/O and
/// released before any handler runs; it is a leaf like every mutex in
/// src/ (DESIGN.md §7), so a handler may call back into the transport.

namespace hoh::net {

struct SocketTransportConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-assigned ephemeral port

  /// Redial budget for torn connections. Wall-clock, not simulated:
  /// the socket I/O lives outside the simulation engine.
  common::RetryPolicy reconnect{
      .max_attempts = 8,
      .base_backoff = 0.01,
      .multiplier = 2.0,
      .max_backoff = 0.5,
      .jitter = 0.1,
      .attempt_timeout = 0.0,
  };

  /// Seed for the reconnect backoff jitter.
  std::uint64_t reconnect_seed = 1;
};

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void register_endpoint(const std::string& endpoint, Handler handler) override;
  void unregister_endpoint(const std::string& endpoint) override;
  bool has_endpoint(const std::string& endpoint) const override;
  Envelope call(const std::string& endpoint, const Envelope& request) override;
  void send(const std::string& endpoint, const Envelope& message) override;
  const char* mode() const override { return "socket"; }
  TransportStats stats() const override;

  /// The port the listener actually bound (resolves port = 0).
  std::uint16_t port() const { return port_; }

  /// Test hook: tears the live connection down mid-run so the next
  /// exchange exercises the reconnect/backoff path.
  void kill_connection();

 private:
  /// Internal wire body wrapped around every envelope:
  ///   seq u64 | kind u8 | endpoint str | payload bytes
  enum WireKind : std::uint8_t { kRequest = 0, kOneWay = 1, kReply = 2 };

  /// A decoded wire body (seq, kind, endpoint, envelope).
  struct WireMessage {
    std::uint64_t seq = 0;
    std::uint8_t kind = kRequest;
    std::string endpoint;
    Envelope envelope;
  };

  /// Dials a fresh loopback connection and accepts its server side,
  /// under the RetryPolicy backoff. Throws ResourceError when the budget
  /// is exhausted.
  void connect_with_backoff() HOH_REQUIRES(mu_);
  void drop_connection() HOH_REQUIRES(mu_);

  /// Writes one framed wire message on fds_[\p slot] (0 = dialed side,
  /// 1 = accepted side) and reads it back off the other end;
  /// transparently reconnects and retransmits on a torn connection.
  WireMessage wire_transfer(int slot, WireKind kind,
                            const std::string& endpoint,
                            const Envelope& envelope) HOH_REQUIRES(mu_);
  /// One attempt of wire_transfer on the live connection. Returns false
  /// when the connection tore, leaving the repair to the caller.
  bool try_transfer(int slot, const std::vector<std::uint8_t>& bytes,
                    std::uint64_t seq, WireMessage* got) HOH_REQUIRES(mu_);

  static std::vector<std::uint8_t> encode_wire(std::uint64_t seq,
                                               WireKind kind,
                                               const std::string& endpoint,
                                               const Envelope& envelope);
  static WireMessage decode_wire(const Envelope& frame);

  /// The handler registered under \p endpoint; throws NotFoundError.
  Handler handler_for(const std::string& endpoint) const HOH_REQUIRES(mu_);

  SocketTransportConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  mutable common::Mutex mu_;
  std::map<std::string, Handler> endpoints_ HOH_GUARDED_BY(mu_);
  TransportStats stats_ HOH_GUARDED_BY(mu_);
  /// fds_[0] = dialed side, fds_[1] = accepted side; -1 while torn.
  int fds_[2] HOH_GUARDED_BY(mu_) = {-1, -1};
  /// in_[i] reassembles the frames arriving on fds_[i].
  RingBuffer in_[2] HOH_GUARDED_BY(mu_);
  std::uint64_t next_seq_ HOH_GUARDED_BY(mu_) = 1;
  common::Rng reconnect_rng_ HOH_GUARDED_BY(mu_);
};

}  // namespace hoh::net
