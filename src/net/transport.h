#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "net/message.h"

/// \file transport.h
/// The message boundary every cross-component interaction crosses
/// (DESIGN.md §14). Components register named endpoints; peers address
/// them by name and exchange Envelopes (typed packed payloads).
///
/// Delivery is synchronous at the call site in every implementation:
/// call()/send() return only after the destination handler ran (and,
/// for call(), returned its reply). That contract is what makes the
/// two implementations digest-identical — the simulation's event order
/// is a function of the call sequence, not of the transport:
///
///   InProcessTransport  — dispatches the handler directly on the
///     caller's stack, zero copies. The default; byte-for-byte the
///     behavior the stack had when these were plain method calls.
///   SocketTransport     — packs each envelope into a versioned frame
///     and round-trips the bytes through a real loopback TCP
///     connection, whose two ends the calling thread drives itself,
///     before (and after) dispatching the same handler. Same
///     semantics, real wire.
///
/// Handlers run on the caller's thread in both modes, so they may touch
/// the simulation engine exactly as the direct calls they replaced did.

namespace hoh::net {

struct TransportStats {
  std::uint64_t calls = 0;        // request/reply exchanges
  std::uint64_t sends = 0;        // one-way messages
  std::uint64_t bytes_sent = 0;   // socket mode only
  std::uint64_t bytes_received = 0;
  std::uint64_t reconnects = 0;
};

class Transport {
 public:
  /// Request handler: consumes one envelope, returns the reply (an Ack
  /// envelope for interactions that carry no answer).
  using Handler = std::function<Envelope(const Envelope&)>;

  virtual ~Transport() = default;

  /// Registers \p handler under \p endpoint; re-registering replaces the
  /// previous handler (a respawned component takes over its name).
  virtual void register_endpoint(const std::string& endpoint,
                                 Handler handler) = 0;
  virtual void unregister_endpoint(const std::string& endpoint) = 0;
  virtual bool has_endpoint(const std::string& endpoint) const = 0;

  /// Request/reply: delivers \p request to the endpoint's handler and
  /// returns its reply. Throws NotFoundError for an unknown endpoint.
  virtual Envelope call(const std::string& endpoint,
                        const Envelope& request) = 0;

  /// One-way: delivers \p message; the handler's reply is discarded.
  virtual void send(const std::string& endpoint, const Envelope& message) = 0;

  /// "in-process" or "socket" (plan key "transport").
  virtual const char* mode() const = 0;

  virtual TransportStats stats() const = 0;
};

/// Typed sugar: pack, route, unpack.
template <typename Reply, typename Request>
Reply call(Transport& t, const std::string& endpoint, const Request& req) {
  return open_envelope<Reply>(t.call(endpoint, make_envelope(req)));
}

template <typename Request>
void send(Transport& t, const std::string& endpoint, const Request& req) {
  t.send(endpoint, make_envelope(req));
}

/// Direct dispatch on the caller's stack; the envelope is handed to the
/// handler by reference (zero-copy).
class InProcessTransport : public Transport {
 public:
  void register_endpoint(const std::string& endpoint, Handler handler) override;
  void unregister_endpoint(const std::string& endpoint) override;
  bool has_endpoint(const std::string& endpoint) const override;
  Envelope call(const std::string& endpoint, const Envelope& request) override;
  void send(const std::string& endpoint, const Envelope& message) override;
  const char* mode() const override { return "in-process"; }
  TransportStats stats() const override;

 private:
  /// Copies the handler out under the lock; the dispatch itself runs
  /// unlocked so handlers may call back into the transport.
  Handler resolve(const std::string& endpoint) const;

  mutable common::Mutex mu_;
  std::map<std::string, Handler> endpoints_ HOH_GUARDED_BY(mu_);
  mutable TransportStats stats_ HOH_GUARDED_BY(mu_);
};

}  // namespace hoh::net
