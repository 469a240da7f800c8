// Transport contract tests (DESIGN.md §14): InProcessTransport and
// SocketTransport must be observationally identical at the call site —
// same replies byte-for-byte, same handler-thread semantics, same
// errors — with the socket one additionally surviving a torn
// connection mid-run (reconnect/backoff, retransmit).

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "net/message.h"
#include "net/socket_transport.h"
#include "net/transport.h"

namespace hoh::net {
namespace {

/// Runs the same scripted exchange against a transport and returns
/// every reply frame's raw bytes, for cross-implementation comparison.
std::vector<std::vector<std::uint8_t>> scripted_exchange(Transport& t) {
  std::vector<std::vector<std::uint8_t>> replies;
  int sends_seen = 0;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    auto probe = open_envelope<NodeProbe>(env);
    return make_envelope(NodeStatus{probe.node, 42.125, true});
  });
  t.register_endpoint("test.sink", [&sends_seen](const Envelope& env) {
    open_envelope<WatchNotify>(env);
    ++sends_seen;
    return make_envelope(Ack{});
  });
  for (int i = 0; i < 20; ++i) {
    const Envelope reply = t.call(
        "test.echo",
        make_envelope(NodeProbe{"node-" + std::to_string(i)}));
    replies.push_back(encode_frame(reply));
    send(t, "test.sink",
         WatchNotify{{static_cast<std::uint64_t>(i)}, 1, "unit",
                     "key-" + std::to_string(i)});
  }
  EXPECT_EQ(sends_seen, 20);
  t.unregister_endpoint("test.echo");
  t.unregister_endpoint("test.sink");
  return replies;
}

TEST(TransportParity, SocketRepliesByteIdenticalToInProcess) {
  InProcessTransport inproc;
  SocketTransport socket;
  EXPECT_EQ(scripted_exchange(inproc), scripted_exchange(socket));
}

TEST(TransportParity, HandlerRunsOnCallerThreadInBothModes) {
  // The refactored components mutate the single-threaded simulation
  // engine from inside handlers; that is only sound because dispatch
  // stays on the calling thread in both modes.
  const auto caller = std::this_thread::get_id();
  for (const bool use_socket : {false, true}) {
    std::unique_ptr<Transport> t;
    if (use_socket) {
      t = std::make_unique<SocketTransport>();
    } else {
      t = std::make_unique<InProcessTransport>();
    }
    std::thread::id handler_thread;
    t->register_endpoint("test.tid", [&handler_thread](const Envelope&) {
      handler_thread = std::this_thread::get_id();
      return make_envelope(Ack{});
    });
    call<Ack>(*t, "test.tid", Bye{});
    EXPECT_EQ(handler_thread, caller) << t->mode();
  }
}

TEST(TransportParity, UnknownEndpointThrowsInBothModes) {
  InProcessTransport inproc;
  SocketTransport socket;
  for (Transport* t : {static_cast<Transport*>(&inproc),
                       static_cast<Transport*>(&socket)}) {
    EXPECT_THROW(t->call("nobody.home", make_envelope(Bye{})),
                 common::NotFoundError)
        << t->mode();
    EXPECT_FALSE(t->has_endpoint("nobody.home"));
  }
}

TEST(TransportParity, ReRegisterReplacesHandler) {
  SocketTransport t;
  t.register_endpoint("test.v", [](const Envelope&) {
    return make_envelope(SubmitReply{"old"});
  });
  t.register_endpoint("test.v", [](const Envelope&) {
    return make_envelope(SubmitReply{"new"});
  });
  EXPECT_EQ(call<SubmitReply>(t, "test.v", Bye{}).unit_id, "new");
  t.unregister_endpoint("test.v");
}

TEST(SocketTransport, CountsTrafficAndRoundTripsBytes) {
  SocketTransport t;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<StoreIngest>(env));
  });
  StoreIngest ingest;
  ingest.collection = "unit";
  ingest.unit_id = "unit-000001";
  ingest.queue = "agent.p1";
  ingest.document.assign(4096, 0xab);
  const auto back = call<StoreIngest>(t, "test.echo", ingest);
  EXPECT_EQ(back.document, ingest.document);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.calls, 1u);
  // Request and reply each cross the wire: > 2 documents' worth.
  EXPECT_GT(stats.bytes_sent, 2 * ingest.document.size());
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, ReconnectsAfterTornConnection) {
  SocketTransportConfig config;
  config.reconnect.base_backoff = 0.001;
  config.reconnect.max_backoff = 0.02;
  SocketTransport t(config);
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<NodeProbe>(env));
  });
  EXPECT_EQ(call<NodeProbe>(t, "test.echo", NodeProbe{"a"}).node, "a");
  for (int round = 0; round < 3; ++round) {
    t.kill_connection();
    // The in-flight frame is retransmitted on the repaired connection;
    // the caller never observes the tear.
    EXPECT_EQ(call<NodeProbe>(t, "test.echo",
                              NodeProbe{"r" + std::to_string(round)})
                  .node,
              "r" + std::to_string(round))
        << round;
  }
  EXPECT_GE(t.stats().reconnects, 3u);
  t.unregister_endpoint("test.echo");
}

/// An echo document far larger than the loopback socket buffers, so
/// each crossing needs many partial writes and reads on one thread.
StoreIngest big_ingest(std::uint8_t fill) {
  StoreIngest ingest;
  ingest.collection = "unit";
  ingest.unit_id = "unit-big";
  ingest.queue = "agent.p1";
  ingest.document.assign(8u << 20, fill);
  for (std::size_t i = 0; i < ingest.document.size(); i += 4099) {
    ingest.document[i] = static_cast<std::uint8_t>(i);  // not all one byte
  }
  return ingest;
}

TEST(SocketTransport, EchoesFrameLargerThanSocketBuffers) {
  SocketTransport t;
  t.register_endpoint("test.echo", [](const Envelope& env) {
    return make_envelope(open_envelope<StoreIngest>(env));
  });
  const StoreIngest ingest = big_ingest(0x5a);
  const auto back = call<StoreIngest>(t, "test.echo", ingest);
  EXPECT_EQ(back.document, ingest.document);
  EXPECT_EQ(back.unit_id, ingest.unit_id);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.reconnects, 0u);
  EXPECT_GT(stats.bytes_sent, 2 * ingest.document.size());
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, RetransmitsLargeFrameTornMidTransfer) {
  SocketTransportConfig config;
  config.reconnect.base_backoff = 0.001;
  config.reconnect.max_backoff = 0.02;
  SocketTransport t(config);
  bool kill_in_handler = false;
  t.register_endpoint("test.echo", [&](const Envelope& env) {
    // Tears the connection after the request arrived: the 8 MiB reply's
    // first chunks still go out on the accepted side before the dialed
    // side's EOF surfaces, so the tear lands between chunks.
    if (kill_in_handler) t.kill_connection();
    return make_envelope(open_envelope<StoreIngest>(env));
  });
  // Request torn: the dialed side is shut before the first chunk.
  const StoreIngest first = big_ingest(0x11);
  t.kill_connection();
  EXPECT_EQ(call<StoreIngest>(t, "test.echo", first).document,
            first.document);
  EXPECT_EQ(t.stats().reconnects, 1u);
  // Reply torn mid-frame.
  kill_in_handler = true;
  const StoreIngest second = big_ingest(0x22);
  EXPECT_EQ(call<StoreIngest>(t, "test.echo", second).document,
            second.document);
  const TransportStats stats = t.stats();
  EXPECT_EQ(stats.reconnects, 2u);
  EXPECT_EQ(stats.calls, 2u);
  // Only delivered attempts count: a retransmission is not double-booked
  // and no stray byte arrived alongside a frame.
  EXPECT_GT(stats.bytes_sent, 4 * first.document.size());
  EXPECT_EQ(stats.bytes_received, stats.bytes_sent);
  t.unregister_endpoint("test.echo");
}

TEST(SocketTransport, BindsEphemeralPortByDefault) {
  SocketTransport a;
  SocketTransport b;
  EXPECT_NE(a.port(), 0);
  EXPECT_NE(b.port(), 0);
  EXPECT_NE(a.port(), b.port());  // two transports coexist
}

TEST(SocketTransport, NestedCallFromHandler) {
  // A handler may itself issue a transport call (RM handlers do: the
  // NM launch path sends ContainerRunning back through the transport).
  SocketTransport t;
  t.register_endpoint("test.inner", [](const Envelope&) {
    return make_envelope(SubmitReply{"inner"});
  });
  t.register_endpoint("test.outer", [&t](const Envelope&) {
    const auto inner = call<SubmitReply>(t, "test.inner", Bye{});
    return make_envelope(SubmitReply{inner.unit_id + "+outer"});
  });
  EXPECT_EQ(call<SubmitReply>(t, "test.outer", Bye{}).unit_id,
            "inner+outer");
  t.unregister_endpoint("test.outer");
  t.unregister_endpoint("test.inner");
}

}  // namespace
}  // namespace hoh::net
