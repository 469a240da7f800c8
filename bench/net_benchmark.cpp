/// net_benchmark — wire-protocol microbenchmark (DESIGN.md §14).
///
/// Drives the same scripted request/reply exchange through
/// InProcessTransport and SocketTransport and reports throughput
/// (msgs/sec) and round-trip latency percentiles (p50/p99) per
/// transport and payload size. The socket numbers price the message
/// boundary: every call packs a versioned frame, crosses loopback TCP
/// (the calling thread writes one end and reads the other), and returns
/// the reply the same way.
///
/// Writes a JSON artifact (default BENCH_net.json) and optionally
/// gates: --assert-socket-msgs is a msgs/sec floor, --assert-socket-p99
/// a seconds ceiling, both applied to the small-payload socket run — CI
/// fails if the data plane regresses past them.
///
/// Usage:
///   net_benchmark [--samples N] [--warmup N] [--payload BYTES]
///                 [--out FILE] [--assert-socket-msgs X]
///                 [--assert-socket-p99 SECONDS]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/statistics.h"
#include "net/message.h"
#include "net/socket_transport.h"
#include "net/transport.h"

namespace {

using namespace hoh;

struct BenchConfig {
  int samples = 20000;
  int warmup = 2000;
  std::size_t payload = 1024;  // StoreIngest document bytes (large case)
  std::string out = "BENCH_net.json";
  double assert_socket_msgs = 0.0;  // floor, 0 = no gate
  double assert_socket_p99 = 0.0;   // ceiling seconds, 0 = no gate
};

struct RunResult {
  double msgs_per_sec = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
};

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One call() round trip per sample: NodeProbe out, NodeStatus back
/// (small), or StoreIngest echoed (payload case).
RunResult measure(net::Transport& transport, const BenchConfig& cfg,
                  std::size_t payload_bytes) {
  transport.register_endpoint("bench.echo", [](const net::Envelope& env) {
    if (env.type == net::MsgType::kStoreIngest) {
      return net::make_envelope(net::open_envelope<net::StoreIngest>(env));
    }
    const auto probe = net::open_envelope<net::NodeProbe>(env);
    return net::make_envelope(net::NodeStatus{probe.node, 1.0, true});
  });
  net::StoreIngest ingest;
  if (payload_bytes > 0) {
    ingest.collection = "unit";
    ingest.unit_id = "unit-000001";
    ingest.queue = "agent.p1";
    ingest.document.assign(payload_bytes, 0x5a);
  }
  auto exchange = [&] {
    if (payload_bytes > 0) {
      (void)net::call<net::StoreIngest>(transport, "bench.echo", ingest);
    } else {
      (void)net::call<net::NodeStatus>(transport, "bench.echo",
                                       net::NodeProbe{"c401-001"});
    }
  };
  for (int i = 0; i < cfg.warmup; ++i) exchange();
  std::vector<double> rtt;
  rtt.reserve(static_cast<std::size_t>(cfg.samples));
  const double start = now_seconds();
  for (int i = 0; i < cfg.samples; ++i) {
    const double t0 = now_seconds();
    exchange();
    rtt.push_back(now_seconds() - t0);
  }
  const double elapsed = now_seconds() - start;
  transport.unregister_endpoint("bench.echo");

  RunResult result;
  result.msgs_per_sec = static_cast<double>(cfg.samples) / elapsed;
  result.p50_s = common::percentile(rtt, 0.50);
  result.p99_s = common::percentile(rtt, 0.99);
  common::RunningStats stats;
  for (const double s : rtt) stats.add(s);
  result.mean_s = stats.mean();
  return result;
}

common::Json to_json(const RunResult& r) {
  common::Json j;
  j["msgsPerSec"] = r.msgs_per_sec;
  j["p50Us"] = r.p50_s * 1e6;
  j["p99Us"] = r.p99_s * 1e6;
  j["meanUs"] = r.mean_s * 1e6;
  return j;
}

void report(const char* label, const RunResult& r) {
  std::printf("%-22s %10.0f msgs/s   p50 %8.2f us   p99 %8.2f us\n",
              label, r.msgs_per_sec, r.p50_s * 1e6, r.p99_s * 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      std::fprintf(stderr, "net_benchmark: %s needs a value\n",
                   flag.c_str());
      return 2;
    }
    if (flag == "--samples") {
      cfg.samples = std::atoi(value);
    } else if (flag == "--warmup") {
      cfg.warmup = std::atoi(value);
    } else if (flag == "--payload") {
      cfg.payload = static_cast<std::size_t>(std::atoll(value));
    } else if (flag == "--out") {
      cfg.out = value;
    } else if (flag == "--assert-socket-msgs") {
      cfg.assert_socket_msgs = std::atof(value);
    } else if (flag == "--assert-socket-p99") {
      cfg.assert_socket_p99 = std::atof(value);
    } else {
      std::fprintf(stderr, "net_benchmark: unknown flag %s\n",
                   flag.c_str());
      return 2;
    }
  }

  net::InProcessTransport inproc;
  net::SocketTransport socket;

  const RunResult inproc_small = measure(inproc, cfg, 0);
  const RunResult socket_small = measure(socket, cfg, 0);
  const RunResult inproc_large = measure(inproc, cfg, cfg.payload);
  const RunResult socket_large = measure(socket, cfg, cfg.payload);

  std::printf("net_benchmark: %d samples per cell, payload %zu B\n",
              cfg.samples, cfg.payload);
  report("in-process/small", inproc_small);
  report("socket/small", socket_small);
  report("in-process/payload", inproc_large);
  report("socket/payload", socket_large);

  common::Json doc;
  doc["schema"] = "hoh-bench-net-v1";
  doc["source"] = "bench/net_benchmark";
  doc["samples"] = static_cast<std::int64_t>(cfg.samples);
  doc["payloadBytes"] = static_cast<std::int64_t>(cfg.payload);
  common::Json transports;
  common::Json inproc_j;
  inproc_j["small"] = to_json(inproc_small);
  inproc_j["payload"] = to_json(inproc_large);
  transports["in-process"] = inproc_j;
  common::Json socket_j;
  socket_j["small"] = to_json(socket_small);
  socket_j["payload"] = to_json(socket_large);
  transports["socket"] = socket_j;
  doc["transports"] = transports;
  std::ofstream out(cfg.out);
  out << doc.dump(2) << "\n";
  std::printf("net_benchmark: wrote %s\n", cfg.out.c_str());

  int rc = 0;
  if (cfg.assert_socket_msgs > 0.0 &&
      socket_small.msgs_per_sec < cfg.assert_socket_msgs) {
    std::fprintf(stderr,
                 "net_benchmark: FAIL socket msgs/sec %.0f < floor %.0f\n",
                 socket_small.msgs_per_sec, cfg.assert_socket_msgs);
    rc = 1;
  }
  if (cfg.assert_socket_p99 > 0.0 &&
      socket_small.p99_s > cfg.assert_socket_p99) {
    std::fprintf(stderr,
                 "net_benchmark: FAIL socket p99 %.2f us > ceiling %.2f us\n",
                 socket_small.p99_s * 1e6, cfg.assert_socket_p99 * 1e6);
    rc = 1;
  }
  return rc;
}
