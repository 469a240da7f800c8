#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/transport.h"

/// \file span_trace.h
/// Host-time spans for the benchmark's traced run. The benchmark opens a
/// span around every call it makes into a layer, and TracingTransport
/// opens one on each side of every message crossing net::Transport: the
/// sender side ("net.call" / "net.send") and, nested inside it, the
/// endpoint handler, named after the layer that owns the endpoint. Spans
/// nest strictly (the driver is single-threaded and both transports run
/// handlers on the caller's thread), so self time = duration minus the
/// children's durations, and the self times of one episode add up to the
/// root span's duration exactly.

namespace pilotbench {

/// Span names. The layer of a span is the text before the first '.' of
/// its name (span_name).
enum class SpanKind : std::uint8_t {
  kEpisode,           // root: one whole episode
  kSetup,             // session, machine, managers, gateway, injector
  kTeardown,          // destructors at the end of the episode
  kSubmitPilot,       // PilotManager::submit_pilot
  kUmSubmit,          // UnitManager::submit
  kUmAllDone,         // UnitManager::all_done
  kGatewaySubmit,     // SubmissionGateway::submit
  kGatewayQuiescent,  // SubmissionGateway::quiescent
  kRunUntil,          // Engine::run_until
  kElasticStart,      // ElasticController construction + start
  kProbe,             // barrier probes (traced run only)
  kNetCall,           // Transport::call, sender side
  kNetSend,           // Transport::send, sender side
  kStoreIngest,       // handler of "store.ingest"
  kStoreNotify,       // handler of "store.notify"
  kYarnRm,            // handler of "<prefix>.rm"
  kYarnNm,            // handler of "<prefix>.nm"
  kAgentCtrl,         // handler of "agent.<pilot>.ctrl"
  kPmLifecycle,       // handler of "pilot.<pilot>.lifecycle"
  kUmSubmitEndpoint,  // handler of "um<N>.submit"
  kOtherHandler,      // any endpoint not named above
  kCount
};

const char* span_name(SpanKind kind);

/// Handler span kind for an endpoint name.
SpanKind classify_endpoint(const std::string& endpoint);

struct Span {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t child_ns = 0;  // summed durations of direct children
  std::uint32_t parent = 0;   // index into spans(); root points at itself
  SpanKind kind = SpanKind::kEpisode;

  std::int64_t duration_ns() const { return end_ns - begin_ns; }
  std::int64_t self_ns() const { return duration_ns() - child_ns; }
};

/// In-memory span recorder for one episode. Not thread-safe: every span
/// opens and closes on the driver thread.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span under the innermost open span; returns its index.
  std::uint32_t open(SpanKind kind);

  /// Closes span \p index, which must be the innermost open span; an
  /// out-of-order close is remembered and makes balanced() false.
  void close(std::uint32_t index);

  /// True when every opened span was closed again, innermost first.
  bool balanced() const { return open_.empty() && !out_of_order_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one line per span (index, parent, name, begin, duration and
  /// self time in ns relative to the first span).
  void write_tsv(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  bool out_of_order_ = false;
};

/// RAII span; a null recorder makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(kind) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_;
};

/// Timing decorator around either transport backend. Installed with
/// Session::set_transport before any endpoint registers, so every
/// message of the episode passes through it.
class TracingTransport : public hoh::net::Transport {
 public:
  TracingTransport(std::unique_ptr<hoh::net::Transport> inner,
                   SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}
  TracingTransport(const TracingTransport&) = delete;
  TracingTransport& operator=(const TracingTransport&) = delete;

  void register_endpoint(const std::string& endpoint,
                         Handler handler) override;
  void unregister_endpoint(const std::string& endpoint) override {
    inner_->unregister_endpoint(endpoint);
  }
  bool has_endpoint(const std::string& endpoint) const override {
    return inner_->has_endpoint(endpoint);
  }
  hoh::net::Envelope call(const std::string& endpoint,
                          const hoh::net::Envelope& request) override;
  void send(const std::string& endpoint,
            const hoh::net::Envelope& message) override;
  const char* mode() const override { return inner_->mode(); }
  hoh::net::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<hoh::net::Transport> inner_;
  SpanRecorder& recorder_;
};

}  // namespace pilotbench
