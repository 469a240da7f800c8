#include "span_trace.h"

#include <fstream>
#include <stdexcept>

namespace pilotbench {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kEpisode: return "bench.episode";
    case SpanKind::kSetup: return "setup.session";
    case SpanKind::kTeardown: return "setup.teardown";
    case SpanKind::kSubmitPilot: return "pm.submit_pilot";
    case SpanKind::kUmSubmit: return "um.submit";
    case SpanKind::kUmAllDone: return "um.all_done";
    case SpanKind::kGatewaySubmit: return "gateway.submit";
    case SpanKind::kGatewayQuiescent: return "gateway.quiescent";
    case SpanKind::kRunUntil: return "sim.run_until";
    case SpanKind::kElasticStart: return "elastic.start";
    case SpanKind::kProbe: return "probe.barrier";
    case SpanKind::kNetCall: return "net.call";
    case SpanKind::kNetSend: return "net.send";
    case SpanKind::kStoreIngest: return "store.ingest";
    case SpanKind::kStoreNotify: return "store.notify";
    case SpanKind::kYarnRm: return "yarn.rm";
    case SpanKind::kYarnNm: return "yarn.nm";
    case SpanKind::kAgentCtrl: return "agent.ctrl";
    case SpanKind::kPmLifecycle: return "pm.lifecycle";
    case SpanKind::kUmSubmitEndpoint: return "um.submit_endpoint";
    case SpanKind::kOtherHandler: return "net.other_handler";
    case SpanKind::kCount: break;
  }
  return "?";
}

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

SpanKind classify_endpoint(const std::string& endpoint) {
  if (endpoint == "store.ingest") return SpanKind::kStoreIngest;
  if (endpoint == "store.notify") return SpanKind::kStoreNotify;
  if (ends_with(endpoint, ".rm")) return SpanKind::kYarnRm;
  if (ends_with(endpoint, ".nm")) return SpanKind::kYarnNm;
  if (starts_with(endpoint, "agent.") && ends_with(endpoint, ".ctrl")) {
    return SpanKind::kAgentCtrl;
  }
  if (starts_with(endpoint, "pilot.") && ends_with(endpoint, ".lifecycle")) {
    return SpanKind::kPmLifecycle;
  }
  if (starts_with(endpoint, "um") && ends_with(endpoint, ".submit")) {
    return SpanKind::kUmSubmitEndpoint;
  }
  return SpanKind::kOtherHandler;
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

std::uint32_t SpanRecorder::open(SpanKind kind) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.kind = kind;
  span.parent = open_.empty() ? index : open_.back();
  span.begin_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  if (open_.empty() || open_.back() != index) {
    out_of_order_ = true;
    return;
  }
  open_.pop_back();
  Span& span = spans_[index];
  span.end_ns = now_ns();
  if (span.parent != index) spans_[span.parent].child_ns += span.duration_ns();
}

void SpanRecorder::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t base = spans_.empty() ? 0 : spans_.front().begin_ns;
  out << "index\tparent\tname\tbegin_ns\tduration_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << span_name(s.kind) << '\t'
        << (s.begin_ns - base) << '\t' << s.duration_ns() << '\t'
        << s.self_ns() << '\n';
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

void TracingTransport::register_endpoint(const std::string& endpoint,
                                         Handler handler) {
  const SpanKind kind = classify_endpoint(endpoint);
  inner_->register_endpoint(
      endpoint, [this, kind, handler = std::move(handler)](
                    const hoh::net::Envelope& envelope) {
        ScopedSpan span(&recorder_, kind);
        return handler(envelope);
      });
}

hoh::net::Envelope TracingTransport::call(const std::string& endpoint,
                                          const hoh::net::Envelope& request) {
  ScopedSpan span(&recorder_, SpanKind::kNetCall);
  return inner_->call(endpoint, request);
}

void TracingTransport::send(const std::string& endpoint,
                            const hoh::net::Envelope& message) {
  ScopedSpan span(&recorder_, SpanKind::kNetSend);
  inner_->send(endpoint, message);
}

}  // namespace pilotbench
