#include "report.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/statistics.h"

namespace pilotbench {

namespace {

/// Mean of the last three samples over the mean of the first three: how
/// much a per-barrier probe grew over the episode (0 with too few).
double growth(const std::vector<double>& series) {
  if (series.size() < 6) return 0.0;
  const std::size_t n = series.size();
  const double first = series[0] + series[1] + series[2];
  const double last = series[n - 1] + series[n - 2] + series[n - 3];
  return first > 0.0 ? last / first : 0.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layer_metrics(const SpanRecorder& recorder,
                                  const EpisodeResult& e) {
  const auto& spans = recorder.spans();
  if (!recorder.balanced() || spans.empty() ||
      spans.front().kind != SpanKind::kEpisode) {
    throw std::runtime_error("trace is not one closed episode span");
  }
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t self_ns = 0;
    std::int64_t duration_ns = 0;
  };
  std::array<Agg, static_cast<std::size_t>(SpanKind::kCount)> agg{};
  std::vector<double> all_done_us;
  std::vector<double> overhead_us;
  std::int64_t self_sum = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0 && s.parent >= i) throw std::runtime_error("second root span");
    Agg& a = agg[static_cast<std::size_t>(s.kind)];
    a.count += 1;
    a.self_ns += s.self_ns();
    a.duration_ns += s.duration_ns();
    self_sum += s.self_ns();
    if (s.kind == SpanKind::kUmAllDone) {
      all_done_us.push_back(static_cast<double>(s.duration_ns()) / 1e3);
    }
    if (s.kind == SpanKind::kNetCall || s.kind == SpanKind::kNetSend) {
      overhead_us.push_back(static_cast<double>(s.self_ns()) / 1e3);
    }
  }
  // Nested spans are counted once: self times partition the root span.
  const std::int64_t wall_ns = spans.front().duration_ns();
  if (self_sum != wall_ns) {
    throw std::runtime_error("span self times sum to " +
                             std::to_string(self_sum) + " ns, episode is " +
                             std::to_string(wall_ns) + " ns");
  }

  auto self_s = [&](SpanKind k) {
    return static_cast<double>(agg[static_cast<std::size_t>(k)].self_ns) / 1e9;
  };
  auto count = [&](SpanKind k) {
    return static_cast<double>(agg[static_cast<std::size_t>(k)].count);
  };
  auto num = [](std::uint64_t v) { return static_cast<double>(v); };
  const Counters& c = e.counters;
  const double units = static_cast<double>(e.submitted);
  const double run_until_s =
      static_cast<double>(
          agg[static_cast<std::size_t>(SpanKind::kRunUntil)].duration_ns) /
      1e9;
  using hoh::common::median;
  using hoh::common::percentile;

  return {
      {"sim.events", num(c.engine_events), "count"},
      {"sim.events_per_unit", ratio(num(c.engine_events), units), "1/unit"},
      {"sim.run_until_s", run_until_s, "s"},
      {"sim.run_until_self_s", self_s(SpanKind::kRunUntil), "s"},
      {"um.all_done_calls", num(c.all_done_calls), "count"},
      {"um.all_done_s", self_s(SpanKind::kUmAllDone), "s"},
      {"um.all_done_us_p50", percentile(all_done_us, 0.5), "us"},
      {"um.all_done_us_p99", percentile(all_done_us, 0.99), "us"},
      {"um.submit_s", self_s(SpanKind::kUmSubmit), "s"},
      {"um.submit_endpoint_s", self_s(SpanKind::kUmSubmitEndpoint), "s"},
      {"um.requeued", num(c.units_requeued), "count"},
      {"um.abandoned", num(c.units_abandoned), "count"},
      {"store.ops", num(c.store_ops), "count"},
      {"store.mutations", num(c.store_mutations), "count"},
      {"store.ops_per_unit", ratio(num(c.store_ops), units), "1/unit"},
      {"store.ingest_s", self_s(SpanKind::kStoreIngest), "s"},
      {"store.ingest_msgs", count(SpanKind::kStoreIngest), "count"},
      {"store.notify_s", self_s(SpanKind::kStoreNotify), "s"},
      {"store.notify_msgs", count(SpanKind::kStoreNotify), "count"},
      {"store.get_field_probe_us", median(e.get_field_probe_us), "us"},
      {"agent.ctrl_s", self_s(SpanKind::kAgentCtrl), "s"},
      {"agent.ctrl_msgs", count(SpanKind::kAgentCtrl), "count"},
      {"pm.lifecycle_s", self_s(SpanKind::kPmLifecycle), "s"},
      {"pm.lifecycle_msgs", count(SpanKind::kPmLifecycle), "count"},
      {"pm.submit_pilot_s", self_s(SpanKind::kSubmitPilot), "s"},
      {"pm.pilots_resubmitted", num(c.pilots_resubmitted), "count"},
      {"net.calls", num(c.net_calls), "count"},
      {"net.sends", num(c.net_sends), "count"},
      {"net.bytes", num(c.net_bytes), "bytes"},
      {"net.msgs_per_unit", ratio(num(c.net_calls + c.net_sends), units),
       "1/unit"},
      {"net.overhead_s",
       self_s(SpanKind::kNetCall) + self_s(SpanKind::kNetSend), "s"},
      {"net.overhead_us_p50", percentile(overhead_us, 0.5), "us"},
      {"net.overhead_us_p99", percentile(overhead_us, 0.99), "us"},
      {"net.reconnects", num(c.net_reconnects), "count"},
      {"net.other_handler_s", self_s(SpanKind::kOtherHandler), "s"},
      {"yarn.rm_s", self_s(SpanKind::kYarnRm), "s"},
      {"yarn.rm_msgs", count(SpanKind::kYarnRm), "count"},
      {"yarn.nm_s", self_s(SpanKind::kYarnNm), "s"},
      {"yarn.nm_msgs", count(SpanKind::kYarnNm), "count"},
      {"yarn.cluster_metrics_probe_us", median(e.cluster_metrics_probe_us),
       "us"},
      {"yarn.cluster_metrics_probe_growth", growth(e.cluster_metrics_probe_us),
       "ratio"},
      {"gateway.submit_s", self_s(SpanKind::kGatewaySubmit), "s"},
      {"gateway.quiescent_s", self_s(SpanKind::kGatewayQuiescent), "s"},
      {"gateway.preempted", num(c.preempted), "count"},
      {"gateway.peak_in_flight", num(c.peak_in_flight), "count"},
      {"gateway.quiescent_polls", num(c.quiescent_polls), "count"},
      {"elastic.resizes", num(c.elastic_resizes), "count"},
      {"elastic.start_s", self_s(SpanKind::kElasticStart), "s"},
      {"failures.crashes", num(c.crashes), "count"},
      {"setup.session_s", self_s(SpanKind::kSetup), "s"},
      {"setup.teardown_s", self_s(SpanKind::kTeardown), "s"},
      {"probe.barrier_s", self_s(SpanKind::kProbe), "s"},
      {"bench.self_s", self_s(SpanKind::kEpisode), "s"},
      {"trace.wall_s", static_cast<double>(wall_ns) / 1e9, "s"},
      {"trace.spans", static_cast<double>(spans.size()), "count"},
  };
}

std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& runs) {
  if (runs.empty()) return {};
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& run : runs) values.push_back(run.at(i).value);
    out[i].value = hoh::common::median(std::move(values));
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("metric " + m.name + " is not finite");
    }
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) +
         ", \"metrics\": " + metrics_json(metrics) + "}";
}

}  // namespace pilotbench
