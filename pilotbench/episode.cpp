#include "episode.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <stdexcept>

#include "common/retry.h"
#include "common/statistics.h"
#include "elastic/elastic_controller.h"
#include "hpc/frontends.h"
#include "net/socket_transport.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "tenant/submission_gateway.h"

namespace pilotbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace hp = hoh::pilot;

constexpr double kStep = 5.0;  // barrier poll cadence, simulated s
constexpr double kMaxSimTime = 14 * 24 * 3600.0;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Everything one episode builds, destroyed in reverse declaration order
/// (the controller first, the session last).
struct Stack {
  hp::Session session;
  std::unique_ptr<hp::PilotManager> pm;
  std::unique_ptr<hp::UnitManager> um;
  std::unique_ptr<hoh::tenant::SubmissionGateway> gateway;
  std::unique_ptr<hoh::sim::FailureInjector> injector;
  std::unique_ptr<hoh::elastic::ElasticController> controller;
  std::shared_ptr<hp::Pilot> pilot;
};

/// Per-call host time of \p fn in microseconds: the median of five
/// batches of \p calls calls.
template <typename Fn>
double probe_us(int calls, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const auto t = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    batches.push_back(seconds_since(t) * 1e6 / calls);
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

}  // namespace

double host_probe_s() {
  constexpr std::size_t kSlots = std::size_t{1} << 17;  // 1 MiB of keys
  constexpr std::uint64_t kKeys = 100000;
  constexpr int kOps = 200000;
  static std::vector<std::uint64_t> table(kSlots);
  static std::uint64_t sink = 0;
  const auto t = Clock::now();
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t found = 0;
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t key = x % kKeys + 1;
    std::size_t slot = ((key * 0x9e3779b97f4a7c15ull) >> 47) & (kSlots - 1);
    while (table[slot] != 0 && table[slot] != key) {
      slot = (slot + 1) & (kSlots - 1);
    }
    if (table[slot] == key) {
      ++found;
    } else if (i % 2 == 1) {
      table[slot] = key;
    }
  }
  sink += found;
  return seconds_since(t);
}

namespace {

class Driver {
 public:
  Driver(const Workload& w, const Inputs& in, SpanRecorder* rec,
         bool setup_only, EpisodeResult& r)
      : w_(w), in_(in), rec_(rec), setup_only_(setup_only), r_(r) {}

  void run(std::unique_ptr<Stack>& stack);

 private:
  void build(Stack& s);
  void start_pilot(Stack& s);
  void submit_wave(Stack& s, std::size_t wave);
  void submit_range(Stack& s, std::size_t wave, std::size_t from,
                    std::size_t to);
  void barrier(Stack& s);
  bool barrier_clear(Stack& s);
  void step(Stack& s);
  void probe(Stack& s);
  void check_outputs(Stack& s);
  void collect(Stack& s);

  const Workload& w_;
  const Inputs& in_;
  SpanRecorder* rec_;
  bool setup_only_;
  EpisodeResult& r_;
  Clock::time_point t0_ = Clock::now();
  hp::PilotDescription pd_;
  hp::AgentConfig agent_;
  std::vector<std::shared_ptr<hp::ComputeUnit>> handles_;
  std::uint64_t probe_ops_ = 0;
};

void Driver::build(Stack& s) {
  ScopedSpan span(rec_, SpanKind::kSetup);
  hp::Session& session = s.session;
  std::unique_ptr<hoh::net::Transport> transport;
  if (w_.socket) {
    transport = std::make_unique<hoh::net::SocketTransport>();
  }
  if (rec_ != nullptr) {
    if (transport == nullptr) {
      transport = std::make_unique<hoh::net::InProcessTransport>();
    }
    transport =
        std::make_unique<TracingTransport>(std::move(transport), *rec_);
  }
  if (transport != nullptr) session.set_transport(std::move(transport));
  if (w_.store_shards > 1) {
    session.store().set_shard_count(static_cast<std::size_t>(w_.store_shards));
  }
  if (w_.trace_rollup) session.trace().enable_rollup("unit");
  const int pool_nodes = w_.elastic ? std::max(w_.nodes, w_.max_nodes)
                                    : w_.nodes;
  session.register_machine(w_.machine, hoh::hpc::SchedulerKind::kSlurm,
                           pool_nodes);

  hoh::analytics::KmeansRunConfig run;
  run.machine = &w_.machine;
  run.nodes = w_.nodes;
  run.tasks = w_.wave_units;
  run.yarn_stack = w_.yarn;
  const auto durations =
      hoh::analytics::kmeans_phase_durations(w_.scenario, run);

  // The K-Means experiment driver's agent calibration.
  agent_.spawn_latency = w_.spawn_latency;
  agent_.yarn_submit_latency = 0.3;
  agent_.env_load_seconds = durations.env_load_per_task;
  agent_.wrapper_setup_time = durations.wrapper_per_node;
  agent_.wrapper_cached_time = 1.0;
  agent_.control_plane = w_.plane;
  agent_.yarn.yarn.control_plane = w_.plane;
  agent_.yarn.yarn.am_launch_time = 10.0;
  agent_.yarn.yarn.container_launch_time = 4.0;

  pd_.resource = hoh::hpc::to_string(hoh::hpc::SchedulerKind::kSlurm) +
                 "://" + w_.machine.name + "/";
  pd_.nodes = w_.nodes;
  pd_.runtime = 48 * 3600.0;
  pd_.backend = w_.yarn ? hp::AgentBackend::kYarnModeI
                        : hp::AgentBackend::kPlain;

  s.pm = std::make_unique<hp::PilotManager>(session);
  s.um = std::make_unique<hp::UnitManager>(session);
  s.um->set_control_plane(w_.plane);

  if (w_.tenants > 0) {
    hoh::tenant::GatewayConfig gw;
    gw.policy = hoh::tenant::SchedulingPolicy::kFairShare;
    gw.dispatch_window = w_.dispatch_window;
    gw.preemption = true;
    s.gateway = std::make_unique<hoh::tenant::SubmissionGateway>(*s.um, gw);
    for (const auto& spec : in_.tenants) s.gateway->add_tenant(spec);
  }

  if (w_.failures) {
    hoh::hpc::BatchScheduler* sched =
        session.saga().resource(w_.machine.name).scheduler.get();
    s.injector = std::make_unique<hoh::sim::FailureInjector>(
        session.engine(), in_.failure_plan, sched->node_names());
    s.injector->set_trace(&session.trace());
    s.injector->on_crash([sched](const std::string& n) { sched->fail_node(n); });
    s.injector->on_repair(
        [sched](const std::string& n) { sched->repair_node(n); });
    s.injector->arm();
  }
}

void Driver::step(Stack& s) {
  ScopedSpan span(rec_, SpanKind::kRunUntil);
  auto& engine = s.session.engine();
  engine.run_until(engine.now() + kStep);
}

void Driver::start_pilot(Stack& s) {
  {
    ScopedSpan span(rec_, SpanKind::kSubmitPilot);
    s.pilot = s.pm->submit_pilot(pd_, agent_);
  }
  s.um->add_pilot(s.pilot);
  if (w_.failures) {
    hoh::common::RetryPolicy retry;
    retry.max_attempts = 4;
    retry.base_backoff = 5.0;
    retry.multiplier = 2.0;
    retry.max_backoff = 60.0;
    retry.jitter = 0.1;
    // A replacement pilot becomes the episode's pilot and a unit target.
    s.pm->enable_recovery(
        retry,
        [&s](const std::shared_ptr<hp::Pilot>& replacement,
             const std::shared_ptr<hp::Pilot>&) {
          s.pilot = replacement;
          s.um->add_pilot(replacement);
        },
        in_.failure_plan.seed);
    s.um->enable_recovery(retry, in_.unit_recovery_seed);
  }
  while (s.pilot->state() != hp::PilotState::kActive &&
         (w_.failures || !hp::is_final(s.pilot->state())) &&
         s.session.engine().now() < kMaxSimTime) {
    step(s);
  }
  if (s.pilot->state() != hp::PilotState::kActive) {
    throw std::runtime_error("pilot never became active");
  }
  if (w_.elastic) {
    ScopedSpan span(rec_, SpanKind::kElasticStart);
    hoh::elastic::ElasticControllerConfig cfg;
    cfg.control_plane = w_.plane;
    cfg.min_nodes = w_.nodes;
    cfg.max_nodes = w_.max_nodes;
    s.controller = std::make_unique<hoh::elastic::ElasticController>(
        *s.pm, s.pilot,
        hoh::elastic::make_policy(
            {"backlog", {{"grow_queued_per_idle", w_.grow_queued_per_idle}}}),
        cfg,
        s.um->estimator_ptr());
    s.controller->start();
  }
}

void Driver::submit_range(Stack& s, std::size_t wave, std::size_t from,
                          std::size_t to) {
  const auto& subs = in_.waves[wave];
  if (s.gateway == nullptr) {
    std::vector<hp::ComputeUnitDescription> cuds;
    cuds.reserve(to - from);
    for (std::size_t i = from; i < to; ++i) cuds.push_back(subs[i].cud);
    ScopedSpan span(rec_, SpanKind::kUmSubmit);
    auto units = s.um->submit(cuds);
    handles_.insert(handles_.end(), units.begin(), units.end());
    return;
  }
  for (std::size_t i = from; i < to; ++i) {
    const auto& spec = in_.tenants[static_cast<std::size_t>(subs[i].tenant)];
    ScopedSpan span(rec_, SpanKind::kGatewaySubmit);
    if (!s.gateway->submit(spec.id, subs[i].cud).accepted) {
      throw std::runtime_error("gateway rejected " + subs[i].cud.name);
    }
  }
}

void Driver::submit_wave(Stack& s, std::size_t wave) {
  // With tenants the arrival is skewed: the flooding tenant fills the
  // window first and the others join join_delay simulated seconds later,
  // so fair-share preemption has a heavy user to take slots from.
  const std::size_t flood = in_.wave_flood[wave];
  const std::size_t size = in_.waves[wave].size();
  submit_range(s, wave, 0, flood > 0 ? flood : size);
  if (wave == 0) r_.setup_s = seconds_since(t0_);
  if (flood == 0 || setup_only_) return;
  const double join_at = s.session.engine().now() + w_.join_delay;
  while (s.session.engine().now() < join_at) step(s);
  submit_range(s, wave, flood, size);
}

bool Driver::barrier_clear(Stack& s) {
  ++r_.counters.all_done_calls;
  {
    ScopedSpan span(rec_, SpanKind::kUmAllDone);
    if (!s.um->all_done()) return false;
  }
  if (s.gateway == nullptr) return true;
  ++r_.counters.quiescent_polls;
  ScopedSpan span(rec_, SpanKind::kGatewayQuiescent);
  return s.gateway->quiescent();
}

void Driver::barrier(Stack& s) {
  while (!barrier_clear(s)) {
    if (s.session.engine().now() >= kMaxSimTime) {
      throw std::runtime_error("barrier did not clear within the sim horizon");
    }
    step(s);
  }
}

void Driver::probe(Stack& s) {
  ScopedSpan span(rec_, SpanKind::kProbe);
  auto& store = s.session.store();
  const std::uint64_t ops_before = store.op_count();
  std::size_t sink = 0;
  r_.get_field_probe_us.push_back(probe_us(32, [&] {
    sink += store.get_field("unit", "unit.0000", "state").has_value() ? 1 : 0;
  }));
  probe_ops_ += store.op_count() - ops_before;
  hp::Agent* agent = s.pilot->agent();
  if (w_.yarn && agent != nullptr && agent->yarn_cluster() != nullptr) {
    const auto& rm = agent->yarn_cluster()->resource_manager();
    r_.cluster_metrics_probe_us.push_back(probe_us(8, [&] {
      sink += rm.cluster_metrics().is_null() ? 0 : 1;
    }));
  }
  if (sink == 0) throw std::runtime_error("probes read nothing");
}

void Driver::check_outputs(Stack& s) {
  std::vector<std::string> submitted;
  submitted.reserve(in_.total_units);
  for (const auto& wave : in_.waves) {
    for (const auto& sub : wave) submitted.push_back(sub.cud.name);
  }
  const std::set<std::string> expected(submitted.begin(), submitted.end());

  // Every submitted unit has exactly one document, in a final state.
  const auto docs = s.session.store().find_all("unit");
  if (docs.size() != submitted.size()) {
    throw std::runtime_error("store holds " + std::to_string(docs.size()) +
                             " unit documents for " +
                             std::to_string(submitted.size()) + " units");
  }
  std::set<std::string> seen;
  std::vector<std::string> done_names;
  for (const auto& [id, doc] : docs) {
    const std::string& name = doc.at("description").at("name").as_string();
    const hp::UnitState state =
        hp::unit_state_from_string(doc.at("state").as_string());
    if (!hp::is_final(state)) {
      throw std::runtime_error("unit " + name + " ended in state " +
                               doc.at("state").as_string());
    }
    if (expected.count(name) == 0 || !seen.insert(name).second) {
      throw std::runtime_error("unexpected or duplicate unit " + name);
    }
    if (state == hp::UnitState::kDone) done_names.push_back(name);
  }
  r_.done = done_names.size();

  const std::string want = digest_names(submitted);
  if (digest_names(done_names) != want) {
    throw std::runtime_error("digest of Done names != digest of submitted");
  }
  if (s.gateway != nullptr) {
    const auto& names = s.gateway->completed_unit_names();
    if (names.size() != submitted.size() || digest_names(names) != want) {
      throw std::runtime_error("gateway completion digest mismatch");
    }
  } else {
    std::size_t done = 0;
    for (const auto& h : handles_) {
      done += h->state() == hp::UnitState::kDone ? 1 : 0;
    }
    if (done != submitted.size()) {
      throw std::runtime_error("unit handles report " + std::to_string(done) +
                               " Done");
    }
  }
}

void Driver::collect(Stack& s) {
  auto& session = s.session;
  Counters& c = r_.counters;
  c.engine_events = session.engine().executed();
  c.store_ops = session.store().op_count() - probe_ops_;
  c.store_mutations = session.store().mutation_count();
  const auto net = session.transport().stats();
  c.net_calls = net.calls;
  c.net_sends = net.sends;
  c.net_bytes = net.bytes_sent + net.bytes_received;
  c.net_reconnects = net.reconnects;
  c.units_requeued = s.um->units_requeued();
  c.units_abandoned = s.um->units_abandoned();
  c.pilots_resubmitted = s.pm->pilots_resubmitted();
  if (s.gateway != nullptr) {
    c.preempted = s.gateway->units_preempted();
    c.peak_in_flight = s.gateway->peak_in_flight();
  }
  if (s.controller != nullptr) {
    const auto ec = s.controller->counters();
    c.elastic_resizes = ec.grow_decisions + ec.shrink_decisions;
  }
  if (s.injector != nullptr) {
    c.crashes = static_cast<std::uint64_t>(s.injector->counters().crashes);
  }

  // Fig. 5 / Fig. 6 quantities, computed as the experiment driver does.
  auto& trace = session.trace();
  const auto agent_started = trace.first("pilot", "agent_started");
  const auto last_done = trace.last("unit", "Done");
  if (!agent_started.has_value() || !last_done.has_value()) {
    throw std::runtime_error("trace lacks agent_started or unit Done");
  }
  r_.sim.ttc_s = last_done->time - agent_started->time;
  for (const auto& span : trace.find_spans("pilot", "agent_startup")) {
    if (span.key == s.pilot->id()) r_.sim.agent_startup_s = span.duration();
  }
  if (w_.trace_rollup) {
    r_.sim.unit_startup_mean_s = trace.span_stats("unit", "startup").mean();
  } else {
    hoh::common::RunningStats startup;
    for (const auto& span : trace.find_spans("unit", "startup")) {
      startup.add(span.duration());
    }
    r_.sim.unit_startup_mean_s = startup.mean();
  }
}

void Driver::run(std::unique_ptr<Stack>& stack) {
  stack = std::make_unique<Stack>();
  Stack& s = *stack;
  build(s);
  start_pilot(s);
  for (std::size_t wave = 0; wave < in_.waves.size(); ++wave) {
    const auto t_wave = Clock::now();
    submit_wave(s, wave);
    if (setup_only_) {
      r_.ok = true;
      return;
    }
    barrier(s);
    const double wave_s = seconds_since(t_wave);
    r_.run_s += wave_s;
    if (rec_ != nullptr) {
      probe(s);
    } else {
      r_.host_probe_s.push_back(host_probe_s());
      r_.ref_run_s += wave_s * kHostProbeNominalS / r_.host_probe_s.back();
    }
  }
  r_.submitted = in_.total_units;
  if (s.controller != nullptr) s.controller->stop();
  if (s.injector != nullptr) s.injector->disarm();
  collect(s);
  check_outputs(s);
  r_.units_per_s = static_cast<double>(r_.done) / r_.run_s;
  if (rec_ == nullptr) {
    r_.units_per_ref_s = static_cast<double>(r_.done) / r_.ref_run_s;
  }
  r_.ok = true;
}

}  // namespace

EpisodeResult run_episode(const Workload& workload, const Inputs& inputs,
                          SpanRecorder* recorder, bool setup_only) {
  EpisodeResult result;
  ScopedSpan root(recorder, SpanKind::kEpisode);
  std::unique_ptr<Stack> stack;
  try {
    Driver(workload, inputs, recorder, setup_only, result).run(stack);
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  ScopedSpan teardown(recorder, SpanKind::kTeardown);
  stack.reset();
  return result;
}

}  // namespace pilotbench
