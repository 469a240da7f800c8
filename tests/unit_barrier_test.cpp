// UnitManager barrier tests (DESIGN.md §13): all_done()/done_count()
// answer from the per-unit records the "unit" store watch keeps current,
// never from store reads. An oracle re-derives both answers by brute
// force from the store's unit documents after every engine step, over
// seeded runs that combine pilot-failure recovery, gateway preemption
// and depends_on units on both control planes. The same oracle checks
// the gateway, which follows the manager's lifecycle listener: a unit
// it holds in flight is unsettled, a unit it saw complete is kDone.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/retry.h"
#include "pilot/pilot_manager.h"
#include "pilot/unit_manager.h"
#include "sim/trace.h"
#include "tenant/submission_gateway.h"

namespace hoh {
namespace {

struct Oracle {
  bool all_done = true;
  bool all_final = true;
  std::size_t done = 0;
};

/// The barrier rule, by brute force over the store: every unit
/// document final, and a kFailed one counts as in flight while it is in
/// limbo, or while it is unabandoned and its pilot is kFailed.
Oracle scan_store(pilot::Session& session, const pilot::UnitManager& um) {
  Oracle o;
  for (const auto& [id, doc] : session.store().find_all("unit")) {
    const pilot::UnitState state =
        pilot::unit_state_from_string(doc.at("state").as_string());
    if (state == pilot::UnitState::kDone) ++o.done;
    if (!pilot::is_final(state)) {
      o.all_done = false;
      o.all_final = false;
      continue;
    }
    if (state != pilot::UnitState::kFailed) continue;
    const auto pilot = um.pilot_by_id(doc.at("pilot").as_string());
    const bool pilot_failed =
        pilot != nullptr && pilot->state() == pilot::PilotState::kFailed;
    if (um.in_limbo(id) || (!um.abandoned(id) && pilot_failed)) {
      o.all_done = false;
    }
  }
  return o;
}

/// The gateway against the store: every unit it holds in flight is
/// unsettled by the barrier rule above, and every unit it saw complete
/// is kDone.
void check_gateway(pilot::Session& session, const pilot::UnitManager& um,
                   const tenant::SubmissionGateway& gw) {
  std::map<std::string, pilot::UnitState> by_name;
  for (const auto& [id, doc] : session.store().find_all("unit")) {
    const pilot::UnitState state =
        pilot::unit_state_from_string(doc.at("state").as_string());
    by_name[doc.at("description").at("name").as_string()] = state;
    if (!gw.in_flight(id) || !pilot::is_final(state)) continue;
    const auto pilot = um.pilot_by_id(doc.at("pilot").as_string());
    const bool pilot_failed =
        pilot != nullptr && pilot->state() == pilot::PilotState::kFailed;
    EXPECT_TRUE(state == pilot::UnitState::kFailed &&
                (um.in_limbo(id) || (!um.abandoned(id) && pilot_failed)))
        << id << " is settled at " << pilot::to_string(state)
        << " but the gateway holds it in flight, t="
        << session.engine().now();
  }
  for (const auto& name : gw.completed_unit_names()) {
    EXPECT_EQ(by_name.at(name), pilot::UnitState::kDone) << name;
  }
}

pilot::ComputeUnitDescription unit(const std::string& name, double duration) {
  pilot::ComputeUnitDescription cud;
  cud.name = name;
  cud.cores = 1;
  cud.memory_mb = 512;
  cud.duration = duration;
  return cud;
}

class BarrierOracleTest
    : public ::testing::TestWithParam<common::ControlPlane> {};

TEST_P(BarrierOracleTest, MatchesBruteForceStoreScanAfterEveryStep) {
  const common::ControlPlane plane = GetParam();
  std::size_t requeued = 0;
  std::size_t preempted = 0;
  std::size_t rule_steps = 0;  // every unit final, a kFailed one in flight
  for (const std::uint64_t seed : {3u, 11u, 29u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    pilot::Session session;
    const cluster::MachineProfile machine = cluster::generic_profile(6, 2);
    session.register_machine(machine, hpc::SchedulerKind::kSlurm, 6);
    hpc::BatchScheduler& batch =
        *session.saga().resource(machine.name).scheduler;

    common::RetryPolicy retry;
    retry.max_attempts = 3;
    retry.base_backoff = 5.0;
    retry.max_backoff = 30.0;
    retry.jitter = 0.2;

    pilot::PilotManager pm(session);
    pilot::UnitManager um(session);
    um.set_control_plane(plane);
    um.enable_recovery(retry, seed);
    pm.enable_recovery(retry,
                       [&um](const std::shared_ptr<pilot::Pilot>& fresh,
                             const std::shared_ptr<pilot::Pilot>&) {
                         um.add_pilot(fresh);
                       });

    tenant::GatewayConfig gc;
    gc.policy = tenant::SchedulingPolicy::kFairShare;
    gc.dispatch_window = 3;
    gc.preemption = true;
    gc.preempt_ratio = 4.0;
    tenant::SubmissionGateway gw(um, gc);
    tenant::TenantSpec hog;
    hog.id = "hog";
    gw.add_tenant(hog);
    tenant::TenantSpec urgent;
    urgent.id = "urgent";
    urgent.share_weight = 8.0;
    gw.add_tenant(urgent);

    pilot::AgentConfig agent;
    agent.spawn_latency = 0.01;
    agent.control_plane = plane;
    pilot::PilotDescription pd;
    pd.resource = "slurm://" + machine.name + "/";
    pd.nodes = 1;
    pd.runtime = 24 * 3600.0;
    std::vector<std::shared_ptr<pilot::Pilot>> pilots;
    for (int i = 0; i < 2; ++i) {
      pilots.push_back(pm.submit_pilot(pd, agent));
      um.add_pilot(pilots.back());
    }

    const auto step_and_check = [&](double seconds) {
      session.engine().run_until(session.engine().now() + seconds);
      const Oracle o = scan_store(session, um);
      ASSERT_EQ(um.all_done(), o.all_done)
          << "t=" << session.engine().now();
      ASSERT_EQ(um.done_count(), o.done) << "t=" << session.engine().now();
      check_gateway(session, um, gw);
      if (o.all_final && !o.all_done) ++rule_steps;
    };

    // Direct units, two of them gating a dependent each, plus one unit
    // whose dependency can never resolve (canceled at the first check).
    std::vector<std::shared_ptr<pilot::ComputeUnit>> roots;
    for (int i = 0; i < 4; ++i) {
      roots.push_back(um.submit(
          unit("root-" + std::to_string(i), rng.uniform(20.0, 90.0))));
    }
    for (int i = 0; i < 2; ++i) {
      pilot::ComputeUnitDescription dep =
          unit("dep-" + std::to_string(i), rng.uniform(10.0, 40.0));
      dep.depends_on = {roots[static_cast<std::size_t>(i)]->id()};
      um.submit(dep);
    }
    pilot::ComputeUnitDescription orphan = unit("orphan", 5.0);
    orphan.depends_on = {"unit.no-such-unit"};
    um.submit(orphan);
    for (int i = 0; i < 3; ++i) {
      gw.submit("hog", unit("hog-" + std::to_string(i),
                            rng.uniform(150.0, 300.0)));
    }
    step_and_check(0.0);

    // Pilots come up; the urgent tenant arrives and preempts a hog unit.
    while (session.engine().now() < 60.0) step_and_check(1.0);
    for (int i = 0; i < 2; ++i) {
      gw.submit("urgent", unit("urgent-" + std::to_string(i),
                               rng.uniform(20.0, 60.0)));
    }
    // A seeded pilot loss mid-run: its units requeue off the dead pilot.
    const double crash_at = session.engine().now() + rng.uniform(5.0, 60.0);
    while (session.engine().now() < crash_at) step_and_check(1.0);
    batch.fail_node(
        pilots[seed % 2]->agent()->allocation().node_names().front());
    step_and_check(0.0);

    const auto drain = [&] {
      while (!(um.all_done() && gw.quiescent()) &&
             session.engine().now() < 7200.0) {
        step_and_check(1.0);
      }
      EXPECT_TRUE(um.all_done());
      EXPECT_TRUE(gw.quiescent());
    };
    drain();

    // The last unit in flight loses its pilot: every other unit is final,
    // so only the recovery rule keeps the barrier closed.
    auto tail = um.submit(unit("tail", 120.0));
    while (tail->state() != pilot::UnitState::kExecuting &&
           session.engine().now() < 7200.0) {
      step_and_check(1.0);
    }
    batch.fail_node(um.pilot_by_id(tail->pilot_id())
                        ->agent()
                        ->allocation()
                        .node_names()
                        .front());
    step_and_check(0.0);
    drain();
    EXPECT_EQ(tail->state(), pilot::UnitState::kDone);
    EXPECT_EQ(um.submitted(), 13u);
    requeued += um.units_requeued();
    preempted += gw.units_preempted();
  }
  // The combination was really exercised, not vacuously matched.
  EXPECT_GT(requeued, 0u);
  EXPECT_GT(preempted, 0u);
  EXPECT_GT(rule_steps, 0u);
}

TEST_P(BarrierOracleTest, SamePassPreemptAndRedispatchStaysInFlight) {
  // The victim tenant wins the re-pick right after a preemption, so one
  // dispatch pass preempts its unit and redispatches it onto the same
  // pilot. The preemption's kFailed event is still in flight behind the
  // revival: the manager must not report the unit final to the gateway.
  const common::ControlPlane plane = GetParam();
  pilot::Session session;
  const cluster::MachineProfile machine = cluster::generic_profile(1, 4);
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, 1);
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  um.set_control_plane(plane);
  tenant::GatewayConfig gc;
  gc.policy = tenant::SchedulingPolicy::kFairShare;
  gc.dispatch_window = 1;
  gc.preemption = true;
  gc.preempt_ratio = 4.0;
  tenant::SubmissionGateway gw(um, gc);
  for (const char* id : {"claimant", "victim"}) {
    tenant::TenantSpec spec;
    spec.id = id;
    gw.add_tenant(spec);
  }
  pilot::AgentConfig agent;
  agent.spawn_latency = 0.01;
  agent.control_plane = plane;
  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = 1;
  pd.runtime = 24 * 3600.0;
  um.add_pilot(pm.submit_pilot(pd, agent));

  const auto step_and_check = [&](double seconds) {
    session.engine().run_until(session.engine().now() + seconds);
    ASSERT_EQ(um.all_done(), scan_store(session, um).all_done);
    check_gateway(session, um, gw);
  };
  const auto run_while = [&](const std::function<bool()>& busy) {
    while (busy() && session.engine().now() < 3600.0) step_and_check(1.0);
  };
  // The claimant's small usage and the victim's large one put the two
  // priorities 40x apart; the refund at preemption then zeroes the
  // victim's usage, so it outranks the claimant on the re-pick.
  gw.submit("claimant", unit("c0", 10.0));
  run_while([&] { return !gw.quiescent(); });
  gw.submit("victim", unit("v0", 400.0));
  step_and_check(0.0);
  std::string v0_id;
  for (const auto& [id, doc] : session.store().find_all("unit")) {
    if (doc.at("description").at("name").as_string() == "v0") v0_id = id;
  }
  const auto v0 = um.find_unit(v0_id);
  ASSERT_NE(v0, nullptr);
  run_while([&] { return v0->state() != pilot::UnitState::kExecuting; });
  gw.submit("claimant", unit("c1", 10.0));
  step_and_check(0.0);

  // Preempted and redispatched at the same instant, still in flight.
  const auto preempted = session.trace().find("tenant", "preempted");
  const auto redispatched =
      session.trace().find("tenant", "unit_redispatched");
  ASSERT_EQ(preempted.size(), 1u);
  ASSERT_EQ(redispatched.size(), 1u);
  EXPECT_EQ(preempted[0].attrs.at("unit"), v0_id);
  EXPECT_EQ(redispatched[0].attrs.at("unit"), v0_id);
  EXPECT_EQ(preempted[0].time, redispatched[0].time);
  EXPECT_EQ(gw.in_flight_count(), 1u);
  EXPECT_TRUE(gw.in_flight(v0_id));
  EXPECT_EQ(gw.accounting().to_json(false)
                .at("tenants").at("victim").at("failed").as_number(),
            0.0);

  run_while([&] { return !(um.all_done() && gw.quiescent()); });
  EXPECT_TRUE(gw.quiescent());
  EXPECT_EQ(gw.completed_unit_names(),
            (std::vector<std::string>{"c0", "v0", "c1"}));
}

TEST_P(BarrierOracleTest, PreemptedUnitOnDeadPilotIsRevivedOnlyByGateway) {
  // The gateway parks a preempted unit at kFailed in its pending queue;
  // the unit's pilot then dies before the gateway re-picks it. Recovery
  // must leave it to the gateway: a second revival would run it to Done
  // behind the gateway's back and strand its later dispatch in flight.
  const common::ControlPlane plane = GetParam();
  pilot::Session session;
  const cluster::MachineProfile machine = cluster::generic_profile(4, 4);
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, 4);
  hpc::BatchScheduler& batch =
      *session.saga().resource(machine.name).scheduler;
  common::RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_backoff = 5.0;
  retry.max_backoff = 30.0;
  retry.jitter = 0.0;
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  um.set_control_plane(plane);
  um.enable_recovery(retry);
  pm.enable_recovery(retry,
                     [&um](const std::shared_ptr<pilot::Pilot>& fresh,
                           const std::shared_ptr<pilot::Pilot>&) {
                       um.add_pilot(fresh);
                     });
  tenant::GatewayConfig gc;
  gc.policy = tenant::SchedulingPolicy::kFairShare;
  gc.dispatch_window = 1;
  gc.preemption = true;
  gc.preempt_ratio = 4.0;
  tenant::SubmissionGateway gw(um, gc);
  for (const char* id : {"claimant", "victim"}) {
    tenant::TenantSpec spec;
    spec.id = id;
    gw.add_tenant(spec);
  }
  pilot::AgentConfig agent;
  agent.spawn_latency = 0.01;
  agent.control_plane = plane;
  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = 1;
  pd.runtime = 24 * 3600.0;
  for (int i = 0; i < 2; ++i) um.add_pilot(pm.submit_pilot(pd, agent));

  const auto step_and_check = [&](double seconds) {
    session.engine().run_until(session.engine().now() + seconds);
    ASSERT_EQ(um.all_done(), scan_store(session, um).all_done);
    check_gateway(session, um, gw);
  };
  const auto run_while = [&](const std::function<bool()>& busy) {
    while (busy() && session.engine().now() < 7200.0) step_and_check(1.0);
  };
  const auto unit_named = [&](const std::string& name) {
    for (const auto& [id, doc] : session.store().find_all("unit")) {
      if (doc.at("description").at("name").as_string() == name) {
        return um.find_unit(id);
      }
    }
    return std::shared_ptr<pilot::ComputeUnit>();
  };
  // The victim's finished v0 leaves it usage that outlives the refund,
  // so the claimant keeps winning the re-pick after the preemption.
  gw.submit("victim", unit("v0", 20.0));
  run_while([&] { return !gw.quiescent(); });
  gw.submit("victim", unit("v1", 50.0));
  step_and_check(0.0);
  const auto v1 = unit_named("v1");
  ASSERT_NE(v1, nullptr);
  run_while([&] { return v1->state() != pilot::UnitState::kExecuting; });
  // c0 outlasts v1's run time, so a revival by recovery would finish v1
  // before the gateway re-picks it.
  gw.submit("claimant", unit("c0", 60.0));
  gw.submit("claimant", unit("c1", 60.0));
  step_and_check(0.0);
  ASSERT_EQ(gw.units_preempted(), 1u);
  ASSERT_FALSE(gw.in_flight(v1->id()));  // parked in the gateway

  const auto victim_pilot = um.pilot_by_id(v1->pilot_id());
  batch.fail_node(victim_pilot->agent()->allocation().node_names().front());
  ASSERT_EQ(victim_pilot->state(), pilot::PilotState::kFailed);
  step_and_check(0.0);

  run_while([&] { return !(um.all_done() && gw.quiescent()); });
  EXPECT_TRUE(um.all_done());
  EXPECT_TRUE(gw.quiescent());
  EXPECT_EQ(v1->state(), pilot::UnitState::kDone);
  std::vector<std::string> names = gw.completed_unit_names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"c0", "c1", "v0", "v1"}));
}

INSTANTIATE_TEST_SUITE_P(
    BothPlanes, BarrierOracleTest,
    ::testing::Values(common::ControlPlane::kPoll,
                      common::ControlPlane::kWatch),
    [](const ::testing::TestParamInfo<common::ControlPlane>& info) {
      return common::to_string(info.param);
    });

TEST(BarrierCostTest, PollsDuringAWaveReadNothingFromTheStore) {
  pilot::Session session;
  const cluster::MachineProfile machine = cluster::generic_profile(100, 16);
  session.register_machine(machine, hpc::SchedulerKind::kSlurm, 100);
  session.store().set_shard_count(16);
  pilot::PilotManager pm(session);
  pilot::UnitManager um(session);
  um.set_control_plane(common::ControlPlane::kWatch);
  pilot::AgentConfig agent;
  agent.spawn_latency = 0.001;
  agent.control_plane = common::ControlPlane::kWatch;
  pilot::PilotDescription pd;
  pd.resource = "slurm://" + machine.name + "/";
  pd.nodes = 100;
  pd.runtime = 24 * 3600.0;
  auto pilot = pm.submit_pilot(pd, agent);
  um.add_pilot(pilot);

  common::Rng rng(7);
  std::vector<pilot::ComputeUnitDescription> wave;
  for (int i = 0; i < 5000; ++i) {
    wave.push_back(unit("u" + std::to_string(i), rng.uniform(30.0, 90.0)));
  }
  um.submit(wave);

  auto& store = session.store();
  std::size_t polls = 0;
  std::size_t polls_after_mutations = 0;
  std::uint64_t muts = store.mutation_count();
  while (!um.all_done() && session.engine().now() < 36000.0) {
    session.engine().run_until(session.engine().now() + 2.0);
    if (store.mutation_count() != muts) ++polls_after_mutations;
    muts = store.mutation_count();
    const std::uint64_t ops = store.op_count();
    const bool done = um.all_done();
    const std::size_t done_units = um.done_count();
    ASSERT_EQ(store.op_count(), ops)
        << "poll " << polls << " at t=" << session.engine().now();
    ASSERT_EQ(done, done_units == wave.size());
    ++polls;
  }
  EXPECT_TRUE(um.all_done());
  EXPECT_EQ(um.done_count(), wave.size());
  EXPECT_GT(polls_after_mutations, 10u);
}

TEST(EstimatorFeedTest, LearnsExecutingToDoneSpanWithTraceRollup) {
  // The rolled-up trace keeps no per-unit events, so the estimator must
  // learn from the lifecycle itself, not from the trace.
  pilot::Session session;
  session.register_machine(cluster::generic_profile(8, 8, 16 * 1024),
                           hpc::SchedulerKind::kSlurm, 8);
  session.trace().enable_rollup("unit");
  pilot::PilotManager pm(session);
  auto estimator = std::make_shared<pilot::MovingAverageEstimator>(0.5, 10.0);
  pilot::UnitManager um(session, pilot::UnitSchedulingPolicy::kPredictive,
                        estimator);
  pilot::PilotDescription pd;
  pd.resource = "slurm://beowulf/";
  um.add_pilot(pm.submit_pilot(pd));
  pilot::ComputeUnitDescription cud = unit("burn", 50.0);
  cud.executable = "burn";
  um.submit(cud);
  session.engine().run_until(200.0);
  ASSERT_TRUE(um.all_done());
  EXPECT_TRUE(session.trace().find("unit", "Done").empty());
  EXPECT_EQ(estimator->observed_executables(), 1u);
  EXPECT_NEAR(estimator->predict(cud), 50.0, 1.0);
}

}  // namespace
}  // namespace hoh
