#include "pilot/unit_manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/string_util.h"
#include "net/json_codec.h"
#include "net/message.h"
#include "net/transport.h"
#include "pilot/agent/agent.h"

namespace hoh::pilot {

namespace {

/// Session-unique submit-endpoint prefix per manager (engine-thread
/// only; the names never enter digests).
std::string next_um_prefix() {
  static std::uint64_t counter = 0;
  return "um" + std::to_string(counter++);
}

}  // namespace

UnitManager::UnitManager(Session& session, UnitSchedulingPolicy policy,
                         std::shared_ptr<RuntimeEstimator> estimator)
    : session_(session),
      policy_(policy),
      estimator_(estimator != nullptr
                     ? std::move(estimator)
                     : std::make_shared<MovingAverageEstimator>()) {
  register_submit_endpoint();
  unit_watch_ = session_.store().watch("unit", "", [this](const auto& e) {
    on_unit_event(e);
  });
}

void UnitManager::register_submit_endpoint() {
  submit_endpoint_ = next_um_prefix() + ".submit";
  session_.transport().register_endpoint(
      submit_endpoint_, [this](const net::Envelope& env) {
        const auto msg = net::open_envelope<net::SubmitRequest>(env);
        net::Unpacker u(msg.description);
        const ComputeUnitDescription desc = unit_from_json(net::unpack_json(u));
        u.expect_done();
        return net::make_envelope(net::SubmitReply{submit(desc)->id()});
      });
}

UnitState ComputeUnit::state() const {
  return manager_->session().store().unit_state(id_).value_or(UnitState::kNew);
}

UnitManager::~UnitManager() {
  session_.transport().unregister_endpoint(submit_endpoint_);
  if (dependency_check_.valid()) {
    session_.engine().cancel(dependency_check_);
    dependency_check_ = sim::EventHandle{};
  }
  session_.store().unwatch(unit_watch_);
}

void UnitManager::add_pilot(std::shared_ptr<Pilot> pilot) {
  if (pilot == nullptr) {
    throw common::ConfigError("UnitManager::add_pilot: null pilot");
  }
  bound_counts_.emplace(pilot->id(), 0);
  backlog_seconds_.emplace(pilot->id(), 0.0);
  pilots_.push_back(pilot);
  if (recovery_enabled_) watch_pilot_for_recovery(pilot);
  // A replacement pilot may be exactly what parked units wait for.
  drain_parked();
}

Pilot* UnitManager::pick_pilot(const ComputeUnitDescription& /*desc*/) {
  // Dead pilots are never targets: with none live, the caller parks.
  const auto live = [](const std::shared_ptr<Pilot>& p) {
    return !is_final(p->state());
  };
  switch (policy_) {
    case UnitSchedulingPolicy::kRoundRobin: {
      for (std::size_t i = 0; i < pilots_.size(); ++i) {
        const auto& pilot = pilots_[rr_next_ % pilots_.size()];
        ++rr_next_;
        if (live(pilot)) return pilot.get();
      }
      return nullptr;
    }
    case UnitSchedulingPolicy::kLeastLoaded: {
      Pilot* best = nullptr;
      std::size_t best_count = SIZE_MAX;
      for (const auto& pilot : pilots_) {
        if (!live(pilot)) continue;
        const std::size_t count = bound_counts_.at(pilot->id());
        if (count < best_count) {
          best = pilot.get();
          best_count = count;
        }
      }
      return best;
    }
    case UnitSchedulingPolicy::kPredictive: {
      // Least predicted outstanding seconds, normalized by the pilot's
      // *live* node count so elastic resizes shift load immediately; the
      // description size stands in until the placeholder job starts.
      Pilot* best = nullptr;
      double best_backlog = 1e300;
      for (const auto& pilot : pilots_) {
        if (!live(pilot)) continue;
        const int nodes = pilot->live_nodes() > 0
                              ? pilot->live_nodes()
                              : pilot->description().nodes;
        const double normalized = backlog_seconds_.at(pilot->id()) /
                                  static_cast<double>(std::max(1, nodes));
        if (normalized < best_backlog) {
          best = pilot.get();
          best_backlog = normalized;
        }
      }
      return best;
    }
  }
  throw common::ConfigError("unknown scheduling policy");
}

void UnitManager::enable_recovery(common::RetryPolicy policy,
                                  std::uint64_t seed) {
  policy.validate();
  recovery_policy_ = policy;
  recovery_rng_ = common::Rng(seed);
  if (recovery_enabled_) return;
  recovery_enabled_ = true;
  for (const auto& pilot : pilots_) watch_pilot_for_recovery(pilot);
}

void UnitManager::watch_pilot_for_recovery(
    const std::shared_ptr<Pilot>& pilot) {
  const std::string pilot_id = pilot->id();
  pilot->on_state_change([this, pilot_id](PilotState state) {
    if (state != PilotState::kFailed) return;
    // Decouple from the failure callback stack (the agent is mid-
    // teardown when the pilot announces kFailed).
    session_.engine().schedule(
        0.0, [this, pilot_id] { handle_pilot_failure(pilot_id); });
  });
}

void UnitManager::handle_pilot_failure(const std::string& pilot_id) {
  if (!recovery_enabled_) return;
  // The agent writes every unit it holds kFailed before its pilot
  // announces kFailed, so those writes' delivery tick is queued ahead of
  // this zero-delay event: the kFailed records are complete here. Slot
  // order is submission order, which the backoff jitter draws follow.
  for (const std::size_t slot : failed_) {
    UnitRecord& rec = records_[slot];
    // A preempted unit is its holder's to revive, not recovery's.
    if (rec.unit->pilot_id() != pilot_id || rec.requeues < 0 ||
        rec.preempted) {
      continue;
    }
    const std::string& unit_id = rec.unit->id();
    const int requeues = rec.requeues;
    // Total executions = 1 original + requeues; one more must fit the
    // budget.
    if (!recovery_policy_.allows(requeues + 2)) {
      ++units_abandoned_;
      rec.requeues = -1;  // mark: budget gone, stop counting
      session_.trace().record(session_.engine().now(), "recovery",
                              "unit_abandoned",
                              {{"unit", unit_id},
                               {"pilot", pilot_id},
                               {"requeues", std::to_string(requeues)}});
      if (listener_) listener_(unit_id, UnitState::kFailed);  // settled now
      continue;
    }
    session_.trace().begin_span(session_.engine().now(), "recovery",
                                "unit_outage", unit_id);
    rec.limbo = true;
    const common::Seconds backoff =
        recovery_policy_.backoff_for(requeues + 1, recovery_rng_);
    session_.engine().schedule(backoff,
                               [this, unit_id] { bind_or_park(unit_id); });
  }
}

Pilot* UnitManager::find_live_pilot() {
  for (const auto& pilot : pilots_) {
    if (!is_final(pilot->state())) return pilot.get();
  }
  return nullptr;
}

void UnitManager::bind_or_park(const std::string& unit_id) {
  UnitRecord* rec = find_record(unit_id);
  if (rec == nullptr) return;
  ComputeUnit& unit = *rec->unit;
  const bool fresh = unit.pilot_id().empty();
  if (!fresh && unit.state() != UnitState::kFailed) {
    rec->limbo = false;  // revived already (recovery and gateway raced)
    return;
  }
  Pilot* target = fresh ? pick_pilot(unit.description()) : find_live_pilot();
  if (target == nullptr) {
    parked_.push_back(unit_id);  // add_pilot drains it
    return;
  }
  const std::string from = unit.pilot_id();
  rebind(*rec, target->id());
  rec->preempted = false;
  if (fresh) {
    dispatch_to_agent(unit_id, target->id(), unit.description());
    return;
  }
  // kFailed -> kPendingAgent is the one legal edge out of a final state
  // (see transitions.h); then back onto a live agent queue (U.2 again).
  session_.store().update(
      "unit", unit_id,
      {{"state", common::Json(to_string(UnitState::kPendingAgent))},
       {"pilot", common::Json(target->id())}});
  session_.store().queue_push("agent." + target->id(), unit_id);
  // The record takes the manager's own write now, and ignores the
  // events still in flight from before it (DESIGN.md §13).
  rec->revivals += 1;
  observe(*rec, UnitState::kPendingAgent);
  if (!rec->limbo) {
    session_.trace().record(
        session_.engine().now(), "tenant", "unit_redispatched",
        {{"unit", unit_id}, {"from", from}, {"to", target->id()}});
    return;
  }
  rec->requeues += 1;
  ++units_requeued_;
  session_.trace().record(session_.engine().now(), "recovery",
                          "unit_requeued",
                          {{"unit", unit_id},
                           {"from", from},
                           {"to", target->id()},
                           {"attempt", std::to_string(rec->requeues + 1)}});
  session_.trace().end_span(session_.engine().now(), "recovery",
                            "unit_outage", unit_id);
  rec->limbo = false;
}

bool UnitManager::preempt(const std::string& unit_id) {
  UnitRecord* rec = find_record(unit_id);
  if (rec == nullptr) return false;
  const auto pilot = pilot_by_id(rec->unit->pilot_id());
  if (pilot == nullptr || pilot->agent() == nullptr ||
      !pilot->agent()->preempt_unit(unit_id)) {
    return false;
  }
  rec->preempted = true;
  return true;
}

void UnitManager::rebind(UnitRecord& rec, const std::string& to) {
  // The unit now counts against the new pilot. A prediction still in the
  // old pilot's backlog moves with it; one already folded out comes back
  // in when the revival is observed.
  const std::string& from = rec.unit->pilot_id();
  auto bound = bound_counts_.find(from);
  if (bound != bound_counts_.end() && bound->second > 0) bound->second -= 1;
  bound_counts_[to] += 1;
  if (rec.in_backlog) {
    if (!from.empty()) backlog_seconds_[from] -= rec.predicted;
    backlog_seconds_[to] += rec.predicted;
  }
  rec.unit->pilot_id_ = to;
}

UnitManager::UnitRecord* UnitManager::find_record(const std::string& unit_id) {
  auto it = record_index_.find(unit_id);
  return it == record_index_.end() ? nullptr : &records_[it->second];
}

const UnitManager::UnitRecord* UnitManager::find_record(
    const std::string& unit_id) const {
  auto it = record_index_.find(unit_id);
  return it == record_index_.end() ? nullptr : &records_[it->second];
}

std::shared_ptr<ComputeUnit> UnitManager::find_unit(
    const std::string& unit_id) const {
  const UnitRecord* rec = find_record(unit_id);
  return rec == nullptr ? nullptr : rec->unit;
}

bool UnitManager::in_limbo(const std::string& unit_id) const {
  const UnitRecord* rec = find_record(unit_id);
  return rec != nullptr && rec->limbo;
}

bool UnitManager::abandoned(const std::string& unit_id) const {
  const UnitRecord* rec = find_record(unit_id);
  return rec != nullptr && rec->requeues < 0;
}

std::shared_ptr<Pilot> UnitManager::pilot_by_id(
    const std::string& pilot_id) const {
  for (const auto& pilot : pilots_) {
    if (pilot->id() == pilot_id) return pilot;
  }
  return nullptr;
}

void UnitManager::drain_parked() {
  std::vector<std::string> waiting;
  waiting.swap(parked_);
  for (const auto& unit_id : waiting) bind_or_park(unit_id);
}

void UnitManager::on_unit_event(const WatchEvent& event) {
  UnitRecord* rec = event.state.has_value() ? find_record(event.key) : nullptr;
  bool moved = false;
  if (rec != nullptr && rec->revivals > 0) {
    // Older than the manager's own revival write, which the record
    // already holds; that write's own event closes the gap.
    if (event.type == WatchEventType::kUpdate &&
        *event.state == UnitState::kPendingAgent) {
      rec->revivals -= 1;
    }
  } else if (rec != nullptr) {
    moved = observe(*rec, *event.state);
  }
  // Watch plane: any unit state write (agent write-back, cancellation)
  // may resolve a dependency, so re-check on those instead of sweeping.
  if (control_plane_ == common::ControlPlane::kWatch &&
      event.type == WatchEventType::kUpdate && !held_.empty()) {
    check_dependencies();
  }
  if (!moved || !listener_) return;
  const UnitState state = rec->state;
  if (state == UnitState::kExecuting ||
      (is_final(state) &&
       (state != UnitState::kFailed || failed_settled(*rec)))) {
    listener_(event.key, state);
  }
}

bool UnitManager::observe(UnitRecord& rec, UnitState next) {
  const UnitState prev = rec.state;
  if (prev == next) return false;
  // hoh-analyze: allow-next-line(state-write) -- mirrors a gated write
  rec.state = next;
  const std::size_t slot = static_cast<std::size_t>(&rec - records_.data());
  if (prev == UnitState::kFailed) failed_.erase(slot);
  if (next == UnitState::kFailed) failed_.insert(slot);
  if (next == UnitState::kDone) ++done_count_;
  const common::Seconds now = session_.engine().now();
  if (next == UnitState::kExecuting) rec.executing_at = now;
  if (is_final(prev) == is_final(next)) return true;
  if (!is_final(next)) {  // revived (kFailed -> kPendingAgent)
    --final_count_;
    if (!rec.in_backlog) {
      backlog_seconds_[rec.unit->pilot_id()] += rec.predicted;
      rec.in_backlog = true;
    }
    return true;
  }
  ++final_count_;
  if (rec.in_backlog) {
    backlog_seconds_[rec.unit->pilot_id()] -= rec.predicted;
    rec.in_backlog = false;
  }
  // Observed runtime: the finished attempt's Executing -> Done span.
  if (next == UnitState::kDone && rec.executing_at >= 0.0) {
    estimator_->observe(rec.unit->description(), now - rec.executing_at);
  }
  rec.executing_at = -1.0;
  return true;
}

std::vector<std::shared_ptr<ComputeUnit>> UnitManager::submit(
    const std::vector<ComputeUnitDescription>& descriptions) {
  if (pilots_.empty()) {
    throw common::StateError("UnitManager has no pilots");
  }
  std::vector<std::shared_ptr<ComputeUnit>> out;
  out.reserve(descriptions.size());
  records_.reserve(records_.size() + descriptions.size());
  record_index_.reserve(records_.size() + descriptions.size());
  for (const auto& desc : descriptions) {
    if (desc.cores < 1) {
      throw common::ConfigError("ComputeUnitDescription.cores must be >= 1");
    }
    const std::string unit_id = session_.next_unit_id();
    // U.1; a held unit binds when released, and none binds to a dead pilot.
    Pilot* target = desc.depends_on.empty() ? pick_pilot(desc) : nullptr;
    auto handle = std::shared_ptr<ComputeUnit>(
        new ComputeUnit(this, unit_id, "", desc));
    record_index_.emplace(unit_id, records_.size());
    records_.push_back(UnitRecord{
        handle, target != nullptr ? UnitState::kPendingAgent : UnitState::kNew,
        -1.0, estimator_->predict(desc)});
    if (target != nullptr) rebind(records_.back(), target->id());

    session_.trace().record(session_.engine().now(), "unit", "Submitted",
                            {{"unit", unit_id}, {"pilot", handle->pilot_id()}});
    session_.trace().begin_span(session_.engine().now(), "unit", "startup",
                                unit_id);

    if (target != nullptr) {
      dispatch_to_agent(unit_id, target->id(), desc);
    } else {
      // Held back or parked: document exists (state New) so handles can
      // query it.
      common::Json doc;
      doc["description"] = unit_to_json(desc);
      doc["state"] = to_string(UnitState::kNew);
      doc["pilot"] = handle->pilot_id();
      session_.store().put("unit", unit_id, std::move(doc));
      if (desc.depends_on.empty()) {
        parked_.push_back(unit_id);
      } else {
        held_.push_back(unit_id);
        // Watch plane: the unit watch re-checks (on_unit_event).
        if (control_plane_ == common::ControlPlane::kPoll &&
            !dependency_check_.valid()) {
          dependency_check_ = session_.engine().schedule_periodic(
              1.0, [this] { check_dependencies(); });
        }
      }
    }
    out.push_back(std::move(handle));
  }
  return out;
}

void UnitManager::dispatch_to_agent(const std::string& unit_id,
                                    const std::string& pilot_id,
                                    const ComputeUnitDescription& desc) {
  common::Json doc;
  doc["description"] = unit_to_json(desc);
  doc["state"] = to_string(UnitState::kPendingAgent);
  doc["pilot"] = pilot_id;
  // U.2 over the message boundary: document put + agent queue push as
  // one StoreIngest through the session transport (DESIGN.md §14). The
  // document crosses as packed binary Json, bit-exact.
  net::Packer packer;
  net::pack_json(packer, doc);
  net::call<net::Ack>(
      session_.transport(), "store.ingest",
      net::StoreIngest{"unit", unit_id, "agent." + pilot_id, packer.take()});
}

void UnitManager::check_dependencies() {
  std::vector<std::string> still_held;
  for (auto& unit_id : held_) {
    const ComputeUnit& unit = *find_record(unit_id)->unit;
    bool ready = true;
    bool doomed = false;
    for (const auto& dep_id : unit.description().depends_on) {
      const UnitRecord* dep = find_record(dep_id);
      if (dep == nullptr) {
        doomed = true;  // unknown dependency can never resolve
        break;
      }
      const UnitState dep_state = dep->unit->state();
      if (dep_state == UnitState::kFailed ||
          dep_state == UnitState::kCanceled) {
        doomed = true;
        break;
      }
      if (dep_state != UnitState::kDone) ready = false;
    }
    if (doomed) {
      session_.store().update(
          "unit", unit_id,
          {{"state", common::Json(to_string(UnitState::kCanceled))}});
      session_.trace().record(session_.engine().now(), "unit", "Canceled",
                              {{"unit", unit_id},
                               {"reason", "dependency-failed"}});
      continue;
    }
    if (ready) {
      bind_or_park(unit_id);
    } else {
      still_held.push_back(std::move(unit_id));
    }
  }
  held_ = std::move(still_held);
  if (held_.empty() && dependency_check_.valid()) {
    session_.engine().cancel(dependency_check_);
    dependency_check_ = sim::EventHandle{};
  }
}

std::shared_ptr<ComputeUnit> UnitManager::submit(
    const ComputeUnitDescription& description) {
  return submit(std::vector<ComputeUnitDescription>{description}).front();
}

bool UnitManager::all_done() const {
  // Barrier (DESIGN.md §13): a counter comparison while any unit is
  // unfinished; once all are final, only the kFailed records need the
  // recovery rule.
  if (final_count_ != records_.size()) return false;
  for (const std::size_t slot : failed_) {
    if (!failed_settled(records_[slot])) return false;
  }
  return true;
}

bool UnitManager::failed_settled(const UnitRecord& rec) const {
  if (!recovery_enabled_) return true;
  if (rec.limbo) return false;  // requeue in flight: not settled yet
  // A unit that died with its pilot but has not been triaged yet (the
  // zero-delay handle_pilot_failure event is still queued) is equally in
  // flight: without this, a barrier polling at the exact crash instant
  // concludes the run finished. Abandoned units are settled.
  if (rec.requeues < 0) return true;
  for (const auto& pilot : pilots_) {
    if (pilot->id() == rec.unit->pilot_id() &&
        pilot->state() == PilotState::kFailed) {
      return false;
    }
  }
  return true;
}

}  // namespace hoh::pilot
