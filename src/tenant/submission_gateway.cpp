#include "tenant/submission_gateway.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "net/json_codec.h"
#include "net/message.h"
#include "net/transport.h"

namespace hoh::tenant {

SchedulingPolicy scheduling_policy_from_string(const std::string& name) {
  if (name == "fifo") return SchedulingPolicy::kFifo;
  if (name == "fair-share" || name == "fairshare") {
    return SchedulingPolicy::kFairShare;
  }
  throw common::ConfigError("unknown gateway policy: " + name);
}

const char* to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kFairShare:
      return "fair-share";
  }
  return "?";
}

SubmissionGateway::SubmissionGateway(pilot::UnitManager& um,
                                     GatewayConfig config)
    : um_(um),
      engine_(um.session().engine()),
      config_(config),
      scheduler_(config.decay_half_life),
      accounting_(config.accounting_journal) {
  // The UnitManager owns unit lifecycle; its listener tells the gateway
  // when an in-flight unit reaches kExecuting (wait-time accounting) and
  // a settled final state (frees a window slot, triggers a dispatch
  // tick). No store watch of its own, no periodic loop.
  um_.set_unit_listener([this](const std::string& unit_id,
                               pilot::UnitState state) {
    on_unit_progress(unit_id, state);
  });
}

SubmissionGateway::~SubmissionGateway() {
  um_.set_unit_listener(nullptr);
  if (tick_event_.valid()) {
    engine_.cancel(tick_event_);
    tick_event_ = sim::EventHandle{};
  }
}

void SubmissionGateway::add_tenant(TenantSpec spec) {
  if (spec.id.empty()) {
    throw common::ConfigError("SubmissionGateway: empty tenant id");
  }
  TenantRec rec;
  rec.bucket = TokenBucket(spec.quota.submit_rate, spec.quota.submit_burst);
  scheduler_.add_tenant(spec.id, spec.share_weight);
  rec.spec = std::move(spec);
  const std::string id = rec.spec.id;
  tenants_[id] = std::move(rec);
}

bool SubmissionGateway::quota_allows(const TenantRec& tenant,
                                     int head_cores) const {
  const TenantQuota& quota = tenant.spec.quota;
  if (quota.max_in_flight_units > 0 &&
      tenant.in_flight >= quota.max_in_flight_units) {
    return false;
  }
  if (quota.max_cores > 0 &&
      tenant.cores_in_flight + head_cores > quota.max_cores) {
    return false;
  }
  return true;
}

Admission SubmissionGateway::submit(const std::string& tenant_id,
                                    pilot::ComputeUnitDescription desc) {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    throw common::NotFoundError("SubmissionGateway: unknown tenant " +
                                tenant_id);
  }
  TenantRec& tenant = it->second;
  const common::Seconds now = engine_.now();
  accounting_.on_submitted(now, tenant_id, desc.name);

  // Admission gate 1: submit rate. Over-rate work is refused outright —
  // before any StateStore insert — so a storm from one tenant cannot
  // flood the shared store.
  if (!tenant.bucket.try_take(now)) {
    accounting_.on_rejected(now, tenant_id, desc.name, "rate-limit");
    return Admission{false, false, "rate-limit"};
  }

  // Admission gate 2: capacity quotas queue (never reject) — the unit
  // stays gateway-side until a dispatch pass finds room.
  const bool immediate =
      tenant.pending.empty() && quota_allows(tenant, desc.cores) &&
      (config_.dispatch_window <= 0 ||
       static_cast<int>(in_flight_.size()) < config_.dispatch_window);
  PendingUnit unit;
  unit.seq = next_seq_++;
  unit.desc = std::move(desc);
  unit.submit_time = now;
  accounting_.on_admitted(now, tenant_id, unit.desc.name, !immediate);
  tenant.pending.push_back(std::move(unit));
  request_dispatch();
  return Admission{true, !immediate, ""};
}

void SubmissionGateway::request_dispatch() {
  if (tick_pending_) return;
  tick_pending_ = true;
  tick_event_ = engine_.schedule(0.0, [this] {
    tick_pending_ = false;
    tick_event_ = sim::EventHandle{};
    dispatch_pass();
  });
}

void SubmissionGateway::dispatch_pass() {
  const common::Seconds now = engine_.now();
  while (true) {
    // Eligible = has pending work and its head fits the tenant quotas.
    std::vector<std::string> eligible;
    for (const auto& [id, tenant] : tenants_) {
      if (!tenant.pending.empty() &&
          quota_allows(tenant, tenant.pending.front().desc.cores)) {
        eligible.push_back(id);
      }
    }
    if (eligible.empty()) return;

    std::string winner;
    if (config_.policy == SchedulingPolicy::kFairShare) {
      winner = scheduler_.pick(eligible, now);
    } else {
      std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
      for (const auto& id : eligible) {
        const std::uint64_t seq = tenants_.at(id).pending.front().seq;
        if (seq < best_seq) {
          best_seq = seq;
          winner = id;
        }
      }
    }

    if (config_.dispatch_window > 0 &&
        static_cast<int>(in_flight_.size()) >= config_.dispatch_window) {
      // Window full. Fair-share may evict a much lower-priority tenant's
      // freshest unit for the winner; otherwise wait for a completion.
      if (config_.policy == SchedulingPolicy::kFairShare &&
          config_.preemption && try_preempt_for(winner, now)) {
        continue;  // a slot is free now; re-run the pick
      }
      return;
    }
    dispatch_head(tenants_.at(winner));
  }
}

void SubmissionGateway::dispatch_head(TenantRec& tenant) {
  const common::Seconds now = engine_.now();
  PendingUnit unit = std::move(tenant.pending.front());
  tenant.pending.pop_front();

  if (unit.unit_id.empty()) {
    // First dispatch: the unit enters the StateStore here (U.1/U.2) —
    // and only here, which is the admission-before-insert invariant.
    // The submission crosses the message boundary (DESIGN.md §14): the
    // description travels as packed binary Json in a SubmitRequest and
    // the Unit-Manager answers with the assigned unit id.
    net::Packer packer;
    net::pack_json(packer, pilot::unit_to_json(unit.desc));
    const auto reply = net::call<net::SubmitReply>(
        um_.session().transport(), um_.submit_endpoint(),
        net::SubmitRequest{tenant.spec.id, packer.take()});
    unit.unit_id = reply.unit_id;
  } else {
    // Parked preempted unit: cross the legal kFailed -> kPendingAgent
    // edge back onto a live pilot (the manager parks it until one is).
    um_.bind_or_park(unit.unit_id);
  }
  FlightRec flight;
  flight.handle = um_.find_unit(unit.unit_id);
  flight.tenant = tenant.spec.id;
  flight.seq = unit.seq;
  flight.submit_time = unit.submit_time;
  flight.dispatch_time = now;
  flight.wait_recorded = unit.wait_recorded;
  tenant.in_flight += 1;
  tenant.cores_in_flight += unit.desc.cores;
  if (config_.policy == SchedulingPolicy::kFairShare) {
    // Charge the estimated usage at dispatch; a preemption refunds it.
    flight.charged = unit.desc.cores * std::max(unit.desc.duration, 0.0);
    scheduler_.charge(flight.tenant, flight.charged, now);
  }
  accounting_.on_dispatched(now, flight.tenant, unit.desc.name);
  um_.session().trace().record(now, "tenant", "dispatched",
                               {{"tenant", flight.tenant},
                                {"unit", unit.unit_id}});
  in_flight_[unit.unit_id] = std::move(flight);
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_.size());
}

bool SubmissionGateway::try_preempt_for(const std::string& claimant,
                                        common::Seconds now) {
  // Victim tenant: lowest effective priority among window holders.
  const std::string* victim_tenant = nullptr;
  double victim_priority = 0.0;
  for (const auto& [id, tenant] : tenants_) {
    if (id == claimant || tenant.in_flight == 0) continue;
    const double priority = scheduler_.effective_priority(id, now);
    if (victim_tenant == nullptr || priority < victim_priority) {
      victim_tenant = &id;
      victim_priority = priority;
    }
  }
  if (victim_tenant == nullptr) return false;
  const double claimant_priority =
      scheduler_.effective_priority(claimant, now);
  if (claimant_priority < config_.preempt_ratio * victim_priority) {
    return false;
  }

  // Victim unit: the victim tenant's most recently dispatched in-flight
  // unit (least sunk work). The agent may refuse one mid-staging; try
  // the next.
  std::vector<const std::string*> candidates;
  for (const auto& [unit_id, flight] : in_flight_) {
    if (flight.tenant == *victim_tenant) candidates.push_back(&unit_id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](const std::string* a, const std::string* b) {
              const FlightRec& fa = in_flight_.at(*a);
              const FlightRec& fb = in_flight_.at(*b);
              if (fa.dispatch_time != fb.dispatch_time) {
                return fa.dispatch_time > fb.dispatch_time;
              }
              return fa.seq > fb.seq;
            });
  for (const std::string* unit_id : candidates) {
    if (!um_.preempt(*unit_id)) continue;
    FlightRec& flight = in_flight_.at(*unit_id);
    // The victim now sits at kFailed in the store (the PR 4 requeue
    // edge's tail state). Park it at the front of its tenant queue so
    // it is the next unit its tenant redispatches.
    const std::string id = *unit_id;  // copy before the map erase
    TenantRec& owner = tenants_.at(flight.tenant);
    PendingUnit parked;
    parked.seq = flight.seq;
    parked.desc = flight.handle->description();
    parked.submit_time = flight.submit_time;
    parked.unit_id = id;
    parked.wait_recorded = flight.wait_recorded;
    owner.in_flight -= 1;
    owner.cores_in_flight -= parked.desc.cores;
    scheduler_.charge(flight.tenant, -flight.charged, now);  // refund
    accounting_.on_preempted(now, flight.tenant, parked.desc.name);
    um_.session().trace().record(now, "tenant", "preempted",
                                 {{"tenant", flight.tenant},
                                  {"unit", id},
                                  {"for", claimant}});
    owner.pending.push_front(std::move(parked));
    in_flight_.erase(id);
    units_preempted_ += 1;
    return true;
  }
  return false;
}

void SubmissionGateway::on_unit_progress(const std::string& unit_id,
                                         pilot::UnitState state) {
  auto it = in_flight_.find(unit_id);
  if (it == in_flight_.end()) return;
  const common::Seconds now = engine_.now();
  if (state == pilot::UnitState::kExecuting) {
    if (!it->second.wait_recorded) {
      it->second.wait_recorded = true;
      accounting_.on_started(now, it->second.tenant,
                             it->second.handle->description().name,
                             now - it->second.submit_time);
    }
    return;
  }
  FlightRec flight = std::move(it->second);
  in_flight_.erase(it);
  TenantRec& tenant = tenants_.at(flight.tenant);
  tenant.in_flight -= 1;
  const pilot::ComputeUnitDescription& desc = flight.handle->description();
  tenant.cores_in_flight -= desc.cores;
  if (state == pilot::UnitState::kDone) {
    accounting_.on_completed(now, flight.tenant, desc.name,
                             desc.cores * desc.duration);
    completed_names_.push_back(desc.name);
  } else {
    accounting_.on_failed(now, flight.tenant, desc.name);
  }
  // A slot freed: see whether queued work fits now. This tick — driven
  // by the settled final state — is the gateway's only dispatch trigger
  // besides submit() itself.
  request_dispatch();
}

bool SubmissionGateway::quiescent() const {
  if (!in_flight_.empty()) return false;
  for (const auto& [id, tenant] : tenants_) {
    if (!tenant.pending.empty()) return false;
  }
  return true;
}

std::size_t SubmissionGateway::pending_count() const {
  std::size_t count = 0;
  for (const auto& [id, tenant] : tenants_) count += tenant.pending.size();
  return count;
}

}  // namespace hoh::tenant
