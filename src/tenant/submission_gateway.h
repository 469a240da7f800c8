#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pilot/unit_manager.h"
#include "sim/engine.h"
#include "tenant/accounting.h"
#include "tenant/fair_share.h"
#include "tenant/tenant.h"

/// \file submission_gateway.h
/// The multi-tenant front door in front of the UnitManager. Admission
/// control (token-bucket rate limit rejects; capacity quotas queue),
/// cross-tenant dispatch ordering (FIFO or fair-share), an optional
/// priority-preemption path, and per-tenant usage accounting.
///
/// Invariants (DESIGN.md §11):
///  * Admission happens before any StateStore insert: a queued unit
///    lives only in the gateway until dispatch calls UnitManager::submit,
///    so rejected or still-queued work never touches the store, and a
///    plan without a tenants: section is byte-identical to the
///    gateway-less path (no gateway object is even constructed).
///  * Dispatch is event-driven: the UnitManager's lifecycle listener
///    reports in-flight units reaching a settled final state, and each
///    report schedules one deduplicated zero-delay dispatch tick — there
///    is no store watch of the gateway's own and no periodic loop.
///  * Preemption uses only the legal requeue edge from PR 4: the agent
///    parks the victim at kFailed (the one final state with an out-edge)
///    and redispatch crosses kFailed -> kPendingAgent.

namespace hoh::tenant {

/// Cross-tenant ordering of the gateway dispatch queue.
enum class SchedulingPolicy {
  kFifo,       // global arrival order, tenant-blind
  kFairShare,  // FairShareScheduler priority order
};

SchedulingPolicy scheduling_policy_from_string(const std::string& name);
const char* to_string(SchedulingPolicy policy);

struct GatewayConfig {
  SchedulingPolicy policy = SchedulingPolicy::kFairShare;

  /// Usage half-life handed to the FairShareScheduler.
  common::Seconds decay_half_life = 600.0;

  /// Max units in flight (dispatched, not yet final) across all tenants
  /// — the gateway's shared dispatch window. 0 = unlimited.
  int dispatch_window = 0;

  /// Fair-share only: preempt a running unit of the lowest-priority
  /// tenant when a tenant whose effective priority is at least
  /// preempt_ratio times higher is blocked on a full window.
  bool preemption = false;
  double preempt_ratio = 4.0;

  /// Keep the accounting journal (durable serialization).
  bool accounting_journal = true;
};

/// Outcome of SubmissionGateway::submit.
struct Admission {
  bool accepted = false;  // false = rejected at admission
  bool queued = false;    // accepted but held gateway-side for now
  std::string reason;     // rejection reason ("rate-limit")
};

class SubmissionGateway {
 public:
  /// The gateway fronts \p um, which must outlive it. Takes the
  /// manager's lifecycle listener slot (cleared in the destructor).
  explicit SubmissionGateway(pilot::UnitManager& um,
                             GatewayConfig config = {});
  ~SubmissionGateway();

  SubmissionGateway(const SubmissionGateway&) = delete;
  SubmissionGateway& operator=(const SubmissionGateway&) = delete;

  void add_tenant(TenantSpec spec);
  bool has_tenant(const std::string& id) const {
    return tenants_.count(id) > 0;
  }

  /// Admission control + (possibly deferred) dispatch. Throws
  /// NotFoundError for an unregistered tenant.
  Admission submit(const std::string& tenant_id,
                   pilot::ComputeUnitDescription desc);

  /// True when the gateway holds no pending and no in-flight units —
  /// the experiment barrier is `um.all_done() && gateway.quiescent()`.
  bool quiescent() const;

  std::size_t pending_count() const;
  std::size_t in_flight_count() const { return in_flight_.size(); }
  bool in_flight(const std::string& unit_id) const {
    return in_flight_.count(unit_id) > 0;
  }
  std::size_t peak_in_flight() const { return peak_in_flight_; }
  std::size_t units_preempted() const { return units_preempted_; }

  AccountingStore& accounting() { return accounting_; }
  const AccountingStore& accounting() const { return accounting_; }
  FairShareScheduler& scheduler() { return scheduler_; }

  /// Names of units the gateway observed reaching kDone (digest input).
  const std::vector<std::string>& completed_unit_names() const {
    return completed_names_;
  }

  const GatewayConfig& config() const { return config_; }

 private:
  /// A unit admitted but not (currently) in flight. `unit_id` is empty
  /// until first dispatch; a preempted unit parks here with its id so
  /// redispatch reuses the existing store document.
  struct PendingUnit {
    std::uint64_t seq = 0;  // global arrival order (FIFO key)
    pilot::ComputeUnitDescription desc;
    common::Seconds submit_time = 0.0;
    std::string unit_id;
    bool wait_recorded = false;
  };

  struct FlightRec {
    std::string tenant;
    std::uint64_t seq = 0;
    common::Seconds submit_time = 0.0;
    common::Seconds dispatch_time = 0.0;
    double charged = 0.0;  // fair-share usage charged at dispatch
    bool wait_recorded = false;
    std::shared_ptr<pilot::ComputeUnit> handle;  // id, pilot, description
  };

  struct TenantRec {
    TenantSpec spec;
    TokenBucket bucket;
    std::deque<PendingUnit> pending;
    int in_flight = 0;
    int cores_in_flight = 0;
  };

  /// Schedules one deduplicated zero-delay dispatch tick.
  void request_dispatch();
  void dispatch_pass();
  bool quota_allows(const TenantRec& tenant, int head_cores) const;
  void dispatch_head(TenantRec& tenant);
  /// The UnitManager listener: kExecuting or a settled final state.
  void on_unit_progress(const std::string& unit_id, pilot::UnitState state);
  /// One preemption attempt on behalf of blocked tenant \p claimant.
  bool try_preempt_for(const std::string& claimant, common::Seconds now);

  pilot::UnitManager& um_;
  sim::Engine& engine_;
  GatewayConfig config_;
  FairShareScheduler scheduler_;
  AccountingStore accounting_;
  std::map<std::string, TenantRec> tenants_;
  std::map<std::string, FlightRec> in_flight_;  // unit id -> record
  std::vector<std::string> completed_names_;
  sim::EventHandle tick_event_;
  bool tick_pending_ = false;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_in_flight_ = 0;
  std::size_t units_preempted_ = 0;
};

}  // namespace hoh::tenant
