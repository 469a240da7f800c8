#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/control_plane.h"
#include "common/retry.h"
#include "pilot/descriptions.h"
#include "pilot/estimator.h"
#include "pilot/pilot_manager.h"
#include "pilot/session.h"
#include "pilot/states.h"

/// \file unit_manager.h
/// The Unit-Manager: accepts Compute-Unit descriptions, binds them to
/// pilots (U.1), and queues them in the shared state store for the
/// agents to pull (U.2). Handle state queries read the unit documents
/// the agents write back; the barrier reads a per-unit record kept
/// current by one store watch (DESIGN.md §13).

namespace hoh::pilot {

class UnitManager;

/// Handle to one submitted Compute-Unit.
class ComputeUnit {
 public:
  const std::string& id() const { return id_; }
  const ComputeUnitDescription& description() const { return description_; }

  /// Current state, read from the shared store document.
  UnitState state() const;

  /// Pilot this unit was bound to.
  const std::string& pilot_id() const { return pilot_id_; }

 private:
  friend class UnitManager;
  ComputeUnit(UnitManager* manager, std::string id, std::string pilot_id,
              ComputeUnitDescription description)
      : manager_(manager),
        id_(std::move(id)),
        pilot_id_(std::move(pilot_id)),
        description_(std::move(description)) {}

  UnitManager* manager_;
  std::string id_;
  std::string pilot_id_;
  ComputeUnitDescription description_;
};

/// Unit scheduling policy across pilots.
enum class UnitSchedulingPolicy {
  kRoundRobin,   // cycle through pilots
  kLeastLoaded,  // pilot with fewest units bound so far
  kPredictive,   // pilot with least predicted outstanding work per core
                 // (paper SS-V "predictive scheduling" extension)
};

class UnitManager {
 public:
  /// \p estimator is used by kPredictive (a MovingAverageEstimator is
  /// created when none is supplied). Registers the manager's "unit"
  /// store watch, which keeps the per-unit records current on both
  /// control planes.
  explicit UnitManager(Session& session,
                       UnitSchedulingPolicy policy =
                           UnitSchedulingPolicy::kRoundRobin,
                       std::shared_ptr<RuntimeEstimator> estimator = nullptr);

  UnitManager(const UnitManager&) = delete;
  UnitManager& operator=(const UnitManager&) = delete;

  /// Cancels the dependency sweep and unwatches the unit watch. The
  /// engine and store outlive the manager, so leaving either armed would
  /// dangle `this`.
  ~UnitManager();

  /// Control-plane mode for dependency resolution (set before the first
  /// submit). kPoll: held units are re-checked by a 1 s periodic sweep.
  /// kWatch: the unit watch re-checks exactly when some unit's state
  /// changed — dependency release happens at event time and costs
  /// nothing while nothing changes.
  void set_control_plane(common::ControlPlane plane) {
    control_plane_ = plane;
  }

  /// Registers a pilot as a unit target. A pilot added later (e.g. a
  /// resubmitted replacement) immediately absorbs the units parked while
  /// no pilot was live.
  void add_pilot(std::shared_ptr<Pilot> pilot);

  /// Enables requeue-on-pilot-failure: units that die with their pilot
  /// (state kFailed) are re-dispatched onto a surviving pilot after the
  /// policy backoff, up to policy.max_attempts total executions each.
  /// Units whose budget is exhausted stay kFailed. Call before or after
  /// add_pilot — existing pilots are wired up too.
  void enable_recovery(common::RetryPolicy policy, std::uint64_t seed = 42);

  /// Units re-dispatched after pilot failure (recovery counter).
  std::size_t units_requeued() const { return units_requeued_; }
  /// Units that exhausted their retry budget and stayed kFailed.
  std::size_t units_abandoned() const { return units_abandoned_; }

  /// Recovery triage of one unit (false for unknown ids): in_limbo —
  /// a requeue is scheduled or waits for a live pilot; abandoned — the
  /// retry budget is gone and the unit stays kFailed.
  bool in_limbo(const std::string& unit_id) const;
  bool abandoned(const std::string& unit_id) const;

  /// Submits units (U.1/U.2). Returns handles in input order. Units with
  /// depends_on are held client-side until every dependency is Done
  /// (released by the dependency check, see set_control_plane), and
  /// canceled if a dependency fails or is canceled. Dependencies may
  /// reference units submitted earlier or in the same batch. A unit is
  /// bound when queued (a held one on release), never to a dead pilot:
  /// with none live it parks (state kNew) until add_pilot brings one.
  std::vector<std::shared_ptr<ComputeUnit>> submit(
      const std::vector<ComputeUnitDescription>& descriptions);

  /// Single-unit convenience.
  std::shared_ptr<ComputeUnit> submit(
      const ComputeUnitDescription& description);

  /// True when every submitted unit reached a *settled* final state.
  /// With recovery enabled, a kFailed unit whose requeue is still
  /// scheduled or waiting for a live pilot, or that died with its pilot
  /// and is not triaged yet, counts as in flight, so barrier loops don't
  /// conclude a phase mid-recovery. O(1) while any unit is unfinished;
  /// otherwise O(kFailed units). Reflects every delivered watch event —
  /// between engine run_until()/run() calls, every store write.
  bool all_done() const;

  std::size_t submitted() const { return records_.size(); }
  /// Units whose record is kDone.
  std::size_t done_count() const { return done_count_; }

  RuntimeEstimator& estimator() { return *estimator_; }
  std::shared_ptr<RuntimeEstimator> estimator_ptr() { return estimator_; }

  Session& session() { return session_; }

  /// Message boundary (DESIGN.md §14): the endpoint clients (the tenant
  /// gateway) submit SubmitRequest messages to. Unique per manager, so
  /// several managers can share one session transport.
  const std::string& submit_endpoint() const { return submit_endpoint_; }

  /// Handle of a submitted unit; nullptr when unknown.
  std::shared_ptr<ComputeUnit> find_unit(const std::string& unit_id) const;

  /// Registered pilot by id; nullptr when unknown.
  std::shared_ptr<Pilot> pilot_by_id(const std::string& pilot_id) const;

  /// The one bind-or-park path. An unbound unit (parked at submit) is
  /// bound by the scheduling policy and queued (U.1/U.2). A kFailed one
  /// crosses kFailed -> kPendingAgent, the one legal out-edge of a final
  /// state, onto the first live pilot: a recovery requeue when in limbo,
  /// otherwise a gateway redispatch of a preempted unit (no retry budget,
  /// no backoff). With no live pilot the unit parks until add_pilot
  /// brings one; any other unit is left alone.
  void bind_or_park(const std::string& unit_id);

  /// Gateway preemption: asks the unit's agent to preempt it (parking it
  /// at kFailed) and, when it did, marks the record preempted. Such a
  /// unit is revived only by its holder's bind_or_park — recovery leaves
  /// it alone even when its pilot dies — so it is never revived twice.
  /// Returns false when the agent refused (mid-staging) or is gone.
  bool preempt(const std::string& unit_id);

  /// The lifecycle listener (one slot, the tenant gateway's): told when
  /// a unit reaches kExecuting or a *settled* final state — the
  /// all_done() rule, so a recoverable kFailed is not reported and an
  /// abandonment is. Called at the end of the unit watch callback.
  using UnitListener =
      std::function<void(const std::string& unit_id, UnitState state)>;
  void set_unit_listener(UnitListener listener) {
    listener_ = std::move(listener);
  }

 private:
  friend class ComputeUnit;

  /// One submitted unit as the manager knows it (DESIGN.md §13). The
  /// state is the one carried by the last delivered "unit" watch event
  /// (or the manager's own revival write), so the barrier never reads
  /// the store.
  struct UnitRecord {
    std::shared_ptr<ComputeUnit> unit;  // id, pilot binding, description
    UnitState state = UnitState::kNew;
    common::Seconds executing_at = -1.0;  // current attempt; -1 = none
    double predicted = 0.0;  // estimator prediction at submit
    bool in_backlog = true;  // `predicted` counts in its pilot's backlog
    bool limbo = false;      // kFailed, requeue scheduled or parked
    int requeues = 0;        // -1 once the retry budget is gone
    int revivals = 0;  // own revival writes whose event is still in flight
    bool preempted = false;  // parked by preempt(); its holder revives it
  };

  /// A live pilot by the scheduling policy; nullptr when none is live.
  Pilot* pick_pilot(const ComputeUnitDescription& desc);
  /// Registers submit_endpoint_ ("um<N>.submit") on the session
  /// transport; its handler unpacks the description and runs submit().
  void register_submit_endpoint();
  void dispatch_to_agent(const std::string& unit_id,
                         const std::string& pilot_id,
                         const ComputeUnitDescription& desc);
  void check_dependencies();

  // --- the per-unit records ---
  UnitRecord* find_record(const std::string& unit_id);
  const UnitRecord* find_record(const std::string& unit_id) const;
  /// The unit watch: applies the event's state to its record and, on
  /// the watch plane, re-checks held dependencies.
  void on_unit_event(const WatchEvent& event);
  /// Moves a record to \p next and keeps the counters, the backlog and
  /// the estimator in step: a final state folds the unit out of its
  /// pilot's backlog (Executing -> Done also feeds the estimator), a
  /// revival folds it back in. Returns false when the state is unchanged.
  bool observe(UnitRecord& rec, UnitState next);
  /// The barrier rule for a kFailed record (see all_done()).
  bool failed_settled(const UnitRecord& rec) const;
  /// Moves the unit's pilot binding (bound count, predicted backlog).
  void rebind(UnitRecord& rec, const std::string& to);

  // --- fault recovery (requeue units off a dead pilot) ---
  void watch_pilot_for_recovery(const std::shared_ptr<Pilot>& pilot);
  void handle_pilot_failure(const std::string& pilot_id);
  void drain_parked();
  /// Any registered pilot not in a final state; nullptr when none.
  Pilot* find_live_pilot();

  Session& session_;
  UnitSchedulingPolicy policy_;
  std::string submit_endpoint_;
  std::shared_ptr<RuntimeEstimator> estimator_;
  std::map<std::string, double> backlog_seconds_;    // pilot -> predicted

  std::vector<UnitRecord> records_;  // submission order
  std::unordered_map<std::string, std::size_t> record_index_;  // id -> slot
  std::size_t final_count_ = 0;  // records in a final state
  std::size_t done_count_ = 0;   // records in kDone
  std::set<std::size_t> failed_;  // slots of records in kFailed
  WatchHandle unit_watch_;
  UnitListener listener_;

  std::vector<std::string> held_;  // ids of units held by dependencies
  sim::EventHandle dependency_check_;  // poll plane only
  common::ControlPlane control_plane_ = common::ControlPlane::kPoll;
  std::vector<std::shared_ptr<Pilot>> pilots_;
  std::map<std::string, std::size_t> bound_counts_;  // pilot -> units
  std::size_t rr_next_ = 0;

  // Fault recovery: opt-in unit requeue off failed pilots.
  bool recovery_enabled_ = false;
  common::RetryPolicy recovery_policy_;
  common::Rng recovery_rng_{42};
  std::vector<std::string> parked_;  // ids waiting for a live pilot
  std::size_t units_requeued_ = 0;
  std::size_t units_abandoned_ = 0;
};

}  // namespace hoh::pilot
