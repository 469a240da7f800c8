#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/kmeans_cost.h"
#include "cluster/machine.h"
#include "common/control_plane.h"
#include "pilot/descriptions.h"
#include "sim/failure_injector.h"
#include "tenant/tenant.h"

/// \file workloads.h
/// The three benchmark workloads and their seeded input generator. A
/// workload fixes the middleware stack; the seed fixes everything the
/// stack is fed: unit names and durations, tenant shares and the fault
/// schedule. The middleware receives only the generated inputs.

namespace pilotbench {

struct Workload {
  std::string name;
  hoh::cluster::MachineProfile machine;
  int nodes = 1;
  int wave_units = 1;
  int waves = 1;
  bool yarn = false;
  hoh::common::ControlPlane plane = hoh::common::ControlPlane::kPoll;
  bool socket = false;
  int store_shards = 1;
  bool trace_rollup = false;
  double spawn_latency = 1.2;
  hoh::common::MemoryMb unit_memory_mb = 2048;
  hoh::analytics::KmeansScenario scenario;

  bool failures = false;      // seeded crashes + pilot/unit recovery
  bool elastic = false;       // backlog policy up to max_nodes
  int max_nodes = 0;
  double grow_queued_per_idle = 2.0;  // backlog policy trigger
  int tenants = 0;            // > 0: fair-share gateway with preemption
  int dispatch_window = 0;
  double flood_share = 0.0;   // share of each wave the flooding tenant sends
  double join_delay = 0.0;    // simulated s before the other tenants submit
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);

/// One generated unit: the tenant it is submitted for (-1 without a
/// gateway) and its description.
struct Submission {
  int tenant = -1;
  hoh::pilot::ComputeUnitDescription cud;
};

struct Inputs {
  /// Per wave, in submission order. With tenants, the flooding tenant's
  /// units come first: wave_flood[w] of them.
  std::vector<std::vector<Submission>> waves;
  std::vector<std::size_t> wave_flood;
  std::vector<hoh::tenant::TenantSpec> tenants;
  hoh::sim::FailurePlan failure_plan;
  std::uint64_t unit_recovery_seed = 0;
  std::size_t total_units = 0;
};

Inputs generate_inputs(const Workload& workload, std::uint64_t seed);

/// FNV-1a over the sorted, newline-joined names (the construction of the
/// experiment driver's output checksum).
std::string digest_names(std::vector<std::string> names);

}  // namespace pilotbench
