#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace pilotbench {

namespace ha = hoh::analytics;

namespace {

/// splitmix64: a portable generator, so a seed yields the same inputs
/// with every standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

std::string fmt(const char* pattern, int a, int b) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), pattern, a, b);
  return buf;
}

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wave-scale") {
    // Per-unit middleware cost at scale: 8 waves of 5000 one-core units
    // on 1000 nodes, watch plane, sharded store, rolled-up trace.
    w.machine = hoh::cluster::generic_profile();
    w.nodes = 1000;
    w.wave_units = 5000;
    w.waves = 8;
    w.plane = hoh::common::ControlPlane::kWatch;
    w.store_shards = 16;
    w.trace_rollup = true;
    w.spawn_latency = 0.001;
    w.scenario = {"1m pts / 100 clusters", 1000000, 100, 3, 4};
    return w;
  }
  if (name == "yarn-poll") {
    // The paper's stack: Mode-I YARN on Stampede, poll plane with the
    // paper's cadences, seeded node crashes with recovery, and backlog
    // elasticity with room to grow.
    w.machine = hoh::cluster::stampede_profile();
    w.nodes = 48;
    w.wave_units = 1000;
    w.waves = 20;
    w.yarn = true;
    w.unit_memory_mb = 1024;
    w.scenario = {"100k pts / 500 clusters", 100000, 500, 3, 10};
    w.failures = true;
    w.elastic = true;
    w.max_nodes = 64;
    // YARN waves are memory-bound: a queue a quarter the size of the idle
    // cores already means the vcores will not be used.
    w.grow_queued_per_idle = 0.25;
    return w;
  }
  if (name == "tenants-socket") {
    // Loopback-TCP transport and gateway writes: 8 tenants behind a
    // fair-share window with preemption; one tenant floods each wave
    // first and the others join later.
    w.machine = hoh::cluster::stampede_profile();
    w.nodes = 16;
    w.wave_units = 1000;
    w.waves = 8;
    w.plane = hoh::common::ControlPlane::kWatch;
    w.socket = true;
    w.scenario = {"100k pts / 500 clusters", 100000, 500, 3, 4};
    w.tenants = 8;
    w.dispatch_window = 256;
    w.flood_share = 0.5;
    w.join_delay = 120.0;
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

Inputs generate_inputs(const Workload& w, std::uint64_t seed) {
  SplitMix rng(seed ^ 0x5eedbe4c11ab5ull);
  Inputs in;

  ha::KmeansRunConfig run;
  run.machine = &w.machine;
  run.nodes = w.nodes;
  run.tasks = w.wave_units;
  run.yarn_stack = w.yarn;
  const ha::KmeansPhaseDurations durations =
      ha::kmeans_phase_durations(w.scenario, run);

  if (w.tenants > 0) {
    // Tenant 0 floods; the others get seeded fair-share weights 1..4.
    for (int t = 0; t < w.tenants; ++t) {
      hoh::tenant::TenantSpec spec;
      spec.id = "t" + std::to_string(t);
      spec.share_weight =
          t == 0 ? 1.0 : 1.0 + static_cast<double>(rng.next() % 4);
      in.tenants.push_back(spec);
    }
  }

  for (int wave = 0; wave < w.waves; ++wave) {
    const bool map_phase = wave % 2 == 0;
    const double base = map_phase ? durations.map_task_seconds
                                  : durations.reduce_task_seconds;
    std::vector<Submission> subs;
    subs.reserve(static_cast<std::size_t>(w.wave_units));
    const int flood =
        w.tenants > 0 ? static_cast<int>(w.flood_share * w.wave_units) : 0;
    for (int u = 0; u < w.wave_units; ++u) {
      Submission s;
      if (w.tenants > 0) {
        s.tenant = u < flood ? 0 : 1 + (u - flood) % (w.tenants - 1);
      }
      s.cud.name = fmt("w%d-u%d", wave, u);
      s.cud.executable = "python";
      s.cud.arguments = {"kmeans.py", "--phase", map_phase ? "map" : "reduce"};
      s.cud.cores = 1;
      s.cud.memory_mb = w.unit_memory_mb;
      // Seeded per-unit factor so the waves stop finishing in lock-step.
      s.cud.duration = base * (0.75 + 0.5 * rng.unit());
      subs.push_back(std::move(s));
    }
    in.total_units += subs.size();
    in.waves.push_back(std::move(subs));
    in.wave_flood.push_back(static_cast<std::size_t>(flood));
  }

  if (w.failures) {
    // The fault schedule is part of the workload, not of the seed: where
    // a crash lands decides how many YARN applications the RM has to scan
    // afterwards, so a seeded schedule would swing host time by 3x from
    // seed to seed.
    in.failure_plan.seed = 7;
    in.failure_plan.mean_time_to_crash = 1500.0;
    in.failure_plan.mean_time_to_repair = 300.0;
    in.failure_plan.max_crashes = 3;
    in.failure_plan.start_after = 300.0;
    in.unit_recovery_seed = 8;
  }
  return in;
}

std::string digest_names(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& name : names) {
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= static_cast<unsigned char>('\n');
    h *= 1099511628211ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace pilotbench
