#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "span_trace.h"
#include "workloads.h"

/// \file episode.h
/// One closed-loop episode: a fresh Session with its PilotManager and
/// UnitManager (plus gateway, failure injector and elastic controller
/// where the workload has them), composed the way the K-Means experiment
/// driver composes them. One driver thread submits a wave and submits
/// the next only after the previous barrier cleared.

namespace pilotbench {

/// Deterministic counters the program exposes (identical on every run of
/// one seed).
struct Counters {
  std::uint64_t engine_events = 0;
  std::uint64_t store_ops = 0;  // probe reads excluded
  std::uint64_t store_mutations = 0;
  std::uint64_t net_calls = 0;
  std::uint64_t net_sends = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t net_reconnects = 0;
  std::uint64_t all_done_calls = 0;
  std::uint64_t quiescent_polls = 0;
  std::uint64_t units_requeued = 0;
  std::uint64_t units_abandoned = 0;
  std::uint64_t pilots_resubmitted = 0;
  std::uint64_t preempted = 0;
  std::uint64_t peak_in_flight = 0;
  std::uint64_t elastic_resizes = 0;
  std::uint64_t crashes = 0;
};

/// Simulated-time results (the paper's Fig. 5 / Fig. 6 quantities).
struct SimMetrics {
  double ttc_s = 0.0;
  double agent_startup_s = 0.0;
  double unit_startup_mean_s = 0.0;

  bool operator==(const SimMetrics&) const = default;
};

struct EpisodeResult {
  double setup_s = 0.0;       // host: session construction .. first wave in
  double run_s = 0.0;         // host: the waves, first submission .. last barrier
  double units_per_s = 0.0;
  /// Untraced episodes only: run_s with each wave's seconds scaled by
  /// kHostProbeNominalS / host_probe_s() measured right after the wave.
  double ref_run_s = 0.0;
  double units_per_ref_s = 0.0;
  std::vector<double> host_probe_s;  // one per wave, untraced only
  std::size_t submitted = 0;
  std::size_t done = 0;
  bool ok = false;            // every output check passed
  std::string error;          // first failed check
  SimMetrics sim;
  Counters counters;

  /// Traced run only: per-barrier probe times in microseconds.
  std::vector<double> get_field_probe_us;
  std::vector<double> cluster_metrics_probe_us;
};

/// Host-speed probe: the same fixed run of inserts and lookups of
/// pseudo-random keys in an open-addressing hash table of 2^17 slots
/// (1 MiB, inside a core's L2) on every call. On a shared host, other
/// tenants' load slows the simulator by up to 1.6x for minutes at a time;
/// this branchy, cache-resident work slows in proportion (slope 0.9-1.1
/// of log episode time on log probe time on all three workloads).
double host_probe_s();

/// The probe's time on a 4-vCPU Xeon VM at a quiet moment: the host speed
/// that units_per_ref_s is scaled to.
inline constexpr double kHostProbeNominalS = 0.0025;

/// Runs one episode. \p recorder (nullable) receives the spans of the
/// traced run. \p setup_only stops right after the first wave was
/// submitted (a set-up time sample).
EpisodeResult run_episode(const Workload& workload, const Inputs& inputs,
                          SpanRecorder* recorder, bool setup_only);

}  // namespace pilotbench
