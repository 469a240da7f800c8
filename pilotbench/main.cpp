// Closed-loop Pilot-API benchmark driver.
//
//   pilot_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--out-dir <dir>]
//
// Untraced (--trace 0): runs one untimed warm-up episode, then whole
// episodes, each followed by a few set-up-only episodes, until --seconds
// is used up, and prints the end-to-end metrics.
// Traced (--trace 1): alternates untraced and traced episodes, prints the
// per-layer metrics of the traced ones and the tracing overhead, and
// writes the first traced episode's spans to --out-dir.
// The last stdout line is the JSON result; the exit code is non-zero when
// any output check failed.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "episode.h"
#include "report.h"
#include "workloads.h"

#ifndef PILOTBENCH_BUILD_TYPE
#define PILOTBENCH_BUILD_TYPE ""
#endif

namespace pb = pilotbench;

namespace {

using Clock = std::chrono::steady_clock;

/// Set-up-only episodes after each whole one: setup_s is the median over
/// them, sampled across the run so that it sees the same host as the
/// whole episodes.
constexpr std::size_t kSetupOnlyPerEpisode = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Compiler, build type and CPU count, recorded next to every number.
struct Host {
  std::string compiler;
  std::string build_type = PILOTBENCH_BUILD_TYPE;
  long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  Host() {
#if defined(__clang__)
    compiler = "clang ";
#elif defined(__GNUC__)
    compiler = "gcc ";
#endif
    compiler += __VERSION__;
    for (char& c : compiler) {
      if (c == '"' || c == '\\') c = '\'';
    }
  }

  std::string line() const {
    return "# host: compiler=\"" + compiler + "\" build=" + build_type +
           " nproc=" + std::to_string(nproc);
  }
  std::string json() const {
    return "{\"compiler\": \"" + compiler + "\", \"build_type\": \"" +
           build_type + "\", \"nproc\": " + std::to_string(nproc) + "}";
  }
};

void print_episode(const char* kind, std::size_t i,
                   const pb::EpisodeResult& r) {
  std::printf(
      "# %s episode %zu: setup_s=%.4f run_s=%.4f units_per_s=%.1f "
      "units_per_ref_s=%.1f done=%zu/%zu events=%llu store_ops=%llu "
      "sim_ttc_s=%.6f%s%s\n",
      kind, i, r.setup_s, r.run_s, r.units_per_s, r.units_per_ref_s, r.done,
      r.submitted,
      static_cast<unsigned long long>(r.counters.engine_events),
      static_cast<unsigned long long>(r.counters.store_ops), r.sim.ttc_s,
      r.ok ? "" : " FAILED: ", r.error.c_str());
}

/// Every whole episode of one seed must reproduce the first one's
/// simulated results: the sim metrics and the deterministic counters.
bool replays(const pb::EpisodeResult& first, const pb::EpisodeResult& r) {
  return first.sim == r.sim &&
         first.counters.engine_events == r.counters.engine_events &&
         first.counters.store_mutations == r.counters.store_mutations &&
         first.counters.units_requeued == r.counters.units_requeued &&
         first.counters.preempted == r.counters.preempted;
}

constexpr const char* kNotReplayed = "episode is not a replay of the first one";

int fail(const std::string& why, std::size_t attempted) {
  std::printf("# check failed: %s\n", why.c_str());
  std::printf("%s\n",
              pb::result_json(false, attempted, attempted, {}).c_str());
  return 1;
}

int run_untraced(const Args& a, const pb::Workload& w, const pb::Inputs& in) {
  const auto start = Clock::now();
  // The first whole episode warms the heap and the caches (it ran up to
  // 30% slower than the rest); it is checked, and every later episode
  // must replay it, but it is not timed.
  const pb::EpisodeResult warm = pb::run_episode(w, in, nullptr, false);
  print_episode("warm-up", 0, warm);
  if (!warm.ok) return fail(warm.error, in.total_units);
  const auto measure_start = Clock::now();
  std::vector<pb::EpisodeResult> full;
  // Set-up seconds as measured, and scaled to the reference host speed by
  // a probe right after each sample, as the waves are for units_per_ref_s.
  std::vector<double> setups;
  std::vector<double> ref_setups;
  for (;;) {
    pb::EpisodeResult r = pb::run_episode(w, in, nullptr, false);
    print_episode("untraced", full.size(), r);
    if (!r.ok) return fail(r.error, in.total_units);
    if (!replays(warm, r)) return fail(kNotReplayed, in.total_units);
    full.push_back(r);
    for (std::size_t i = 0; i < kSetupOnlyPerEpisode; ++i) {
      pb::EpisodeResult setup = pb::run_episode(w, in, nullptr, true);
      if (!setup.ok) return fail(setup.error, in.total_units);
      setups.push_back(setup.setup_s);
      ref_setups.push_back(setup.setup_s * pb::kHostProbeNominalS /
                           pb::host_probe_s());
    }
    const double per_episode =
        seconds_since(measure_start) / static_cast<double>(full.size());
    if (seconds_since(start) + per_episode > a.seconds) break;
  }
  // units_per_ref_s pools the run's episodes: units Done over the sum of
  // their scaled wave seconds, so that each wave weighs by its length.
  std::vector<double> rates;
  std::vector<double> probes;
  double ref_run_s = 0.0;
  std::size_t timed_done = 0;
  std::size_t attempted = warm.submitted;
  std::size_t done = warm.done;
  for (const auto& r : full) {
    rates.push_back(r.units_per_s);
    probes.insert(probes.end(), r.host_probe_s.begin(), r.host_probe_s.end());
    ref_run_s += r.ref_run_s;
    timed_done += r.done;
    attempted += r.submitted;
    done += r.done;
  }
  const pb::SimMetrics& sim = warm.sim;
  std::printf("# host: units_per_s=%.1f (median over episodes) "
              "setup_s=%.6f probe_ms=%.3f (median over waves)\n",
              hoh::common::median(rates), hoh::common::median(setups),
              1e3 * hoh::common::median(probes));
  const std::vector<pb::Metric> metrics = {
      {"units_per_ref_s", static_cast<double>(timed_done) / ref_run_s,
       "units/ref_s"},
      {"setup_s", hoh::common::median(ref_setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"units_done_frac",
       static_cast<double>(done) / static_cast<double>(attempted), "ratio"},
      {"sim_ttc_s", sim.ttc_s, "sim_s"},
      {"sim_agent_startup_s", sim.agent_startup_s, "sim_s"},
      {"sim_unit_startup_mean_s", sim.unit_startup_mean_s, "sim_s"},
  };
  std::printf("# episodes=%zu setup_samples=%zu\n", full.size(),
              setups.size());
  std::printf("%s\n", pb::result_json(true, attempted, attempted - done,
                                      metrics)
                          .c_str());
  return 0;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  if (!out) throw std::runtime_error("write failed: " + path);
}

std::string series_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.4f", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

int run_traced(const Args& a, const pb::Workload& w, const pb::Inputs& in) {
  const auto start = Clock::now();
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  std::vector<std::vector<pb::Metric>> layers;
  std::size_t attempted = 0;
  std::size_t done = 0;
  pb::EpisodeResult first;
  for (std::size_t i = 0;; ++i) {
    pb::EpisodeResult plain = pb::run_episode(w, in, nullptr, false);
    print_episode("untraced", i, plain);
    if (!plain.ok) return fail(plain.error, in.total_units);

    pb::SpanRecorder recorder;
    pb::EpisodeResult traced = pb::run_episode(w, in, &recorder, false);
    print_episode("traced", i, traced);
    if (!traced.ok) return fail(traced.error, in.total_units);
    // Tracing must not perturb the simulation.
    if (i == 0) first = plain;
    if (!replays(first, plain) || !replays(first, traced)) {
      return fail(kNotReplayed, in.total_units);
    }
    try {
      layers.push_back(pb::layer_metrics(recorder, traced));
      if (i == 0) {
        const std::string stem = a.out_dir + "/" + w.name + "-seed" +
                                 std::to_string(a.seed);
        recorder.write_tsv(stem + ".spans.tsv");
        write_file(stem + ".layers.json",
                   "{\"host\": " + Host().json() + ",\n" +
                       " \"workload\": \"" + w.name + "\", \"seed\": " +
                       std::to_string(a.seed) + ",\n" +
                       " \"get_field_probe_us_by_wave\": " +
                       series_json(traced.get_field_probe_us) + ",\n" +
                       " \"cluster_metrics_probe_us_by_wave\": " +
                       series_json(traced.cluster_metrics_probe_us) + ",\n" +
                       " \"layers\": " + pb::metrics_json(layers.back()) +
                       "}");
      }
    } catch (const std::exception& e) {
      return fail(e.what(), in.total_units);
    }
    plain_rates.push_back(plain.units_per_s);
    traced_rates.push_back(traced.units_per_s);
    attempted += plain.submitted + traced.submitted;
    done += plain.done + traced.done;
    const double per_pair =
        seconds_since(start) / static_cast<double>(i + 1);
    if (seconds_since(start) + per_pair > a.seconds) break;
  }
  std::vector<pb::Metric> metrics = pb::median_metrics(layers);
  const double plain_rate = hoh::common::median(plain_rates);
  const double traced_rate = hoh::common::median(traced_rates);
  metrics.push_back({"host.units_per_s", plain_rate, "units/s"});
  metrics.push_back({"trace.units_per_s", traced_rate, "units/s"});
  metrics.push_back({"trace.overhead_frac", 1.0 - traced_rate / plain_rate,
                     "ratio"});
  std::printf("# traced pairs=%zu\n", layers.size());
  std::printf("%s\n", pb::result_json(true, attempted, attempted - done,
                                      metrics)
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot_bench: %s\n", e.what());
    return 2;
  }
  // Build guard: numbers from an unoptimised build are not reported.
  const std::string build_type = Host().build_type;
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "pilot_bench: refusing to run an unoptimised build\n");
  return 3;
#endif
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "pilot_bench: refusing to run a '%s' build\n",
                 build_type.c_str());
    return 3;
  }
  try {
    const pb::Workload workload = pb::make_workload(args.workload);
    const pb::Inputs inputs = pb::generate_inputs(workload, args.seed);
    std::printf("%s\n", Host().line().c_str());
    pb::host_probe_s();  // touches the probe's buffer before any timing
    std::printf("# workload=%s seed=%llu units/episode=%zu\n",
                workload.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                inputs.total_units);
    return args.trace ? run_traced(args, workload, inputs)
                      : run_untraced(args, workload, inputs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pilot_bench: %s\n", e.what());
    return 2;
  }
}
