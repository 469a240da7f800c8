#pragma once

#include <string>
#include <vector>

#include "episode.h"
#include "span_trace.h"

/// \file report.h
/// Turns episodes into named metrics: the end-to-end set of the untraced
/// run and the per-layer set of the traced run, plus the JSON they are
/// printed as.

namespace pilotbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics of one traced episode. Throws std::runtime_error
/// when the spans are unbalanced or their self times do not add up to
/// the root span's duration.
std::vector<Metric> layer_metrics(const SpanRecorder& recorder,
                                  const EpisodeResult& episode);

/// Element-wise median over episodes that produced the same metric list.
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& runs);

/// {"name": {"value": v, "unit": "u"}, ...}; every digit of v is kept.
std::string metrics_json(const std::vector<Metric>& metrics);

/// The benchmark's result line.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace pilotbench
