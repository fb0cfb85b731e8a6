// Metric exporter: renders a Registry's current state as JSON (machine-
// readable artefacts like BENCH_headline.json and the golden-metrics
// regression snapshot).
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace netsession::obs {

/// JSON object keyed by metric name. Counters/gauges render as scalars;
/// histograms as {"count", "sum", "mean", "buckets": [[hi, n], ...]} with
/// empty buckets omitted. Deterministic: registration order, fixed float
/// formatting (%.17g round-trips doubles exactly).
[[nodiscard]] std::string to_json(const Registry& registry, int indent = 2);

}  // namespace netsession::obs
