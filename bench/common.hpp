// Shared scaffolding for the table/figure benches.
//
// Every bench reproduces one table or figure of the paper from the *standard
// scenario*: a synthetic month of NetSession operation. The scenario is
// expensive, so the first bench that needs it runs it and caches the
// resulting data set on disk; the rest load the cache. Scale is controlled
// by environment variables so `for b in build/bench/*; do $b; done` works at
// a sane default while bigger runs remain one export away:
//
//   NS_BENCH_PEERS   peer population          (default 40000)
//   NS_BENCH_DAYS    measurement window days  (default 20)
//   NS_BENCH_WARMUP  warm-up days             (default 10)
//   NS_BENCH_SEED    master seed              (default 42)
//   NS_BENCH_CACHE   cache directory          (default ./bench_cache)
#pragma once

#include <string>

#include "analysis/measurement.hpp"
#include "core/simulation.hpp"
#include "net/as_graph.hpp"
#include "trace/serialize.hpp"

namespace netsession::bench {

struct BenchArgs {
    int peers = 40000;
    double days = 20.0;
    double warmup = 10.0;
    std::uint64_t seed = 42;
    std::string cache_dir = "bench_cache";
};

/// Reads the NS_BENCH_* environment overrides.
[[nodiscard]] BenchArgs bench_args();

/// The standard scenario configuration for the given args.
[[nodiscard]] SimulationConfig standard_config(const BenchArgs& args);

/// Loads the cached standard data set, or runs the scenario and caches it.
/// Prints progress to stdout. A fresh run (cache miss) also writes
/// `<cache_dir>/BENCH_headline.json` — wall-clock seconds, the engine's
/// perf counters (events dispatched/sec, callback heap allocations, flow
/// refills and sort-cache hits), the `"analysis"` section (full measurement
/// pipeline at NS_THREADS vs one thread with a fingerprint-equality check,
/// and the cache-load time; docs/PARALLELISM.md) and the full
/// per-subsystem metric registry (`"metrics"` key, obs::to_json) — so
/// scenario throughput and subsystem behaviour are tracked as one
/// machine-readable artefact.
[[nodiscard]] trace::Dataset standard_dataset(const BenchArgs& args);

/// The AS graph of the standard scenario (regenerated deterministically from
/// the seed; needed by the Fig 11 direct-connection analysis).
[[nodiscard]] net::AsGraph standard_as_graph(const BenchArgs& args);

/// Prints the bench banner: name, paper reference, scenario parameters.
void print_banner(const std::string& name, const std::string& paper_ref, const BenchArgs& args);

}  // namespace netsession::bench
