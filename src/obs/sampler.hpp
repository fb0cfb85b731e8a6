// The periodic metrics sampler: snapshots a Registry into the trace as
// MetricPointRecords (trace format v6) on a fixed simulated-time cadence.
//
// The sampler is deliberately passive with respect to the simulation: its
// tick reads registered metrics and appends trace records, touching no RNG
// stream and no simulation state, so the sampling cadence cannot perturb
// the control-plane/download sections of the trace (the byte-
// identity contract of docs/SIMULATOR.md §3 extends to the metrics section:
// same seed + same cadence => byte-identical files).
#pragma once

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_log.hpp"

namespace netsession::obs {

struct SamplerConfig {
    /// Snapshot cadence in simulated time. One hour keeps a month-long
    /// standard scenario at ~720 points per series — detailed enough for
    /// `nstrace metrics`, negligible against millions of log records.
    sim::Duration interval = sim::hours(1.0);
};

class Sampler {
public:
    /// `sim`, `registry`, and `log` must outlive the sampler.
    Sampler(sim::Simulator& sim, const Registry& registry, trace::TraceLog& log,
            SamplerConfig config);

    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    /// Starts periodic sampling: one snapshot every `interval`, beginning
    /// one interval from now, until (and including a final snapshot at)
    /// `until`. Call once, after every metric is registered — series ids are
    /// interned in registry order on the first tick.
    void start(sim::SimTime until);

    /// Takes one snapshot immediately (also used for the final sample).
    void sample_now();

    /// Takes the closing snapshot, exactly once — idempotent, so a cadence
    /// that happens to land a tick on the window end does not duplicate it.
    /// Simulation::run() calls this after the driver finishes so every run
    /// ends with the final registry state in the trace even when the
    /// interval does not divide the window.
    void finish();

    [[nodiscard]] std::uint64_t samples_taken() const noexcept { return samples_taken_; }

private:
    void tick();
    void intern_ids();

    sim::Simulator* sim_;
    const Registry* registry_;
    trace::TraceLog* log_;
    SamplerConfig config_;
    sim::SimTime until_{};
    bool ids_interned_ = false;
    bool final_taken_ = false;
    std::uint64_t samples_taken_ = 0;
    /// Per-entry interned series ids; histograms use [count_id, sum_id].
    struct SeriesIds {
        std::uint32_t primary = 0;
        std::uint32_t sum = 0;
    };
    std::vector<SeriesIds> ids_;
};

}  // namespace netsession::obs
