// Runtime observability: named counters, computed gauges, and log-bucketed
// histograms behind a registry that the periodic sampler (obs/sampler.hpp)
// snapshots into the trace and obs::to_json renders as JSON.
//
// Design goals, in order:
//
//  1. *Domain metrics only.* The registry a Simulation samples holds what the
//     deployment does (logins, queries, edge bytes, downloads, faults), never
//     how the simulator does it: engine, flow-solver and memory counters move
//     with every change to the implementation, so they stay out of the trace
//     and are read from Simulation::perf_stats() and the pool accessors.
//
//  2. *Cheap.* An increment is a single add on a plain member — no atomics
//     (simulations are single-threaded by design, like the simulator itself),
//     no name lookups, no indirection. Subsystems own their metric structs as
//     ordinary members and register *pointers* with the registry once at
//     wiring time; naming cost is paid at registration and sampling, never
//     per increment.
//
//  3. *Deterministic.* Metrics are pure functions of the simulation: no
//     wall-clock, no addresses, no iteration over unordered containers.
//     Sampling them into the trace preserves the byte-identity contract
//     (same seed => same file, docs/SIMULATOR.md §3).
//
// Metric naming scheme (docs/OBSERVABILITY.md): dot-separated
// `<subsystem>.<noun>[_<unit>]`, e.g. `control.logins`, `edge.bytes_served`,
// `client.edge_stalls`, `fault.active`. Histograms expand into `<name>.count`
// and `<name>.sum` series when sampled.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash.hpp"

namespace netsession::obs {

/// Monotonically increasing event count. Wraps modulo 2^64 on overflow
/// (well-defined unsigned arithmetic; see tests/obs/test_metrics.cpp).
struct Counter {
    std::uint64_t value = 0;
    void inc(std::uint64_t n = 1) noexcept { value += n; }
    [[nodiscard]] std::uint64_t get() const noexcept { return value; }
};

/// Log2-bucketed histogram of non-negative values. Bucket b holds values in
/// (2^(b-1), 2^b]; values <= 1 land in bucket 0; values beyond the last
/// boundary clamp into the last bucket. 64 buckets cover every uint64 byte
/// count and every sane duration in microseconds.
struct Histogram {
    static constexpr int kBuckets = 64;

    std::array<std::uint64_t, kBuckets> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;

    /// Bucket index for a value (clamped; negatives count as 0).
    [[nodiscard]] static int bucket_of(double v) noexcept {
        if (!(v > 1.0)) return 0;  // <=1, zero, negative, NaN
        const int b = static_cast<int>(std::ceil(std::log2(v)));
        return b >= kBuckets ? kBuckets - 1 : b;
    }
    /// Inclusive upper boundary of bucket b (2^b).
    [[nodiscard]] static double bucket_hi(int b) noexcept { return std::ldexp(1.0, b); }
    /// Exclusive lower boundary of bucket b (2^(b-1); bucket 0 starts at 0).
    [[nodiscard]] static double bucket_lo(int b) noexcept {
        return b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
    }

    void record(double v) noexcept {
        ++buckets[static_cast<std::size_t>(bucket_of(v))];
        ++count;
        sum += v;
    }
    [[nodiscard]] double mean() const noexcept {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/// What a registry entry measures. Gauges are always computed on demand.
enum class Kind : std::uint8_t { counter, gauge, histogram };

/// The registry: a flat, registration-ordered list of named metrics. One per
/// Simulation; subsystems register their metric structs at wiring time and
/// the sampler/exporters walk the list. Registration order is part of the
/// determinism contract (it fixes metric ids in the trace), so register
/// everything before the run starts and in a stable order.
class Registry {
public:
    struct Entry {
        std::string name;
        Kind kind = Kind::counter;
        const Counter* counter = nullptr;
        const Histogram* histogram = nullptr;
        std::function<double()> computed;  // gauges (queue depths, ...)
    };

    /// Registration. Names must be unique; duplicates are ignored (first
    /// registration wins) so re-wiring in tests is harmless.
    void add_counter(std::string name, const Counter* c);
    /// A gauge computed on demand (e.g. a queue depth derived from container
    /// sizes). The callback must be cheap and deterministic.
    void add_computed(std::string name, std::function<double()> fn);
    void add_histogram(std::string name, const Histogram* h);

    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

    /// Current scalar value of an entry: counter value, gauge value, or —
    /// for histograms — the observation count (the sampler additionally
    /// emits the sum as its own series).
    [[nodiscard]] static double scalar_value(const Entry& e);

    /// Looks an entry up by name; nullptr if absent. O(1) via a side index;
    /// iteration stays registration-ordered through entries().
    [[nodiscard]] const Entry* find(std::string_view name) const;

private:
    /// Transparent hasher so find(string_view) never materialises a string.
    struct NameHash {
        using is_transparent = void;
        [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::vector<Entry> entries_;
    /// name -> index into entries_. The index only serves lookups; iteration
    /// order (and thus metric ids in the trace) comes from entries_ alone.
    FlatHashMap<std::string, std::uint32_t, NameHash> index_;
};

}  // namespace netsession::obs
