// Flow-level bandwidth sharing.
//
// Transfers are modelled as fluid flows between hosts. Each host has an
// uplink and a downlink capacity; the network assigns each flow a rate and
// recomputes affected rates when flows start, finish, or capacities change.
//
// Allocation model: per-host *water-filling*. For each host side, capacity is
// divided max-min-fairly among its flows, where each flow is bounded by its
// own cap and by the naive fair share it can get at its other endpoint. A
// flow's rate is the minimum of the allocations of its two endpoints (and its
// cap). Rate changes propagate to neighbouring hosts until they attenuate
// below a relative epsilon. This is the standard flow-level approximation of
// global max-min fairness: exact on single-bottleneck topologies (see tests)
// and within a few percent elsewhere, at per-event cost proportional to the
// degree of the affected hosts rather than to the number of flows in the
// system.
//
// Hot-path structure (see docs/SIMULATOR.md): flows live in a slot+generation
// slab; host adjacency lists support O(1) removal through per-flow stored
// positions and tombstones (compacted amortised, preserving live-entry
// order — the epsilon-gated relaxation is order-sensitive, so removal must
// not permute survivors); each host side caches its last water-fill order so
// refills whose flow set is unchanged can skip the sort when the cached
// order is still valid.
//
// Edge servers are modelled with unlimited uplinks plus a per-connection cap,
// which matches reality (Akamai's serving capacity is not the bottleneck of a
// client download) and keeps their degree from coupling thousands of flows.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace netsession::net {

/// Capacity value meaning "not a constraint".
inline constexpr Rate kUnlimited = std::numeric_limits<double>::infinity();

/// Identifies a flow; stale ids (after completion/cancel) are safely ignored.
/// Packed 32-bit: pool slot in the low 20 bits, (generation + 1) in the high
/// 12 — the same diet as arena::PoolHandle, so structures that store flow ids
/// densely (peer sources, adjacency mirrors) stay compact. The all-zero value
/// remains the invalid sentinel because a live id always carries gen + 1 >= 1.
struct FlowId {
    static constexpr std::uint32_t kSlotBits = 20;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

    std::uint32_t value = 0;
    [[nodiscard]] bool valid() const noexcept { return value != 0; }
    [[nodiscard]] constexpr std::uint32_t slot() const noexcept { return value & kSlotMask; }
    [[nodiscard]] constexpr std::uint32_t generation() const noexcept {
        return (value >> kSlotBits) - 1;  // callers must check valid() first
    }
    friend constexpr auto operator<=>(const FlowId&, const FlowId&) = default;
};

class FlowNetwork {
public:
    using CompletionFn = std::function<void(FlowId)>;

    /// Lifetime counters for the perf surface (core/simulation, benches).
    struct Stats {
        std::uint64_t flows_started = 0;
        std::uint64_t flows_completed = 0;
        std::uint64_t flows_cancelled = 0;
        /// Host refills (water-fill recomputations) performed.
        std::uint64_t refills = 0;
        /// Side fills that reused the cached order without sorting.
        std::uint64_t resort_hits = 0;
        /// Side fills that had to (re)sort their flow bounds.
        std::uint64_t resort_misses = 0;
    };

    /// `sim` must outlive the network.
    explicit FlowNetwork(sim::Simulator& sim) : sim_(&sim) {}

    FlowNetwork(const FlowNetwork&) = delete;
    FlowNetwork& operator=(const FlowNetwork&) = delete;

    /// Adds a host with the given link capacities; returns its index.
    HostId add_host(Rate up, Rate down);

    [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }

    /// Changes a host's uplink capacity (used for upload throttling and
    /// user-traffic backoff) and reallocates affected flows.
    void set_up_capacity(HostId h, Rate up);
    void set_down_capacity(HostId h, Rate down);
    [[nodiscard]] Rate up_capacity(HostId h) const { return hosts_[h.value].up; }
    [[nodiscard]] Rate down_capacity(HostId h) const { return hosts_[h.value].down; }

    /// Starts a flow of `size` bytes from src to dst with a per-flow rate cap
    /// (kUnlimited for none). `on_complete` fires when the last byte arrives.
    FlowId start_flow(HostId src, HostId dst, Bytes size, Rate cap, CompletionFn on_complete);

    /// Cancels a flow; returns the bytes it transferred. No-op (returns 0)
    /// for stale ids.
    Bytes cancel_flow(FlowId id);

    /// True if the flow is still running.
    [[nodiscard]] bool active(FlowId id) const;
    /// Bytes moved so far (settled to the current instant).
    [[nodiscard]] Bytes transferred(FlowId id);
    /// The current allocated rate.
    [[nodiscard]] Rate current_rate(FlowId id) const;

    /// Concurrent flows on a host side (for tests and peer logic).
    [[nodiscard]] int out_degree(HostId h) const;
    [[nodiscard]] int in_degree(HostId h) const;

    /// Total bytes delivered by completed and cancelled flows. Accumulated in
    /// exact fluid bytes per flow and rounded once at each flow's end, so the
    /// sum cannot drift from the sum of flow sizes however many partial
    /// settles a flow goes through.
    [[nodiscard]] Bytes total_delivered() const noexcept { return total_delivered_; }

    /// Visits every active flow as (id, src, dst), in slot order (stable and
    /// deterministic for a given history). The callback must not start or
    /// cancel flows; collect ids and act after the sweep.
    template <typename Fn>
    void for_each_active(Fn&& fn) const {
        for (std::uint32_t slot = 0; slot < flow_pool_.slot_count(); ++slot) {
            if (!flow_pool_.is_live(slot)) continue;
            const Flow& f = flow_pool_.at_slot(slot);
            if (f.active) fn(make_id(slot), f.src, f.dst);
        }
    }

    /// Relative rate change below which updates do not propagate.
    void set_epsilon(double eps) noexcept { epsilon_ = eps; }

    [[nodiscard]] Stats stats() const noexcept { return stats_; }

    /// Flow-slab storage accounting (never sampled into the trace).
    [[nodiscard]] arena::PoolStats pool_stats() const noexcept;

private:
    /// Tombstone marker inside adjacency lists.
    static constexpr std::uint32_t kDeadSlot = 0xFFFFFFFFu;
    /// Sort-cache epoch meaning "no cached order".
    static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

    /// One side's adjacency: flow slots in insertion order, with O(1)
    /// tombstone removal (flows remember their position) and amortised
    /// compaction that preserves live-entry order. `epoch` advances on every
    /// membership change and validates the cached water-fill order.
    struct AdjList {
        std::vector<std::uint32_t> entries;
        std::uint32_t dead = 0;
        std::uint64_t epoch = 0;
        /// Slot order of the last sort, reusable while `sorted_epoch == epoch`
        /// and the recomputed bounds still come out sorted.
        std::vector<std::uint32_t> sorted;
        std::uint64_t sorted_epoch = kNoEpoch;

        [[nodiscard]] std::size_t live() const noexcept { return entries.size() - dead; }
    };

    struct Host {
        Rate up = kUnlimited;
        Rate down = kUnlimited;
        AdjList out;
        AdjList in;
        bool queued = false;  // already in the dirty work queue
    };

    struct Flow {
        HostId src;
        HostId dst;
        Rate cap = kUnlimited;
        Rate rate = 0.0;
        Rate alloc_src = kUnlimited;  // last allocation from src's uplink fill
        Rate alloc_dst = kUnlimited;  // last allocation from dst's downlink fill
        double remaining = 0.0;  // fluid-model fractional bytes
        double done = 0.0;
        sim::SimTime last_settle{};
        sim::EventHandle completion;
        CompletionFn on_complete;
        std::uint32_t src_pos = 0;  // index in hosts_[src].out.entries
        std::uint32_t dst_pos = 0;  // index in hosts_[dst].in.entries
        bool active = false;
    };

    /// Slot generations live in the pool; FlowId packs (generation + 1) so
    /// the all-zero id stays the invalid sentinel for slot 0 / generation 0.
    [[nodiscard]] FlowId make_id(std::uint32_t slot) const {
        return FlowId{((flow_pool_.generation(slot) + 1u) << FlowId::kSlotBits) | slot};
    }
    [[nodiscard]] Flow& flow_at(std::uint32_t slot) { return flow_pool_.at_slot(slot); }
    [[nodiscard]] const Flow& flow_at(std::uint32_t slot) const {
        return flow_pool_.at_slot(slot);
    }
    [[nodiscard]] const Flow* find(FlowId id) const;
    [[nodiscard]] Flow* find(FlowId id);

    void settle(std::uint32_t slot);
    void reschedule(std::uint32_t slot);
    void complete(std::uint32_t slot);
    void remove(std::uint32_t slot);
    void mark_dirty(HostId h);
    void process_dirty();
    /// Recomputes one side's water-fill and applies new rates; marks
    /// neighbours whose allocation changed materially.
    void refill_host(HostId h);
    void apply_rate(std::uint32_t slot);

    void adj_push(AdjList& adj, std::uint32_t slot, std::uint32_t Flow::* pos_field);
    void adj_remove(AdjList& adj, std::uint32_t pos, std::uint32_t Flow::* pos_field);
    /// Water-fills one host side; factored out of refill_host.
    void fill_side(Rate capacity, AdjList& adj, bool side_is_up);

    sim::Simulator* sim_;
    std::vector<Host> hosts_;
    /// Flow slab: chunked stable-address storage, LIFO slot reuse, pool
    /// generations back the FlowId staleness check. Flows are *released*
    /// (parked), never destroyed, so every slot stays constructed.
    arena::Pool<Flow> flow_pool_;
    std::vector<HostId> dirty_;  // hosts awaiting a refill (Host::queued dedups)
    // Scratch buffer for water-filling (avoid per-call allocation).
    std::vector<std::pair<double, std::uint32_t>> fill_scratch_;
    bool processing_ = false;
    double epsilon_ = 0.02;
    Bytes total_delivered_ = 0;
    Stats stats_;
};

}  // namespace netsession::net
