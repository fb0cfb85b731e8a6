// Discrete-event simulation engine.
//
// A binary-heap event queue with cancellable events and deterministic
// FIFO tie-breaking for same-timestamp events. Everything in the NetSession
// reproduction — control-plane messages, flow completions, user behaviour —
// runs as events on one Simulator.
//
// Hot-path layout (see docs/SIMULATOR.md): callbacks live in a stable slab
// indexed by slot; the priority queue holds small {at, seq, slot} PODs, so
// heap sifts are integer moves rather than std::function relocations.
// Cancellation clears the slab entry's seq in O(1) — the queue entry drains
// lazily when it reaches the top — and cancelling an already-dispatched or
// already-cancelled event is structurally a no-op because the slab seq no
// longer matches the handle.
//
// Ordering contract: events dispatch by (timestamp, seq) — FIFO on ties.
// Slot indices NEVER participate in ordering — slots are recycled storage,
// so any comparator falling back on them would make dispatch order depend on
// allocation history (see SameTimestampOrderIsIndependentOfSlotReuse).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace netsession::sim {

/// Handle to a scheduled event; can be used to cancel it. Default-constructed
/// handles are inert.
class EventHandle {
public:
    EventHandle() = default;

    [[nodiscard]] bool valid() const noexcept { return seq_ != 0; }
    /// Slab slot this handle points at (observable so tests can assert slot
    /// reuse; the seq is what actually validates a handle).
    [[nodiscard]] std::uint32_t slot() const noexcept { return slot_; }

private:
    friend class Simulator;
    EventHandle(std::uint64_t seq, std::uint32_t slot) noexcept : seq_(seq), slot_(slot) {}
    std::uint64_t seq_ = 0;  // unique per schedule call, never reused
    std::uint32_t slot_ = 0;
};

/// The event loop. Single-threaded: every method is called from one thread.
class Simulator {
public:
    using Callback = InlineFn;

    /// Lifetime counters for the perf surface (core/simulation, benches).
    struct Stats {
        std::uint64_t scheduled = 0;
        std::uint64_t dispatched = 0;
        std::uint64_t cancelled = 0;
        /// Callbacks too large for the InlineFn small buffer.
        std::uint64_t callback_heap_allocs = 0;
    };

    /// Current simulated time: the timestamp of the dispatching event, or
    /// the last run_until() bound.
    [[nodiscard]] SimTime now() const noexcept { return now_; }

    /// Schedules `cb` to run at absolute time `at` (clamped to now()).
    EventHandle schedule_at(SimTime at, Callback cb);

    /// Schedules `cb` to run after `delay`.
    EventHandle schedule_after(Duration delay, Callback cb) {
        return schedule_at(now_ + delay, std::move(cb));
    }

    /// Cancels a pending event. Returns true if it was still pending.
    /// Cancelling an already-run or already-cancelled event is a no-op.
    bool cancel(EventHandle h);

    /// Runs events until the queue is empty.
    void run();

    /// Runs events with timestamp <= `until`, then sets now() to `until`.
    void run_until(SimTime until);

    /// Runs at most one event. Returns false if the queue was empty.
    bool step();

    /// Number of events dispatched so far (for tests and stats).
    [[nodiscard]] std::uint64_t events_dispatched() const noexcept { return stats_.dispatched; }
    /// Number of live (scheduled, not yet dispatched or cancelled) events.
    [[nodiscard]] std::size_t pending() const noexcept { return live_; }

    [[nodiscard]] Stats stats() const noexcept { return stats_; }

private:
    /// What the priority queue sifts: a POD. `seq` is the schedule order —
    /// it breaks same-timestamp ties FIFO and pins each entry to the slab
    /// occupant it was created for. The slot is storage, not identity: it
    /// must never participate in ordering (slots are recycled, so slot order
    /// is allocation history, not schedule order).
    struct HeapEntry {
        SimTime at;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    struct Later {
        bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };
    /// Slab entry: the callback plus the seq of the event occupying the slot
    /// (0 = cancelled or dispatched; the heap entry is stale). 64 bytes.
    struct Slot {
        Callback cb;
        std::uint64_t seq = 0;
    };

    /// Pops stale (cancelled) entries off the top, recycling their slots;
    /// returns true if a live event remains.
    bool purge_cancelled_top();

    std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> queue_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::uint64_t next_seq_ = 1;
    std::size_t live_ = 0;
    Stats stats_;
    SimTime now_{};
};

}  // namespace netsession::sim
