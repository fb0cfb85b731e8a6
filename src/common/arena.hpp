// Chunked object pool ("arena") with generation-checked handles — the
// allocation-free backing store for the simulation's churny objects
// (downloads, swarms, flows).
//
// Properties the hot paths rely on (docs/SIMULATOR.md "Memory layout"):
//
//   * Stable addresses. Storage is a list of fixed-size chunks, never
//     reallocated, so T* stays valid for the object's whole lifetime no
//     matter how much the pool grows.
//   * Deterministic slot order. New slots are handed out sequentially;
//     freed slots are reused LIFO. Same request sequence => same slot
//     sequence on every platform (no address-order dependence anywhere).
//   * 32-bit packed handles. A Handle is a single u32: slot in the low 20
//     bits, generation in the high 12. Halving the handle width halves the
//     footprint of everything that stores handles densely (directory
//     postings, flow adjacency lists, per-client download tables) — the
//     point of the per-peer memory diet. A pool therefore holds at most
//     2^20 slots (the simulator aborts loudly if a pool ever outgrows
//     that; at 1M peers the pooled populations — concurrent downloads,
//     flows, swarms — stay far below it).
//   * Free-list reuse keyed by generation. Every release bumps the slot's
//     generation; a Handle carries the generation it was minted with, so a
//     stale handle is detectable. With NS_ARENA_CHECKS=1 (default in debug
//     builds; forced on by the CI ASan leg) every dereference verifies the
//     generation and aborts loudly on a dangling handle.
//   * Generation wrap safety. A 12-bit generation wraps after 4095
//     releases of the same slot. Instead of wrapping (which would let a
//     stale pre-wrap handle alias a new object — silently, even under
//     NS_ARENA_CHECKS), a slot whose generation reaches the cap is
//     *retired*: removed from the free list forever. Aliasing becomes
//     structurally impossible at the cost of ~one leaked slot per 4095
//     releases. Retired slots also guarantee no live handle ever equals
//     the invalid-sentinel bit pattern.
//   * Two release flavours:
//       - destroy(h): runs ~T(), slot returns to raw storage.
//       - release(h): *parks* the object — it stays constructed and is
//         handed back as-is by the next acquire(). This retains internal
//         capacity (vectors of PeerSource, swarm Entry arrays, hash-table
//         storage) across reuse; the caller owns resetting logical state.
//
// Not thread-safe; the simulation is single-threaded by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

// Dangling-handle detection. On by default whenever asserts are on; CI's
// ASan flavour configures with -DNS_ARENA_CHECKS=1 so the checks also run
// under the sanitizer's RelWithDebInfo build (which defines NDEBUG).
#ifndef NS_ARENA_CHECKS
#ifdef NDEBUG
#define NS_ARENA_CHECKS 0
#else
#define NS_ARENA_CHECKS 1
#endif
#endif

namespace netsession::arena {

[[noreturn]] inline void handle_check_failed(const char* what) {
    std::fprintf(stderr, "arena::Pool: %s (dangling or foreign handle)\n", what);
    std::abort();
}

[[noreturn]] inline void pool_exhausted(const char* what) {
    std::fprintf(stderr, "arena::Pool: %s\n", what);
    std::abort();
}

/// Storage accounting (see Pool::stats()).
struct PoolStats {
    std::size_t live = 0;            ///< objects currently held out
    std::size_t parked = 0;          ///< constructed objects on the free list
    std::size_t slots = 0;           ///< total slots across all chunks
    std::size_t retired = 0;         ///< slots lost to generation-wrap retirement
    std::size_t peak_live = 0;       ///< high-water mark of live
    std::size_t bytes_reserved = 0;  ///< chunk storage owned by the pool
    std::size_t bytes_live = 0;      ///< live * sizeof(T)
};

/// Packed 32-bit pool handle: slot index in the low 20 bits, the generation
/// the slot had when the object was created in the high 12. Trivially
/// copyable; half the width of a pointer, so handle-dense structures
/// (postings lists, adjacency lists) stay compact.
template <class T>
struct PoolHandle {
    static constexpr std::uint32_t kSlotBits = 20;
    static constexpr std::uint32_t kGenBits = 12;
    static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;        // 0xFFFFF
    static constexpr std::uint32_t kGenMask = (1u << kGenBits) - 1;         // 0xFFF
    /// Last generation a handle is ever minted with. 0xFFF is reserved so
    /// slot 0xFFFFF/gen 0xFFF (== the invalid sentinel) can never be live.
    static constexpr std::uint32_t kMaxGeneration = kGenMask - 1;           // 0xFFE
    static constexpr std::uint32_t kInvalidBits = 0xFFFFFFFFu;

    std::uint32_t bits = kInvalidBits;

    constexpr PoolHandle() noexcept = default;
    constexpr PoolHandle(std::uint32_t slot, std::uint32_t generation) noexcept
        : bits((generation << kSlotBits) | slot) {}

    [[nodiscard]] constexpr std::uint32_t slot() const noexcept { return bits & kSlotMask; }
    [[nodiscard]] constexpr std::uint32_t generation() const noexcept {
        return bits >> kSlotBits;
    }
    [[nodiscard]] constexpr bool valid() const noexcept { return bits != kInvalidBits; }
    friend constexpr bool operator==(const PoolHandle&, const PoolHandle&) = default;
};

template <class T>
class Pool {
public:
    using Handle = PoolHandle<T>;

    /// Objects per chunk: ~64 KiB worth, at least 8, at most 1024. Chunks
    /// are allocated lazily; an empty pool owns no memory.
    [[nodiscard]] static constexpr std::size_t default_chunk_objects() noexcept {
        constexpr std::size_t target = 64 * 1024 / sizeof(T);
        return target < 8 ? 8 : (target > 1024 ? 1024 : target);
    }

    explicit Pool(std::size_t objects_per_chunk = default_chunk_objects())
        : per_chunk_(objects_per_chunk == 0 ? 1 : objects_per_chunk) {}

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    ~Pool() {
        for (std::uint32_t s = 0; s < slot_count(); ++s)
            if (state_[s] == State::live || state_[s] == State::parked) ptr_at(s)->~T();
    }

    // --- create / destroy (construct-per-use flavour) ----------------------
    template <class... Args>
    [[nodiscard]] Handle create(Args&&... args) {
        const std::uint32_t slot = take_slot();
        if (state_[slot] == State::parked) ptr_at(slot)->~T();
        ::new (static_cast<void*>(ptr_at(slot))) T(std::forward<Args>(args)...);
        state_[slot] = State::live;
        bump_live();
        return Handle{slot, gen_[slot]};
    }

    void destroy(Handle h) {
        check(h, "destroy");
        ptr_at(h.slot())->~T();
        retire(h.slot(), State::raw);
    }

    // --- acquire / release (parked-reuse flavour) --------------------------
    /// Hands out a constructed object: default-constructed the first time a
    /// slot is used, otherwise the parked object exactly as release() left
    /// it (capacity intact). The caller resets logical state.
    [[nodiscard]] Handle acquire() {
        const std::uint32_t slot = take_slot();
        if (state_[slot] == State::raw) ::new (static_cast<void*>(ptr_at(slot))) T();
        state_[slot] = State::live;
        bump_live();
        return Handle{slot, gen_[slot]};
    }

    /// Parks the object for reuse without destroying it.
    void release(Handle h) {
        check(h, "release");
        retire(h.slot(), State::parked);
    }

    // --- access ------------------------------------------------------------
    [[nodiscard]] T& get(Handle h) {
        check(h, "get");
        return *ptr_at(h.slot());
    }
    [[nodiscard]] const T& get(Handle h) const {
        check(h, "get");
        return *ptr_at(h.slot());
    }
    /// nullptr on stale/invalid handles instead of aborting.
    [[nodiscard]] T* try_get(Handle h) noexcept {
        return valid(h) ? ptr_at(h.slot()) : nullptr;
    }
    [[nodiscard]] bool valid(Handle h) const noexcept {
        return h.slot() < slot_count() && state_[h.slot()] == State::live &&
               gen_[h.slot()] == h.generation();
    }

    /// Slot-indexed access for dense iteration (flow refill loops). The slot
    /// space is [0, slot_count()); is_live() tells which slots hold objects.
    [[nodiscard]] std::uint32_t slot_count() const noexcept {
        return static_cast<std::uint32_t>(state_.size());
    }
    [[nodiscard]] bool is_live(std::uint32_t slot) const noexcept {
        return slot < slot_count() && state_[slot] == State::live;
    }
    [[nodiscard]] T& at_slot(std::uint32_t slot) { return *ptr_at(slot); }
    [[nodiscard]] const T& at_slot(std::uint32_t slot) const { return *ptr_at(slot); }
    [[nodiscard]] std::uint32_t generation(std::uint32_t slot) const noexcept {
        return gen_[slot];
    }
    [[nodiscard]] Handle handle_at(std::uint32_t slot) const noexcept {
        return Handle{slot, gen_[slot]};
    }

    // --- stats -------------------------------------------------------------
    using Stats = PoolStats;
    [[nodiscard]] Stats stats() const noexcept {
        Stats s;
        s.live = live_;
        s.parked = 0;
        for (const auto st : state_)
            if (st == State::parked) ++s.parked;
        s.slots = state_.size();
        s.retired = retired_;
        s.peak_live = peak_live_;
        s.bytes_reserved = chunks_.size() * per_chunk_ * sizeof(T);
        s.bytes_live = live_ * sizeof(T);
        return s;
    }
    [[nodiscard]] std::size_t live() const noexcept { return live_; }
    [[nodiscard]] std::size_t peak_live() const noexcept { return peak_live_; }
    [[nodiscard]] std::size_t retired_slots() const noexcept { return retired_; }
    [[nodiscard]] std::size_t bytes_reserved() const noexcept {
        return chunks_.size() * per_chunk_ * sizeof(T);
    }

private:
    // `retired` slots hit the 12-bit generation cap; they hold no object and
    // are never handed out again (see the header comment on wrap safety).
    enum class State : std::uint8_t { raw, live, parked, retired };

    struct ChunkDeleter {
        std::size_t bytes = 0;
        void operator()(std::byte* p) const {
            ::operator delete[](p, std::align_val_t{alignof(T)});
        }
    };
    using ChunkPtr = std::unique_ptr<std::byte[], ChunkDeleter>;

    [[nodiscard]] T* ptr_at(std::uint32_t slot) const noexcept {
        return reinterpret_cast<T*>(chunks_[slot / per_chunk_].get() +
                                    static_cast<std::size_t>(slot % per_chunk_) * sizeof(T));
    }

    [[nodiscard]] std::uint32_t take_slot() {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        const std::uint32_t slot = slot_count();
        if (slot > Handle::kSlotMask)
            pool_exhausted("slot space exhausted (2^20 slots per pool)");
        if (slot % per_chunk_ == 0) {
            auto* raw = static_cast<std::byte*>(
                ::operator new[](per_chunk_ * sizeof(T), std::align_val_t{alignof(T)}));
            chunks_.emplace_back(raw, ChunkDeleter{per_chunk_ * sizeof(T)});
        }
        state_.push_back(State::raw);
        gen_.push_back(0);
        return slot;
    }

    void retire(std::uint32_t slot, State to) {
        --live_;
        if (gen_[slot] >= Handle::kMaxGeneration) {
            // Generation cap reached: the next mint would wrap (or mint the
            // reserved 0xFFF). Retire the slot instead of reusing it — a
            // stale handle can then never alias a future object.
            if (to == State::parked) ptr_at(slot)->~T();
            state_[slot] = State::retired;
            gen_[slot] = Handle::kGenMask;
            ++retired_;
            return;
        }
        state_[slot] = to;
        ++gen_[slot];
        free_.push_back(slot);
    }

    void bump_live() {
        ++live_;
        if (live_ > peak_live_) peak_live_ = live_;
    }

    void check([[maybe_unused]] Handle h, [[maybe_unused]] const char* op) const {
#if NS_ARENA_CHECKS
        if (h.slot() >= slot_count()) handle_check_failed(op);
        if (state_[h.slot()] != State::live) handle_check_failed(op);
        if (gen_[h.slot()] != h.generation()) handle_check_failed(op);
#endif
    }

    std::size_t per_chunk_;
    std::vector<ChunkPtr> chunks_;
    std::vector<State> state_;
    std::vector<std::uint16_t> gen_;  // 12 bits used; u16 keeps the array tight
    std::vector<std::uint32_t> free_;  // LIFO
    std::size_t live_ = 0;
    std::size_t retired_ = 0;
    std::size_t peak_live_ = 0;
};

}  // namespace netsession::arena
