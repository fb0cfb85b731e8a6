// Deterministic parallel execution for the offline analysis path.
//
// The measurement pipeline (analysis/) reduces millions of trace records into
// the paper's tables and figures; at the ROADMAP's target scale that pass,
// not the simulator, dominates figure regeneration. This layer makes it
// multi-core without giving up the byte-identity contract the whole repo is
// built on (docs/SIMULATOR.md §3, docs/PARALLELISM.md):
//
//   The result of every primitive here is a pure function of the input and
//   the input size — NEVER of the thread count, the scheduling order, or
//   which worker ran which chunk. NS_THREADS=1 and NS_THREADS=64 produce
//   bit-identical output, including float summation order.
//
// How that is achieved (the three rules, spelled out in docs/PARALLELISM.md):
//
//   1. *Chunk boundaries depend only on n.* Work over [0, n) is split into
//      chunks whose count and extents are computed from n alone
//      (detail::num_chunks). Threads race for chunk *indices*; they never
//      influence chunk *shape*.
//   2. *Partial state is per-chunk, not per-thread.* parallel_reduce gives
//      every chunk its own Partial; a worker that processes three chunks
//      fills three independent partials.
//   3. *Merges run serially in ascending chunk order* on the calling thread.
//      Non-commutative merge effects (float addition, hash-map insertion
//      order) are therefore fixed by the chunk layout, which is fixed by n.
//
// The pool itself is lazily started, process-wide, and sized by
// set_thread_count() / the NS_THREADS environment variable (default:
// hardware_concurrency). With one thread every primitive runs inline on the
// caller — but still through the same chunk decomposition, so switching
// thread counts cannot even reorder equal-element ties in parallel_sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace netsession::parallel {

/// Threads the pool targets (>= 1). Resolved on first use from NS_THREADS
/// (or hardware_concurrency when unset/invalid) unless set_thread_count()
/// overrode it.
[[nodiscard]] int thread_count() noexcept;

/// Overrides the pool size. n <= 0 re-resolves the NS_THREADS/-hardware
/// default. Takes effect on the next parallel call; existing workers beyond
/// the new count go idle rather than being joined (cheap, and results do not
/// depend on worker count anyway). Not safe to call concurrently with a
/// running parallel primitive (configure, then compute).
void set_thread_count(int n);

/// Cumulative counters for the observability layer ("did the pool actually
/// run, and how was work distributed"). `chunks_stolen` counts chunks
/// executed by pool workers rather than the calling thread — the analogue of
/// a work-stealing scheduler's steal count under our chunk-racing scheme.
/// `merge_order_checks` counts ordered-merge verifications performed by
/// parallel_reduce (every merge asserts it runs in ascending chunk order).
/// Deliberately NOT registered with a Simulation's metric registry: these
/// are process-wide and analysis-driven, so sampling them into a trace would
/// make trace bytes depend on unrelated prior work in the process.
struct StatsSnapshot {
    std::uint64_t jobs = 0;            // parallel invocations that used the pool
    std::uint64_t inline_jobs = 0;     // invocations that ran fully inline
    std::uint64_t chunks = 0;          // chunks executed, total
    std::uint64_t chunks_stolen = 0;   // chunks executed by pool workers
    std::uint64_t merges = 0;          // ordered merges performed
    std::uint64_t merge_order_checks = 0;
    int threads = 1;                   // current configured thread count
};
[[nodiscard]] StatsSnapshot stats() noexcept;
void reset_stats() noexcept;

namespace detail {

/// Deterministic chunk decomposition: a function of n only. Grain keeps
/// per-chunk bookkeeping negligible; the cap bounds partial-state memory for
/// huge inputs.
inline constexpr std::size_t kGrain = 8192;
inline constexpr std::size_t kMaxChunks = 512;

[[nodiscard]] constexpr std::size_t chunk_size_for(std::size_t n) noexcept {
    const std::size_t by_cap = (n + kMaxChunks - 1) / kMaxChunks;
    return std::max(kGrain, by_cap);
}
[[nodiscard]] constexpr std::size_t num_chunks(std::size_t n) noexcept {
    return n == 0 ? 0 : (n + chunk_size_for(n) - 1) / chunk_size_for(n);
}
[[nodiscard]] constexpr std::pair<std::size_t, std::size_t> chunk_range(std::size_t n,
                                                                        std::size_t chunk) noexcept {
    const std::size_t size = chunk_size_for(n);
    const std::size_t lo = chunk * size;
    return {lo, std::min(n, lo + size)};
}

/// Executes fn(ctx, task) for every task in [0, count) across the pool (the
/// caller participates). Returns when all tasks have finished. Tasks must be
/// independent; completion of the call happens-after every task body.
void run_tasks(std::size_t count, void (*fn)(void*, std::size_t), void* ctx);

void note_merges(std::uint64_t merges, std::uint64_t checks) noexcept;

}  // namespace detail

/// Runs fn(begin, end) over disjoint subranges covering [0, n). fn must not
/// write shared state (use parallel_reduce for that).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    struct Ctx {
        Fn* fn;
        std::size_t n;
    } ctx{&fn, n};
    detail::run_tasks(detail::num_chunks(n),
                      [](void* p, std::size_t chunk) {
                          auto* c = static_cast<Ctx*>(p);
                          const auto [lo, hi] = detail::chunk_range(c->n, chunk);
                          (*c->fn)(lo, hi);
                      },
                      &ctx);
}

/// Sharded reduction over [0, n): every chunk gets a default-constructed
/// Partial, chunk(partial, begin, end) fills it, and merge(acc, partial) is
/// applied serially in ascending chunk order (chunk 0's partial seeds the
/// accumulator). Returns the accumulator. Merge effects that are not
/// commutative — float addition, container insertion order — are exactly as
/// deterministic as the chunk layout, i.e. fully.
template <typename Partial, typename ChunkFn, typename MergeFn>
[[nodiscard]] Partial parallel_reduce(std::size_t n, ChunkFn&& chunk, MergeFn&& merge) {
    if (n == 0) return Partial{};
    const std::size_t chunks = detail::num_chunks(n);
    if (chunks == 1) {
        Partial only{};
        chunk(only, std::size_t{0}, n);
        return only;
    }
    std::vector<Partial> parts(chunks);
    struct Ctx {
        ChunkFn* chunk;
        Partial* parts;
        std::size_t n;
    } ctx{&chunk, parts.data(), n};
    detail::run_tasks(chunks,
                      [](void* p, std::size_t c) {
                          auto* x = static_cast<Ctx*>(p);
                          const auto [lo, hi] = detail::chunk_range(x->n, c);
                          (*x->chunk)(x->parts[c], lo, hi);
                      },
                      &ctx);
    Partial acc = std::move(parts[0]);
    for (std::size_t i = 1; i < chunks; ++i) merge(acc, std::move(parts[i]));
    detail::note_merges(chunks - 1, chunks);
    return acc;
}

/// Deterministic parallel sort: chunk-local std::sort followed by rounds of
/// pairwise std::inplace_merge over adjacent chunk groups. The merge tree is
/// a function of v.size() only, so the resulting permutation (including the
/// order of elements that compare equal but differ bitwise, e.g. -0.0/0.0)
/// is identical for every thread count — and is the canonical result for a
/// given input regardless of how the serial std::sort would have tied.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort(std::vector<T>& v, Cmp cmp = {}) {
    const std::size_t n = v.size();
    const std::size_t chunks = detail::num_chunks(n);
    if (chunks <= 1) {
        std::sort(v.begin(), v.end(), cmp);
        return;
    }
    struct SortCtx {
        T* data;
        std::size_t n;
        Cmp* cmp;
    } sctx{v.data(), n, &cmp};
    detail::run_tasks(chunks,
                      [](void* p, std::size_t c) {
                          auto* x = static_cast<SortCtx*>(p);
                          const auto [lo, hi] = detail::chunk_range(x->n, c);
                          std::sort(x->data + lo, x->data + hi, *x->cmp);
                      },
                      &sctx);
    // log2(chunks) rounds of pairwise merges; round boundaries are chunk
    // multiples, so every inplace_merge operates on a fixed, n-derived range.
    for (std::size_t width = 1; width < chunks; width *= 2) {
        const std::size_t stride = 2 * width;
        const std::size_t pairs = (chunks + stride - 1) / stride;
        struct MergeCtx {
            T* data;
            std::size_t n, chunks, width, stride;
            Cmp* cmp;
        } mctx{v.data(), n, chunks, width, stride, &cmp};
        detail::run_tasks(pairs,
                          [](void* p, std::size_t pair) {
                              auto* x = static_cast<MergeCtx*>(p);
                              const std::size_t first = pair * x->stride;
                              const std::size_t mid_chunk = first + x->width;
                              if (mid_chunk >= x->chunks) return;  // odd tail, nothing to merge
                              const std::size_t last_chunk =
                                  std::min(x->chunks, first + x->stride);
                              const std::size_t lo = detail::chunk_range(x->n, first).first;
                              const std::size_t mid = detail::chunk_range(x->n, mid_chunk).first;
                              const std::size_t hi =
                                  last_chunk == x->chunks
                                      ? x->n
                                      : detail::chunk_range(x->n, last_chunk).first;
                              std::inplace_merge(x->data + lo, x->data + mid, x->data + hi,
                                                 *x->cmp);
                          },
                          &mctx);
    }
}

}  // namespace netsession::parallel
