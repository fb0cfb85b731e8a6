// The deterministic parallel runtime: chunk decomposition, merge ordering,
// and the bit-identity-across-thread-counts contract (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace netsession::parallel {
namespace {

/// Restores the default thread count when a test that overrides it exits.
struct ThreadCountGuard {
    ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(Parallel, ChunkDecompositionCoversRangeExactly) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, detail::kGrain - 1,
                                detail::kGrain, detail::kGrain + 1, std::size_t{100'000},
                                std::size_t{10'000'000}}) {
        const std::size_t chunks = detail::num_chunks(n);
        if (n == 0) {
            EXPECT_EQ(chunks, 0u);
            continue;
        }
        EXPECT_LE(chunks, detail::kMaxChunks);
        std::size_t covered = 0;
        std::size_t expected_lo = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const auto [lo, hi] = detail::chunk_range(n, c);
            EXPECT_EQ(lo, expected_lo) << "chunks must tile the range";
            EXPECT_LT(lo, hi);
            covered += hi - lo;
            expected_lo = hi;
        }
        EXPECT_EQ(covered, n);
        EXPECT_EQ(expected_lo, n);
    }
}

TEST(Parallel, SmallInputsAreOneChunk) {
    // Everything below the grain is a single chunk, so parallel primitives
    // over small inputs are exactly the serial computation.
    EXPECT_EQ(detail::num_chunks(1), 1u);
    EXPECT_EQ(detail::num_chunks(detail::kGrain), 1u);
    EXPECT_EQ(detail::num_chunks(detail::kGrain + 1), 2u);
}

TEST(Parallel, ReduceMergesInAscendingChunkOrder) {
    ThreadCountGuard guard;
    set_thread_count(8);
    const std::size_t n = 10 * detail::kGrain;  // 10 chunks
    // Each chunk records its own lower bound; the merged vector must list
    // them in ascending chunk order no matter which worker ran what.
    for (int round = 0; round < 20; ++round) {
        const auto order = parallel_reduce<std::vector<std::size_t>>(
            n,
            [](std::vector<std::size_t>& p, std::size_t lo, std::size_t) { p.push_back(lo); },
            [](std::vector<std::size_t>& a, std::vector<std::size_t>&& b) {
                a.insert(a.end(), b.begin(), b.end());
            });
        ASSERT_EQ(order.size(), detail::num_chunks(n));
        for (std::size_t c = 0; c + 1 < order.size(); ++c)
            EXPECT_LT(order[c], order[c + 1]) << "merge order must follow chunk order";
    }
}

TEST(Parallel, FloatSumIsBitIdenticalAcrossThreadCounts) {
    ThreadCountGuard guard;
    const std::size_t n = 5 * detail::kGrain + 123;
    std::vector<double> xs(n);
    Rng rng(42);
    for (auto& x : xs) x = rng.uniform(-1e9, 1e9);

    const auto sum_at = [&](int threads) {
        set_thread_count(threads);
        return parallel_reduce<double>(
            xs.size(),
            [&](double& p, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) p += xs[i];
            },
            [](double& a, double b) { a += b; });
    };
    const double at1 = sum_at(1);
    EXPECT_EQ(at1, sum_at(2));
    EXPECT_EQ(at1, sum_at(3));
    EXPECT_EQ(at1, sum_at(8));
}

TEST(Parallel, VectorConcatPreservesElementOrder) {
    ThreadCountGuard guard;
    const std::size_t n = 4 * detail::kGrain + 7;
    const auto collect_at = [&](int threads) {
        set_thread_count(threads);
        return parallel_reduce<std::vector<std::size_t>>(
            n,
            [](std::vector<std::size_t>& p, std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) p.push_back(i);
            },
            [](std::vector<std::size_t>& a, std::vector<std::size_t>&& b) {
                a.insert(a.end(), b.begin(), b.end());
            });
    };
    const auto serial = collect_at(1);
    ASSERT_EQ(serial.size(), n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(serial[i], i);
    EXPECT_EQ(serial, collect_at(6));
}

TEST(Parallel, SortMatchesSerialAndIsThreadCountInvariant) {
    ThreadCountGuard guard;
    const std::size_t n = 7 * detail::kGrain + 999;
    std::vector<std::uint64_t> base(n);
    Rng rng(7);
    for (auto& v : base) v = rng.next() % 1000;  // plenty of duplicate keys

    set_thread_count(1);
    auto one = base;
    parallel_sort(one);
    auto ref = base;
    std::sort(ref.begin(), ref.end());
    EXPECT_EQ(one, ref);

    for (const int threads : {2, 4, 8}) {
        set_thread_count(threads);
        auto many = base;
        parallel_sort(many);
        EXPECT_EQ(many, one) << "threads=" << threads;
    }
}

TEST(Parallel, SortTiesAreCanonicalAcrossThreadCounts) {
    ThreadCountGuard guard;
    // Sort pairs by first only: the final order of tied elements (distinct
    // .second) must not depend on the thread count.
    const std::size_t n = 6 * detail::kGrain;
    std::vector<std::pair<int, std::size_t>> base(n);
    Rng rng(11);
    for (std::size_t i = 0; i < n; ++i) base[i] = {static_cast<int>(rng.next() % 8), i};
    const auto by_first = [](const auto& a, const auto& b) { return a.first < b.first; };

    set_thread_count(1);
    auto one = base;
    parallel_sort(one, by_first);
    for (const int threads : {2, 8}) {
        set_thread_count(threads);
        auto many = base;
        parallel_sort(many, by_first);
        EXPECT_EQ(many, one) << "threads=" << threads;
    }
}

TEST(Parallel, StatsCountJobsAndMerges) {
    ThreadCountGuard guard;
    set_thread_count(2);
    reset_stats();
    const std::size_t n = 3 * detail::kGrain;
    (void)parallel_reduce<std::uint64_t>(
        n,
        [](std::uint64_t& p, std::size_t lo, std::size_t hi) { p += hi - lo; },
        [](std::uint64_t& a, std::uint64_t b) { a += b; });
    const StatsSnapshot st = stats();
    EXPECT_EQ(st.threads, 2);
    EXPECT_EQ(st.jobs, 1u);
    EXPECT_EQ(st.chunks, detail::num_chunks(n));
    EXPECT_EQ(st.merges, detail::num_chunks(n) - 1);

    reset_stats();
    // Single-chunk inputs run inline, no pool involvement.
    (void)parallel_reduce<std::uint64_t>(
        10,
        [](std::uint64_t& p, std::size_t lo, std::size_t hi) { p += hi - lo; },
        [](std::uint64_t& a, std::uint64_t b) { a += b; });
    EXPECT_EQ(stats().jobs, 0u);
}

TEST(Parallel, SetThreadCountZeroRestoresDefault) {
    ThreadCountGuard guard;
    set_thread_count(5);
    EXPECT_EQ(thread_count(), 5);
    set_thread_count(0);
    EXPECT_GE(thread_count(), 1);
}

}  // namespace
}  // namespace netsession::parallel
