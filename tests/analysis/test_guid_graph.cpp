// Fig 12: secondary-GUID graph construction and pattern classification.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/guid_graph.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace netsession::analysis {
namespace {

SecondaryGuid sg(std::uint64_t v) { return SecondaryGuid{v, v}; }

// --- Reference: the hash-set classifier the flat one replaced ------------------

struct Graph {
    // vertex -> successors (dedup'd)
    std::unordered_map<SecondaryGuid, std::unordered_set<SecondaryGuid>> out;
    std::unordered_map<SecondaryGuid, int> in_degree;
    std::unordered_set<SecondaryGuid> vertices;

    void add_edge(SecondaryGuid a, SecondaryGuid b) {
        vertices.insert(a);
        vertices.insert(b);
        if (out[a].insert(b).second) ++in_degree[b];
    }
};

/// Depth of the longest path from v (acyclic graphs only; depth capped).
int subtree_depth(const Graph& g, SecondaryGuid v, int budget) {
    if (budget <= 0) return 0;
    const auto it = g.out.find(v);
    if (it == g.out.end() || it->second.empty()) return 0;
    int best = 0;
    for (const auto& next : it->second) best = std::max(best, 1 + subtree_depth(g, next, budget - 1));
    return best;
}

GuidGraphPattern classify(const Graph& g) {
    // Roots and structural sanity: a chain/tree has exactly one root and no
    // vertex with in-degree > 1.
    std::vector<SecondaryGuid> roots;
    int leaves = 0;
    int branch_points = 0;
    SecondaryGuid branch_vertex{};
    for (const auto& v : g.vertices) {
        const auto in_it = g.in_degree.find(v);
        const int in = in_it == g.in_degree.end() ? 0 : in_it->second;
        if (in == 0) roots.push_back(v);
        if (in > 1) return GuidGraphPattern::irregular;
        const auto out_it = g.out.find(v);
        const auto out = out_it == g.out.end() ? 0 : static_cast<int>(out_it->second.size());
        if (out == 0) ++leaves;
        if (out > 1) {
            ++branch_points;
            branch_vertex = v;
        }
    }
    if (roots.size() != 1) return GuidGraphPattern::irregular;

    if (branch_points == 0) return GuidGraphPattern::linear_chain;
    if (leaves >= 3 || branch_points >= 2) return GuidGraphPattern::several_branches;

    // Exactly one branch point with two arms: measure arm lengths.
    const auto& arms = g.out.at(branch_vertex);
    const int cap = static_cast<int>(g.vertices.size());
    int shortest = cap;
    for (const auto& arm : arms)
        shortest = std::min(shortest, 1 + subtree_depth(g, arm, cap));
    return shortest <= 1 ? GuidGraphPattern::long_plus_short
                         : GuidGraphPattern::two_long_branches;
}

/// The reference classification of a whole log, serially.
GuidGraphStats reference_stats(const trace::TraceLog& log) {
    std::unordered_map<Guid, Graph> graphs;
    for (const auto& login : log.logins()) {
        Graph& g = graphs[login.guid];
        const auto& s = login.secondary_guids;
        for (std::size_t j = 0; j + 1 < s.size(); ++j)
            if (!s[j].is_nil() && !s[j + 1].is_nil()) g.add_edge(s[j + 1], s[j]);
    }
    GuidGraphStats stats;
    for (const auto& [guid, g] : graphs) {
        if (g.vertices.size() < 3) continue;
        ++stats.graphs;
        switch (classify(g)) {
            case GuidGraphPattern::linear_chain: ++stats.linear_chains; break;
            case GuidGraphPattern::long_plus_short: ++stats.long_plus_short; break;
            case GuidGraphPattern::two_long_branches: ++stats.two_long_branches; break;
            case GuidGraphPattern::several_branches: ++stats.several_branches; break;
            case GuidGraphPattern::irregular: ++stats.irregular; break;
        }
    }
    return stats;
}

auto fields(const GuidGraphStats& s) {
    return std::make_tuple(s.graphs, s.linear_chains, s.long_plus_short, s.two_long_branches,
                           s.several_branches, s.irregular);
}

/// Seeded login histories of `guids` installations. Every start of an
/// installation reports the newest five ids of its current chain. Mixed in:
/// rollbacks (the chain is cut back before a start), reused ids (a start
/// takes an id the installation had before: merges and cycles), nil gaps,
/// self-edges and duplicate reports.
trace::TraceLog random_histories(std::uint64_t seed, int guids) {
    Rng rng(seed);
    trace::TraceLog log;
    std::uint64_t next_id = 1;
    for (int g = 0; g < guids; ++g) {
        const Guid guid{static_cast<std::uint64_t>(g + 1), seed};
        std::vector<std::uint64_t> chain;  // the installation's state, oldest first
        std::vector<std::uint64_t> used;
        const std::int64_t starts = rng.range(1, 14);
        for (std::int64_t k = 0; k < starts; ++k) {
            if (chain.size() > 1 && rng.chance(0.1)) {
                const auto cut = rng.range(1, std::min<std::int64_t>(4, std::ssize(chain) - 1));
                chain.resize(chain.size() - static_cast<std::size_t>(cut));
            }
            const std::uint64_t id =
                !used.empty() && rng.chance(0.01) ? used[rng.below(used.size())] : next_id++;
            chain.push_back(id);
            used.push_back(id);

            trace::LoginRecord r;
            r.guid = guid;
            r.time = sim::SimTime{k};
            for (std::size_t i = 0; i < 5 && i < chain.size(); ++i)
                r.secondary_guids[i] = sg(chain[chain.size() - 1 - i]);
            if (rng.chance(0.02)) r.secondary_guids[1 + rng.below(3)] = SecondaryGuid{};
            if (rng.chance(0.02)) {
                const auto j = rng.below(4);
                r.secondary_guids[j + 1] = r.secondary_guids[j];
            }
            log.add(r);
            if (rng.chance(0.05)) log.add(r);
        }
    }
    return log;
}

struct ThreadCountGuard {
    ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

/// Builds a login record reporting the last-5 window ending at chain
/// position `end` (newest first), for chain values `chain`.
trace::LoginRecord login_at(Guid guid, const std::vector<std::uint64_t>& chain, std::size_t end) {
    trace::LoginRecord r;
    r.guid = guid;
    for (std::size_t i = 0; i < 5 && i < end; ++i) r.secondary_guids[i] = sg(chain[end - 1 - i]);
    return r;
}

/// Simulates a client whose chain evolves; report after every start.
void report_chain(trace::TraceLog& log, Guid guid, const std::vector<std::uint64_t>& chain,
                  std::size_t from = 1) {
    for (std::size_t end = from; end <= chain.size(); ++end)
        log.add(login_at(guid, chain, end));
}

TEST(GuidGraph, LinearChainClassified) {
    trace::TraceLog log;
    report_chain(log, Guid{1, 1}, {1, 2, 3, 4, 5, 6});
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.linear_chains, 1);
    EXPECT_EQ(stats.trees(), 0);
}

TEST(GuidGraph, TwoVertexGraphsAreIgnored) {
    trace::TraceLog log;
    report_chain(log, Guid{1, 1}, {1, 2});
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 0) << "the paper considers graphs with >= 3 vertices";
}

TEST(GuidGraph, OverlappingWindowsStillLinear) {
    trace::TraceLog log;
    // 5 4 3 2 1 then 6 5 4 3 2 etc — exactly the paper's example.
    report_chain(log, Guid{1, 1}, {1, 2, 3, 4, 5, 6, 7, 8}, /*from=*/5);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.linear_chains, 1);
}

TEST(GuidGraph, RollbackByOneGivesLongPlusShortBranch) {
    trace::TraceLog log;
    const Guid g{2, 2};
    // Chain 1-2-3, then rollback to after 2 and continue 4-5-6:
    // 2 -> {3, 4}, with the 3-branch one vertex long.
    report_chain(log, g, {1, 2, 3});
    report_chain(log, g, {1, 2, 4, 5, 6}, /*from=*/3);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.long_plus_short, 1) << "failed-update pattern (46.2% of trees)";
}

TEST(GuidGraph, DeepRollbackGivesTwoLongBranches) {
    trace::TraceLog log;
    const Guid g{3, 3};
    report_chain(log, g, {1, 2, 3, 4, 5});
    report_chain(log, g, {1, 2, 6, 7, 8}, /*from=*/3);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.two_long_branches, 1) << "restored-backup pattern (6.2% of trees)";
}

TEST(GuidGraph, RepeatedReimagingGivesSeveralBranches) {
    trace::TraceLog log;
    const Guid g{4, 4};
    // Golden image ends at 2; every night a fresh start branches off it.
    report_chain(log, g, {1, 2, 3});
    report_chain(log, g, {1, 2, 4}, /*from=*/3);
    report_chain(log, g, {1, 2, 5}, /*from=*/3);
    report_chain(log, g, {1, 2, 6}, /*from=*/3);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.several_branches, 1) << "internet-cafe / cloning pattern";
}

TEST(GuidGraph, MergedLineageIsIrregular) {
    trace::TraceLog log;
    const Guid g{5, 5};
    // Two parents converging on one child (in-degree 2): impossible from
    // rollbacks alone; classified irregular.
    trace::LoginRecord a;
    a.guid = g;
    a.secondary_guids[0] = sg(3);
    a.secondary_guids[1] = sg(1);
    log.add(a);
    trace::LoginRecord b;
    b.guid = g;
    b.secondary_guids[0] = sg(3);
    b.secondary_guids[1] = sg(2);
    log.add(b);
    trace::LoginRecord c;
    c.guid = g;
    c.secondary_guids[0] = sg(4);
    c.secondary_guids[1] = sg(3);
    log.add(c);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.irregular, 1);
}

TEST(GuidGraph, GraphsGroupedByPrimaryGuid) {
    trace::TraceLog log;
    report_chain(log, Guid{1, 1}, {1, 2, 3, 4});
    report_chain(log, Guid{2, 2}, {10, 11, 12});
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 2);
    EXPECT_EQ(stats.linear_chains, 2);
    EXPECT_DOUBLE_EQ(stats.linear_fraction(), 1.0);
}

TEST(GuidGraph, NilEntriesIgnored) {
    trace::TraceLog log;
    trace::LoginRecord r;
    r.guid = Guid{6, 6};
    r.secondary_guids[0] = sg(2);
    r.secondary_guids[1] = sg(1);
    // entries 2..4 nil (fresh install, short history)
    log.add(r);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 0);
}

TEST(GuidGraph, LongArmClassifiesWithoutRecursion) {
    // A 300k-id chain, reported five consecutive ids per login, with a
    // one-vertex branch at its second id. A .nstrace file can carry such a
    // history; a classifier that recurses along an arm overflows the stack.
    trace::TraceLog log;
    const Guid g{7, 7};
    constexpr std::uint64_t kLogins = 75'000;
    for (std::uint64_t k = 0; k < kLogins; ++k) {
        trace::LoginRecord r;
        r.guid = g;
        r.time = sim::SimTime{static_cast<std::int64_t>(k)};
        for (std::size_t i = 0; i < 5; ++i) r.secondary_guids[i] = sg(4 * k + 5 - i);
        log.add(r);
    }
    trace::LoginRecord branch;
    branch.guid = g;
    branch.time = sim::SimTime{static_cast<std::int64_t>(kLogins)};
    branch.secondary_guids[0] = sg(4 * kLogins + 100);
    branch.secondary_guids[1] = sg(2);
    log.add(branch);
    const auto stats = classify_guid_graphs(log);
    EXPECT_EQ(stats.graphs, 1);
    EXPECT_EQ(stats.long_plus_short, 1);
}

TEST(GuidGraph, MatchesReferenceOnRandomHistories) {
    ThreadCountGuard guard;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        const trace::TraceLog log = random_histories(seed, 12'000);
        const LoginIndex index(log);
        ASSERT_GT(index.guid_count(), parallel::detail::kGrain)
            << "the per-GUID reduce must span several chunks";
        const GuidGraphStats expected = reference_stats(log);
        EXPECT_GT(expected.linear_chains, 0) << "seed " << seed;
        EXPECT_GT(expected.long_plus_short, 0) << "seed " << seed;
        EXPECT_GT(expected.two_long_branches, 0) << "seed " << seed;
        EXPECT_GT(expected.several_branches, 0) << "seed " << seed;
        EXPECT_GT(expected.irregular, 0) << "seed " << seed;
        for (const int threads : {1, 4}) {
            parallel::set_thread_count(threads);
            EXPECT_EQ(fields(classify_guid_graphs(log)), fields(expected))
                << "seed " << seed << ", threads " << threads << ", from the log";
            EXPECT_EQ(fields(classify_guid_graphs(index)), fields(expected))
                << "seed " << seed << ", threads " << threads << ", from the index";
        }
    }
}

}  // namespace
}  // namespace netsession::analysis
