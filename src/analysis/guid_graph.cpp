#include "analysis/guid_graph.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/parallel.hpp"

namespace netsession::analysis {

namespace {

/// A secondary-GUID edge, (older, newer).
using Edge = std::pair<SecondaryGuid, SecondaryGuid>;

/// Compares an edge by its older end, so equal_range finds a vertex's
/// out-edges.
struct ByOlder {
    bool operator()(const Edge& e, const SecondaryGuid& v) const { return e.first < v; }
    bool operator()(const SecondaryGuid& v, const Edge& e) const { return v < e.first; }
};

/// One GUID's graph as sorted flat vectors. A chunk reuses one FlatGraph for
/// all its GUIDs, so the buffers are allocated once per chunk.
struct FlatGraph {
    std::vector<Edge> edges;              // sorted, duplicate-free
    std::vector<SecondaryGuid> vertices;  // sorted, duplicate-free
    std::vector<SecondaryGuid> heads;     // newer end of every edge, sorted

    void build(const std::vector<const trace::LoginRecord*>& history) {
        edges.clear();
        for (const trace::LoginRecord* login : history) {
            // secondary_guids is newest-first; edges run old -> new.
            const auto& s = login->secondary_guids;
            for (std::size_t j = 0; j + 1 < s.size(); ++j)
                if (!s[j].is_nil() && !s[j + 1].is_nil()) edges.emplace_back(s[j + 1], s[j]);
        }
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
        vertices.clear();
        heads.clear();
        for (const auto& [older, newer] : edges) {
            vertices.push_back(older);
            vertices.push_back(newer);
            heads.push_back(newer);
        }
        std::sort(vertices.begin(), vertices.end());
        vertices.erase(std::unique(vertices.begin(), vertices.end()), vertices.end());
        std::sort(heads.begin(), heads.end());
    }

    [[nodiscard]] std::size_t out_degree(const SecondaryGuid& v) const {
        const auto [lo, hi] = std::equal_range(edges.begin(), edges.end(), v, ByOlder{});
        return static_cast<std::size_t>(hi - lo);
    }
    [[nodiscard]] std::size_t in_degree(const SecondaryGuid& v) const {
        const auto [lo, hi] = std::equal_range(heads.begin(), heads.end(), v);
        return static_cast<std::size_t>(hi - lo);
    }
};

GuidGraphPattern classify(const FlatGraph& g) {
    // Roots and structural sanity: a chain/tree has exactly one root and no
    // vertex with in-degree > 1.
    int roots = 0;
    int leaves = 0;
    int branch_points = 0;
    SecondaryGuid branch_vertex{};
    for (const SecondaryGuid& v : g.vertices) {
        const std::size_t in = g.in_degree(v);
        if (in == 0) ++roots;
        if (in > 1) return GuidGraphPattern::irregular;
        const std::size_t out = g.out_degree(v);
        if (out == 0) ++leaves;
        if (out > 1) {
            ++branch_points;
            branch_vertex = v;
        }
    }
    if (roots != 1) return GuidGraphPattern::irregular;

    if (branch_points == 0) return GuidGraphPattern::linear_chain;
    if (leaves >= 3 || branch_points >= 2) return GuidGraphPattern::several_branches;

    // Exactly one branch point. The short branch is an arm of one vertex,
    // i.e. an arm vertex with no out-edge; checking that needs no walk along
    // the arms, whose length a trace file does not bound.
    const auto [first, last] =
        std::equal_range(g.edges.begin(), g.edges.end(), branch_vertex, ByOlder{});
    const bool short_arm =
        std::any_of(first, last, [&](const Edge& arm) { return g.out_degree(arm.second) == 0; });
    return short_arm ? GuidGraphPattern::long_plus_short : GuidGraphPattern::two_long_branches;
}

}  // namespace

GuidGraphStats classify_guid_graphs(const LoginIndex& logins) {
    // One graph per GUID, built from that GUID's whole login history, so
    // each chunk of histories classifies its graphs alone and only the
    // counts merge.
    const auto histories = logins.history_snapshot();
    return parallel::parallel_reduce<GuidGraphStats>(
        histories.size(),
        [&](GuidGraphStats& p, std::size_t lo, std::size_t hi) {
            FlatGraph g;
            for (std::size_t i = lo; i < hi; ++i) {
                g.build(*histories[i]);
                if (g.vertices.size() < 3) continue;  // paper: graphs with >= 3 vertices
                ++p.graphs;
                switch (classify(g)) {
                    case GuidGraphPattern::linear_chain: ++p.linear_chains; break;
                    case GuidGraphPattern::long_plus_short: ++p.long_plus_short; break;
                    case GuidGraphPattern::two_long_branches: ++p.two_long_branches; break;
                    case GuidGraphPattern::several_branches: ++p.several_branches; break;
                    case GuidGraphPattern::irregular: ++p.irregular; break;
                }
            }
        },
        [](GuidGraphStats& a, GuidGraphStats&& b) {
            a.graphs += b.graphs;
            a.linear_chains += b.linear_chains;
            a.long_plus_short += b.long_plus_short;
            a.two_long_branches += b.two_long_branches;
            a.several_branches += b.several_branches;
            a.irregular += b.irregular;
        });
}

GuidGraphStats classify_guid_graphs(const trace::TraceLog& log) {
    return classify_guid_graphs(LoginIndex(log));
}

}  // namespace netsession::analysis
