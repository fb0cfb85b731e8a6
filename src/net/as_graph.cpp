#include "net/as_graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace netsession::net {

namespace {
constexpr std::uint32_t kFirstAsn = 1000;
// Each AS gets a /12 block: 2^20 client addresses, never reused, so every
// allocated IP is globally unique (Table 1 counts distinct IPs).
constexpr int kPrefixLen = 12;
static_assert(AsGraphConfig::kMaxAses == 1 << kPrefixLen, "one /12 block per AS");

std::uint64_t edge_key(std::size_t i, std::size_t j) noexcept {
    if (i > j) std::swap(i, j);
    return (static_cast<std::uint64_t>(i) << 32) | static_cast<std::uint64_t>(j);
}
}  // namespace

AsGraph AsGraph::generate(const AsGraphConfig& config, Rng rng) {
    AsGraph g;
    const auto world = countries();
    const auto n_countries = world.size();
    if (config.total_ases < static_cast<int>(n_countries))
        throw std::invalid_argument("AsGraphConfig.total_ases must cover every country");
    if (config.total_ases > AsGraphConfig::kMaxAses)
        throw std::invalid_argument("too many ASes for the /12 address plan");

    // Distribute AS counts over countries proportionally to peer weight,
    // with at least one AS per country.
    double total_weight = 0.0;
    for (const auto& c : world) total_weight += c.peer_weight;

    std::vector<int> per_country(n_countries, 1);
    int remaining = config.total_ases - static_cast<int>(n_countries);
    for (std::size_t i = 0; i < n_countries && remaining > 0; ++i) {
        const int extra = std::min(
            remaining, static_cast<int>(world[i].peer_weight / total_weight *
                                        static_cast<double>(config.total_ases - static_cast<int>(n_countries))));
        per_country[i] += extra;
        remaining -= extra;
    }
    // Round-off leftovers go to the heaviest countries.
    for (std::size_t i = 0; remaining > 0; i = (i + 1) % n_countries) {
        ++per_country[i];
        --remaining;
    }

    g.country_ases_.resize(n_countries);
    g.country_cumweight_.resize(n_countries);

    std::uint32_t next_asn = kFirstAsn;
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
        for (int k = 0; k < per_country[ci]; ++k) {
            const std::size_t idx = g.ases_.size();
            AsInfo as;
            as.asn = Asn{next_asn++};
            as.country = CountryId{static_cast<std::uint16_t>(ci)};
            as.size_weight = rng.pareto(1.0, config.pareto_shape);
            as.prefix = Prefix{static_cast<std::uint32_t>(idx) << (32 - kPrefixLen), kPrefixLen};
            g.by_asn_[as.asn.value] = idx;
            g.country_ases_[ci].push_back(idx);
            g.ases_.push_back(as);
        }
    }
    g.next_host_.assign(g.ases_.size(), 1);  // skip .0 within each block

    // Tiering: the globally largest ASes form the tier-1 clique; the largest
    // AS within each country is (at least) tier 2.
    std::vector<std::size_t> by_size(g.ases_.size());
    for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
        return g.ases_[a].size_weight > g.ases_[b].size_weight;
    });
    const int t1 = std::min<int>(config.tier1_count, static_cast<int>(g.ases_.size()));
    for (int i = 0; i < t1; ++i) g.ases_[by_size[static_cast<std::size_t>(i)]].tier = 1;
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
        const auto& members = g.country_ases_[ci];
        const auto biggest = *std::max_element(members.begin(), members.end(),
                                               [&](std::size_t a, std::size_t b) {
                                                   return g.ases_[a].size_weight < g.ases_[b].size_weight;
                                               });
        if (g.ases_[biggest].tier == 3) g.ases_[biggest].tier = 2;
    }

    // Tier-1 clique.
    for (int i = 0; i < t1; ++i)
        for (int j = i + 1; j < t1; ++j)
            g.add_edge(by_size[static_cast<std::size_t>(i)], by_size[static_cast<std::size_t>(j)]);

    // Provider links: every non-tier-1 AS connects to 1-3 providers — the
    // national tier-2 AS of its country and/or random tier-1s.
    for (std::size_t i = 0; i < g.ases_.size(); ++i) {
        AsInfo& as = g.ases_[i];
        if (as.tier == 1) continue;
        const auto& members = g.country_ases_[as.country.value];
        // Link to the country's largest AS (its national backbone).
        const auto backbone = *std::max_element(members.begin(), members.end(),
                                                [&](std::size_t a, std::size_t b) {
                                                    return g.ases_[a].size_weight < g.ases_[b].size_weight;
                                                });
        if (backbone != i) g.add_edge(i, backbone);
        // 1-2 upstream tier-1 providers.
        const int ups = static_cast<int>(1 + rng.below(2));
        for (int k = 0; k < ups; ++k)
            g.add_edge(i, by_size[rng.below(static_cast<std::uint64_t>(t1))]);
    }

    // Peering: same-continent edges, preferring large ASes.
    std::vector<std::vector<std::size_t>> by_continent(kContinentCount);
    for (std::size_t i = 0; i < g.ases_.size(); ++i)
        by_continent[static_cast<std::size_t>(country(g.ases_[i].country).continent)].push_back(i);
    for (std::size_t i = 0; i < g.ases_.size(); ++i) {
        const auto& pool =
            by_continent[static_cast<std::size_t>(country(g.ases_[i].country).continent)];
        if (pool.size() < 2) continue;
        const int links = static_cast<int>(rng.below(static_cast<std::uint64_t>(
            std::max(1.0, 2.0 * config.peering_mean))));
        for (int k = 0; k < links; ++k) {
            const std::size_t j = pool[rng.below(pool.size())];
            if (j != i) g.add_edge(i, j);
        }
    }

    // Per-country cumulative weights for peer placement sampling.
    for (std::size_t ci = 0; ci < n_countries; ++ci) {
        double acc = 0.0;
        for (const auto idx : g.country_ases_[ci]) {
            acc += g.ases_[idx].size_weight;
            g.country_cumweight_[ci].push_back(acc);
        }
    }
    return g;
}

void AsGraph::add_edge(std::size_t i, std::size_t j) {
    if (i == j) return;
    edges_.insert(edge_key(i, j));
}

std::size_t AsGraph::index_of(Asn asn) const {
    const auto it = by_asn_.find(asn.value);
    assert(it != by_asn_.end());
    return it->second;
}

const AsInfo& AsGraph::info(Asn asn) const { return ases_[index_of(asn)]; }

bool AsGraph::directly_connected(Asn a, Asn b) const {
    if (a == b) return true;
    const auto ia = by_asn_.find(a.value);
    const auto ib = by_asn_.find(b.value);
    if (ia == by_asn_.end() || ib == by_asn_.end()) return false;
    return edges_.contains(edge_key(ia->second, ib->second));
}

Asn AsGraph::pick_for_country(CountryId country_id, Rng& rng) const {
    const auto& members = country_ases_[country_id.value];
    const auto& cum = country_cumweight_[country_id.value];
    assert(!members.empty());
    const double x = rng.uniform(0.0, cum.back());
    const auto it = std::lower_bound(cum.begin(), cum.end(), x);
    const auto pos = static_cast<std::size_t>(it - cum.begin());
    return ases_[members[std::min(pos, members.size() - 1)]].asn;
}

IpAddr AsGraph::allocate_ip(Asn asn) {
    const std::size_t idx = index_of(asn);
    AsInfo& as = ases_[idx];
    const std::uint32_t host = next_host_[idx]++;
    assert(host < as.prefix.size());
    return IpAddr{as.prefix.base + host};
}

}  // namespace netsession::net
