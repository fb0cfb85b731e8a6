// Synthetic autonomous-system topology.
//
// Substitutes for the Internet's AS-level structure (the paper uses CAIDA's
// AS topology for its §6.1 transit estimate). The generator produces a
// heavy-tailed AS size distribution per country (which yields Fig 9's
// light/heavy uploader split), a tier-1 clique, provider links, and regional
// peering edges (used by Fig 11's "directly connected heavy uploaders").
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/ipv4.hpp"
#include "net/world_data.hpp"

namespace netsession::net {

/// Static description of one autonomous system.
struct AsInfo {
    Asn asn;
    CountryId country;
    int tier = 3;          // 1 = global transit, 2 = national, 3 = access
    double size_weight;    // heavy-tailed; drives how many peers land here
    Prefix prefix;         // address block the AS allocates client IPs from
};

struct AsGraphConfig {
    /// Most ASes the address plan holds: every AS owns a /12 block.
    static constexpr int kMaxAses = 1 << 12;

    int total_ases = 2000;       // ASes across all countries (>= #countries)
    int tier1_count = 10;        // global clique
    /// AS size distribution shape. Real ISP populations are extremely
    /// top-heavy (a handful of eyeball networks hold most subscribers);
    /// shape < 1 reproduces Fig 9's "2% of ASes carry 90% of the traffic".
    double pareto_shape = 0.55;
    double peering_mean = 2.0;   // mean # of same-continent peering links
};

/// The AS topology: membership, sizes, and adjacency.
class AsGraph {
public:
    /// Builds a synthetic topology. Deterministic given the rng stream.
    static AsGraph generate(const AsGraphConfig& config, Rng rng);

    [[nodiscard]] std::size_t size() const noexcept { return ases_.size(); }
    [[nodiscard]] const AsInfo& info(Asn asn) const;
    [[nodiscard]] const std::vector<AsInfo>& all() const noexcept { return ases_; }

    /// True if the two ASes share a direct (provider or peering) link.
    [[nodiscard]] bool directly_connected(Asn a, Asn b) const;

    /// Chooses an AS for a new peer in `country`, weighted by AS size.
    [[nodiscard]] Asn pick_for_country(CountryId country, Rng& rng) const;

    /// Allocates a fresh, never-used client IP within the AS's block.
    [[nodiscard]] IpAddr allocate_ip(Asn asn);

    /// Number of direct links in the graph (for tests/stats).
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

private:
    [[nodiscard]] std::size_t index_of(Asn asn) const;
    void add_edge(std::size_t i, std::size_t j);

    std::vector<AsInfo> ases_;
    std::vector<std::uint32_t> next_host_;            // per-AS IP allocation cursor
    std::unordered_set<std::uint64_t> edges_;         // (min_idx << 32) | max_idx
    std::unordered_map<std::uint32_t, std::size_t> by_asn_;
    // Per-country: AS indices and cumulative size weights for fast sampling.
    std::vector<std::vector<std::size_t>> country_ases_;
    std::vector<std::vector<double>> country_cumweight_;
};

}  // namespace netsession::net
