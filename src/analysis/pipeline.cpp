#include "analysis/pipeline.hpp"

#include <cstring>

namespace netsession::analysis {

PipelineResult run_full_pipeline(const trace::Dataset& dataset, const net::AsGraph* graph) {
    const trace::TraceLog& log = dataset.log;
    const net::GeoDatabase& geodb = dataset.geodb;
    const LoginIndex logins(log);

    PipelineResult r;
    r.overall = overall_stats(log, geodb);
    r.regions = downloads_by_region(log, logins, geodb);
    r.setting_changes = upload_setting_changes(logins);
    r.upload_enabled = upload_enabled_by_provider(log, logins);
    r.peers_by_country = peer_distribution(logins, geodb);
    r.continents = continent_shares(logins, geodb);
    r.workload = workload_characteristics(log, logins, geodb);
    r.speeds = speed_comparison(log, logins, geodb);
    r.efficiency_copies = efficiency_vs_copies(log);
    r.efficiency_peers = efficiency_vs_peers_returned(log);
    r.outcomes = outcome_stats(log);
    if (!r.regions.empty())
        r.coverage = coverage_by_country(log, logins, geodb, CpCode{r.regions.begin()->first});
    r.balance = traffic_balance(log, geodb, graph);
    r.mobility = mobility_stats(log, logins, geodb);
    r.headline = headline_offload(log);
    r.degradation = degradation_stats(log);
    r.guid_graphs = classify_guid_graphs(logins);
    return r;
}

namespace {

/// Incremental FNV-1a over 64-bit words; scalars are widened/bitcast so the
/// hash sees exact bit patterns (a NaN or -0.0 regression would show up).
struct Fnv {
    std::uint64_t h = 1469598103934665603ull;

    void word(std::uint64_t w) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        word(bits);
    }
    void u64(std::uint64_t v) { word(v); }
    void i64(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
    void size(std::size_t v) { word(static_cast<std::uint64_t>(v)); }

    void cdf(const Cdf& c) {
        size(c.size());
        for (const double v : c.samples()) f64(v);
        f64(c.mean());
    }
    void fit(const LogLogFit& f) {
        f64(f.slope);
        f64(f.intercept);
        size(f.n);
    }
};

}  // namespace

std::uint64_t fingerprint(const PipelineResult& r) {
    Fnv h;

    // Table 1
    h.size(r.overall.log_entries);
    h.size(r.overall.guids);
    h.size(r.overall.distinct_urls);
    h.size(r.overall.distinct_ips);
    h.size(r.overall.downloads_initiated);
    h.size(r.overall.distinct_locations);
    h.size(r.overall.distinct_ases);
    h.size(r.overall.distinct_countries);

    // Table 2
    h.size(r.regions.size());
    for (const auto& [cp, shares] : r.regions) {
        h.u64(cp);
        for (const double s : shares) h.f64(s);
    }

    // Table 3
    for (const auto v : r.setting_changes.initially_disabled) h.i64(v);
    for (const auto v : r.setting_changes.initially_enabled) h.i64(v);

    // Table 4
    h.size(r.upload_enabled.size());
    for (const auto& [cp, frac] : r.upload_enabled) {
        h.u64(cp);
        h.f64(frac);
    }

    // Fig 2
    h.size(r.peers_by_country.size());
    for (const auto& c : r.peers_by_country) {
        h.u64(c.country.value);
        h.i64(c.peers);
        h.f64(c.fraction);
    }
    for (const double s : r.continents) h.f64(s);

    // Fig 3
    h.cdf(r.workload.size_all);
    h.cdf(r.workload.size_infra_only);
    h.cdf(r.workload.size_peer_assisted);
    h.size(r.workload.popularity.size());
    for (const auto& [rank, downloads] : r.workload.popularity) {
        h.f64(rank);
        h.f64(downloads);
    }
    h.fit(r.workload.popularity_fit);
    h.size(r.workload.bytes_per_hour_gmt.size());
    for (const double v : r.workload.bytes_per_hour_gmt) h.f64(v);
    h.size(r.workload.bytes_per_hour_local.size());
    for (const double v : r.workload.bytes_per_hour_local) h.f64(v);

    // Fig 4
    h.u64(r.speeds.as_x);
    h.u64(r.speeds.as_y);
    h.cdf(r.speeds.edge_only_x);
    h.cdf(r.speeds.p2p_x);
    h.cdf(r.speeds.edge_only_y);
    h.cdf(r.speeds.p2p_y);

    // Fig 5
    h.size(r.efficiency_copies.bins.size());
    for (const auto& b : r.efficiency_copies.bins) {
        h.f64(b.copies_lo);
        h.f64(b.copies_hi);
        h.f64(b.mean);
        h.f64(b.p20);
        h.f64(b.p80);
        h.i64(b.objects);
    }

    // Fig 6
    h.size(r.efficiency_peers.groups.size());
    for (const auto& g : r.efficiency_peers.groups) {
        h.f64(g.mean_efficiency);
        h.i64(g.downloads);
    }

    // §5.2 / Fig 7
    const auto hash_class = [&h](const OutcomeStats::Class& c) {
        h.i64(c.n);
        h.f64(c.completed);
        h.f64(c.failed_system);
        h.f64(c.failed_other);
        h.f64(c.aborted);
    };
    hash_class(r.outcomes.infra_only);
    hash_class(r.outcomes.peer_assisted);
    hash_class(r.outcomes.all);
    for (const auto& row : r.outcomes.pause_rate_by_size)
        for (const double v : row) h.f64(v);
    for (const auto& row : r.outcomes.downloads_by_size)
        for (const auto v : row) h.i64(v);

    // Fig 8
    h.size(r.coverage.size());
    for (const auto& c : r.coverage) {
        h.u64(c.country.value);
        h.i64(c.infra_bytes);
        h.i64(c.peer_bytes);
        h.i64(c.cls);
    }

    // §6.1 / Fig 9-11
    h.i64(r.balance.total_p2p_bytes);
    h.i64(r.balance.intra_as_bytes);
    h.i64(r.balance.inter_as_bytes);
    h.size(r.balance.ases.size());
    for (const auto& a : r.balance.ases) {
        h.u64(a.asn);
        h.i64(a.sent);
        h.i64(a.received);
        h.i64(a.ips_observed);
        h.u64(a.heavy ? 1 : 0);
    }
    h.size(r.balance.ases_with_traffic);
    h.size(r.balance.heavy_count);
    h.i64(r.balance.p98_upload);
    h.f64(r.balance.bottom98_share);
    h.size(r.balance.heavy_pairs.size());
    for (const auto& [a, b, ab, ba] : r.balance.heavy_pairs) {
        h.u64(a);
        h.u64(b);
        h.i64(ab);
        h.i64(ba);
    }
    h.f64(r.balance.heavy_direct_share);

    // §6.2
    h.i64(r.mobility.guids);
    h.f64(r.mobility.frac_single_as);
    h.f64(r.mobility.frac_two_as);
    h.f64(r.mobility.frac_more_as);
    h.f64(r.mobility.frac_within_10km);
    h.f64(r.mobility.new_connections_per_minute);

    // §5.1
    h.f64(r.headline.p2p_enabled_file_fraction);
    h.f64(r.headline.p2p_enabled_byte_fraction);
    h.f64(r.headline.mean_peer_efficiency);
    h.f64(r.headline.overall_offload);

    // §3.8
    h.i64(r.degradation.total);
    h.i64(r.degradation.edge_stalls);
    h.i64(r.degradation.edge_remaps);
    h.i64(r.degradation.peer_stalls);
    h.i64(r.degradation.sources_blacklisted);
    h.i64(r.degradation.query_timeouts);
    h.i64(r.degradation.login_timeouts);
    h.i64(r.degradation.stun_timeouts);
    h.i64(r.degradation.affected_clients);

    // Fig 12
    h.i64(r.guid_graphs.graphs);
    h.i64(r.guid_graphs.linear_chains);
    h.i64(r.guid_graphs.long_plus_short);
    h.i64(r.guid_graphs.two_long_branches);
    h.i64(r.guid_graphs.several_branches);
    h.i64(r.guid_graphs.irregular);

    return h.h;
}

}  // namespace netsession::analysis
