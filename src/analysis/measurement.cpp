#include "analysis/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/parallel.hpp"
#include "net/geo.hpp"
#include "net/world_data.hpp"

// Every record scan below runs through parallel::parallel_reduce: chunks of
// the (contiguous) record arrays fill independent partial aggregates, which
// merge serially in ascending chunk order. That keeps each function's result
// a pure function of the log — identical for every NS_THREADS value — per
// the rules in docs/PARALLELISM.md: vector partials concatenate in chunk
// order (reproducing the serial element order exactly), map/set partials
// merge in chunk order (a deterministic insertion sequence, hence a
// deterministic iteration order downstream), and float partial sums add in
// chunk order (a fixed, n-derived summation tree). Distinct-id counts, whose
// order nothing sees, come from flat vectors sorted by parallel_sort instead
// (overall_stats).

namespace netsession::analysis {

namespace {
constexpr std::array<Bytes, 3> kSizeBucketEdges = {10 * 1000 * 1000, 100 * 1000 * 1000,
                                                   1000 * 1000 * 1000};

int size_bucket(Bytes size) noexcept {
    for (std::size_t i = 0; i < kSizeBucketEdges.size(); ++i)
        if (size < kSizeBucketEdges[i]) return static_cast<int>(i);
    return static_cast<int>(kSizeBucketEdges.size());
}

/// Sorts v, moves its distinct elements to the front and returns their count.
template <typename T>
std::size_t distinct_count(std::vector<T>& v) {
    parallel::parallel_sort(v);
    return static_cast<std::size_t>(std::unique(v.begin(), v.end()) - v.begin());
}
}  // namespace

// --- Table 1 -------------------------------------------------------------------

OverallStats overall_stats(const trace::TraceLog& log, const net::GeoDatabase& geodb) {
    OverallStats s;
    s.log_entries = log.total_entries();
    s.downloads_initiated = log.downloads().size();

    // Only the sizes of these id sets leave the function, so each set is a
    // flat vector counted by sort plus unique; element order is irrelevant.
    const auto& logins = log.logins();
    const auto& downloads = log.downloads();
    std::vector<Guid> guids;
    guids.reserve(logins.size() + downloads.size());
    std::vector<net::IpAddr> ips;
    ips.reserve(logins.size());
    for (const auto& login : logins) {
        guids.push_back(login.guid);
        ips.push_back(login.ip);
    }
    std::vector<std::uint64_t> urls;
    urls.reserve(downloads.size());
    for (const auto& download : downloads) {
        guids.push_back(download.guid);
        urls.push_back(download.url_hash);
    }
    s.guids = distinct_count(guids);
    s.distinct_urls = distinct_count(urls);
    s.distinct_ips = distinct_count(ips);
    ips.resize(s.distinct_ips);

    struct GeoIds {
        std::vector<std::uint64_t> locations;
        std::vector<std::uint32_t> ases;
        std::vector<std::uint16_t> countries;
    };
    auto geo_ids = parallel::parallel_reduce<GeoIds>(
        ips.size(),
        [&](GeoIds& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto geo = geodb.lookup(ips[i]);
                if (!geo) continue;
                p.locations.push_back((static_cast<std::uint64_t>(geo->location.country.value) << 32) |
                                      geo->location.city);
                p.ases.push_back(geo->asn.value);
                p.countries.push_back(geo->location.country.value);
            }
        },
        [](GeoIds& a, GeoIds&& b) {
            a.locations.insert(a.locations.end(), b.locations.begin(), b.locations.end());
            a.ases.insert(a.ases.end(), b.ases.begin(), b.ases.end());
            a.countries.insert(a.countries.end(), b.countries.begin(), b.countries.end());
        });
    s.distinct_locations = distinct_count(geo_ids.locations);
    s.distinct_ases = distinct_count(geo_ids.ases);
    s.distinct_countries = distinct_count(geo_ids.countries);
    return s;
}

// --- Table 2 -------------------------------------------------------------------

std::string_view to_string(ReportRegion r) noexcept {
    switch (r) {
        case ReportRegion::us_east: return "US East";
        case ReportRegion::us_west: return "US West";
        case ReportRegion::americas_other: return "Am. Other";
        case ReportRegion::india: return "India";
        case ReportRegion::china: return "China";
        case ReportRegion::asia_other: return "Asia Other";
        case ReportRegion::europe: return "Europe";
        case ReportRegion::africa: return "Africa";
        case ReportRegion::oceania: return "Oceania";
    }
    return "unknown";
}

ReportRegion report_region(const net::GeoRecord& geo) {
    const net::CountryInfo& c = net::country(geo.location.country);
    if (c.alpha2 == "US") {
        // The paper splits the United States East/West; we fold the central
        // region into East (the conventional Mississippi split).
        return net::region(c.region).name == std::string_view("US-West") ? ReportRegion::us_west
                                                                         : ReportRegion::us_east;
    }
    if (c.alpha2 == "IN") return ReportRegion::india;
    if (c.alpha2 == "CN") return ReportRegion::china;
    switch (c.continent) {
        case net::Continent::north_america:
        case net::Continent::south_america: return ReportRegion::americas_other;
        case net::Continent::europe: return ReportRegion::europe;
        case net::Continent::africa: return ReportRegion::africa;
        case net::Continent::asia: return ReportRegion::asia_other;
        case net::Continent::oceania: return ReportRegion::oceania;
    }
    return ReportRegion::europe;
}

std::map<std::uint32_t, std::array<double, kReportRegions>> downloads_by_region(
    const trace::TraceLog& log, const LoginIndex& logins, const net::GeoDatabase& geodb) {
    using CountMap = std::map<std::uint32_t, std::array<std::int64_t, kReportRegions>>;
    const auto& downloads = log.downloads();
    const CountMap counts = parallel::parallel_reduce<CountMap>(
        downloads.size(),
        [&](CountMap& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                const auto geo = logins.locate(d.guid, d.start, geodb);
                if (!geo) continue;
                p[d.cp_code.value][static_cast<std::size_t>(report_region(*geo))] += 1;
            }
        },
        [](CountMap& a, CountMap&& b) {
            for (const auto& [cp, row] : b) {
                auto& dst = a[cp];
                for (std::size_t i = 0; i < row.size(); ++i) dst[i] += row[i];
            }
        });
    std::map<std::uint32_t, std::array<double, kReportRegions>> shares;
    for (const auto& [cp, row] : counts) {
        std::int64_t total = 0;
        for (const auto v : row) total += v;
        auto& out = shares[cp];
        for (int i = 0; i < kReportRegions; ++i)
            out[static_cast<std::size_t>(i)] =
                total == 0 ? 0.0
                           : static_cast<double>(row[static_cast<std::size_t>(i)]) /
                                 static_cast<double>(total);
    }
    return shares;
}

// --- Table 3 -------------------------------------------------------------------

SettingChanges upload_setting_changes(const LoginIndex& logins) {
    const auto histories = logins.history_snapshot();
    return parallel::parallel_reduce<SettingChanges>(
        histories.size(),
        [&](SettingChanges& p, std::size_t lo, std::size_t hi) {
            for (std::size_t g = lo; g < hi; ++g) {
                const auto& history = *histories[g];
                if (history.empty()) continue;
                const bool initial = history.front()->uploads_enabled;
                int changes = 0;
                for (std::size_t i = 1; i < history.size(); ++i)
                    if (history[i]->uploads_enabled != history[i - 1]->uploads_enabled) ++changes;
                const std::size_t bucket = changes == 0 ? 0 : changes == 1 ? 1 : 2;
                (initial ? p.initially_enabled : p.initially_disabled)[bucket] += 1;
            }
        },
        [](SettingChanges& a, SettingChanges&& b) {
            for (std::size_t i = 0; i < a.initially_enabled.size(); ++i) {
                a.initially_enabled[i] += b.initially_enabled[i];
                a.initially_disabled[i] += b.initially_disabled[i];
            }
        });
}

// --- Table 4 -------------------------------------------------------------------

std::map<std::uint32_t, double> upload_enabled_by_provider(const trace::TraceLog& log,
                                                           const LoginIndex& logins) {
    // Attribute each peer to the provider of its first download. Merge keeps
    // the accumulator's entry on equal start times (strict <): the earlier
    // chunk saw the earlier record, matching the serial first-wins rule.
    using FirstMap = std::unordered_map<Guid, std::pair<sim::SimTime, std::uint32_t>>;
    const auto& downloads = log.downloads();
    const FirstMap first_download = parallel::parallel_reduce<FirstMap>(
        downloads.size(),
        [&](FirstMap& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                const auto it = p.find(d.guid);
                if (it == p.end() || d.start < it->second.first)
                    p[d.guid] = {d.start, d.cp_code.value};
            }
        },
        [](FirstMap& a, FirstMap&& b) {
            for (const auto& [guid, attribution] : b) {
                const auto it = a.find(guid);
                if (it == a.end() || attribution.first < it->second.first) a[guid] = attribution;
            }
        });

    std::vector<std::pair<Guid, std::uint32_t>> attributed;
    attributed.reserve(first_download.size());
    for (const auto& [guid, attribution] : first_download)
        attributed.emplace_back(guid, attribution.second);

    using CountMap = std::map<std::uint32_t, std::pair<std::int64_t, std::int64_t>>;
    const CountMap counts = parallel::parallel_reduce<CountMap>(  // enabled, total
        attributed.size(),
        [&](CountMap& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto* history = logins.history(attributed[i].first);
                if (history == nullptr || history->empty()) continue;
                auto& [enabled, total] = p[attributed[i].second];
                ++total;
                if (history->back()->uploads_enabled) ++enabled;
            }
        },
        [](CountMap& a, CountMap&& b) {
            for (const auto& [cp, c] : b) {
                a[cp].first += c.first;
                a[cp].second += c.second;
            }
        });
    std::map<std::uint32_t, double> out;
    for (const auto& [cp, c] : counts)
        out[cp] = c.second == 0 ? 0.0
                                : static_cast<double>(c.first) / static_cast<double>(c.second);
    return out;
}

// --- Fig 2 ---------------------------------------------------------------------

std::vector<CountryPeers> peer_distribution(const LoginIndex& logins,
                                            const net::GeoDatabase& geodb) {
    const auto histories = logins.history_snapshot();
    struct CountryCounts {
        std::unordered_map<std::uint16_t, std::int64_t> counts;
        std::int64_t total = 0;
    };
    const auto agg = parallel::parallel_reduce<CountryCounts>(
        histories.size(),
        [&](CountryCounts& p, std::size_t lo, std::size_t hi) {
            for (std::size_t g = lo; g < hi; ++g) {
                const auto& history = *histories[g];
                if (history.empty()) continue;
                const auto geo = geodb.lookup(history.front()->ip);
                if (!geo) continue;
                p.counts[geo->location.country.value] += 1;
                ++p.total;
            }
        },
        [](CountryCounts& a, CountryCounts&& b) {
            for (const auto& [country, n] : b.counts) a.counts[country] += n;
            a.total += b.total;
        });
    std::vector<CountryPeers> out;
    out.reserve(agg.counts.size());
    for (const auto& [country, n] : agg.counts)
        out.push_back(CountryPeers{CountryId{country}, n,
                                   agg.total == 0 ? 0.0
                                                  : static_cast<double>(n) /
                                                        static_cast<double>(agg.total)});
    std::sort(out.begin(), out.end(),
              [](const CountryPeers& a, const CountryPeers& b) { return a.peers > b.peers; });
    return out;
}

std::array<double, net::kContinentCount> continent_shares(const LoginIndex& logins,
                                                          const net::GeoDatabase& geodb) {
    std::array<double, net::kContinentCount> shares{};
    double total = 0;
    for (const auto& cp : peer_distribution(logins, geodb)) {
        shares[static_cast<std::size_t>(net::country(cp.country).continent)] +=
            static_cast<double>(cp.peers);
        total += static_cast<double>(cp.peers);
    }
    if (total > 0)
        for (auto& s : shares) s /= total;
    return shares;
}

// --- Fig 3 ---------------------------------------------------------------------

WorkloadCharacteristics workload_characteristics(const trace::TraceLog& log,
                                                 const LoginIndex& logins,
                                                 const net::GeoDatabase& geodb) {
    WorkloadCharacteristics w;
    const auto& downloads = log.downloads();
    struct SizePartial {
        std::vector<double> all, infra, p2p;
        std::unordered_map<std::uint64_t, std::int64_t> per_url;
        sim::SimTime window_end{};
    };
    auto sizes = parallel::parallel_reduce<SizePartial>(
        downloads.size(),
        [&](SizePartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                const auto size = static_cast<double>(d.object_size);
                p.all.push_back(size);
                (d.p2p_enabled ? p.p2p : p.infra).push_back(size);
                p.per_url[d.url_hash] += 1;
                p.window_end = std::max(p.window_end, d.end);
            }
        },
        [](SizePartial& a, SizePartial&& b) {
            a.all.insert(a.all.end(), b.all.begin(), b.all.end());
            a.infra.insert(a.infra.end(), b.infra.begin(), b.infra.end());
            a.p2p.insert(a.p2p.end(), b.p2p.begin(), b.p2p.end());
            for (const auto& [url, n] : b.per_url) a.per_url[url] += n;
            a.window_end = std::max(a.window_end, b.window_end);
        });
    w.size_all = Cdf(std::move(sizes.all));
    w.size_infra_only = Cdf(std::move(sizes.infra));
    w.size_peer_assisted = Cdf(std::move(sizes.p2p));

    std::vector<std::int64_t> pops;
    pops.reserve(sizes.per_url.size());
    for (const auto& [url, n] : sizes.per_url) pops.push_back(n);
    std::sort(pops.begin(), pops.end(), std::greater<>());
    w.popularity.reserve(pops.size());
    for (std::size_t i = 0; i < pops.size(); ++i)
        w.popularity.emplace_back(static_cast<double>(i + 1), static_cast<double>(pops[i]));
    w.popularity_fit = fit_loglog(w.popularity);

    const auto hours = static_cast<std::size_t>(sizes.window_end.hours()) + 1;
    struct HourPartial {
        std::vector<double> gmt, local;
    };
    auto per_hour = parallel::parallel_reduce<HourPartial>(
        downloads.size(),
        [&](HourPartial& p, std::size_t lo, std::size_t hi) {
            p.gmt.assign(hours, 0.0);
            p.local.assign(hours, 0.0);
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                const auto bytes = static_cast<double>(d.total_bytes());
                if (bytes <= 0) continue;
                const auto gmt_hour = static_cast<std::size_t>(d.end.hours());
                if (gmt_hour < hours) p.gmt[gmt_hour] += bytes;
                // Local time: shift by the longitude-derived timezone of the peer.
                const auto geo = logins.locate(d.guid, d.start, geodb);
                if (!geo) continue;
                const auto offset =
                    static_cast<std::int64_t>(std::lround(geo->location.point.lon / 15.0));
                const auto local = static_cast<std::int64_t>(gmt_hour) + offset;
                const auto wrapped = static_cast<std::size_t>(
                    ((local % static_cast<std::int64_t>(hours)) +
                     static_cast<std::int64_t>(hours)) %
                    static_cast<std::int64_t>(hours));
                p.local[wrapped] += bytes;
            }
        },
        [](HourPartial& a, HourPartial&& b) {
            for (std::size_t i = 0; i < a.gmt.size(); ++i) {
                a.gmt[i] += b.gmt[i];
                a.local[i] += b.local[i];
            }
        });
    if (per_hour.gmt.empty()) per_hour.gmt.assign(hours, 0.0);
    if (per_hour.local.empty()) per_hour.local.assign(hours, 0.0);
    w.bytes_per_hour_gmt = std::move(per_hour.gmt);
    w.bytes_per_hour_local = std::move(per_hour.local);
    return w;
}

// --- Fig 4 ---------------------------------------------------------------------

SpeedComparison speed_comparison(const trace::TraceLog& log, const LoginIndex& logins,
                                 const net::GeoDatabase& geodb) {
    // Count completed downloads per AS; pick the two largest.
    const auto& downloads = log.downloads();
    struct LocatedPartial {
        std::unordered_map<std::uint32_t, std::int64_t> per_as;
        std::vector<std::pair<std::uint32_t, const trace::DownloadRecord*>> located;
    };
    const auto loc = parallel::parallel_reduce<LocatedPartial>(
        downloads.size(),
        [&](LocatedPartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                if (d.outcome != trace::DownloadOutcome::completed) continue;
                const auto geo = logins.locate(d.guid, d.start, geodb);
                if (!geo) continue;
                p.per_as[geo->asn.value] += 1;
                p.located.emplace_back(geo->asn.value, &d);
            }
        },
        [](LocatedPartial& a, LocatedPartial&& b) {
            for (const auto& [asn, n] : b.per_as) a.per_as[asn] += n;
            a.located.insert(a.located.end(), b.located.begin(), b.located.end());
        });
    SpeedComparison out;
    std::uint32_t best = 0, second = 0;
    std::int64_t best_n = -1, second_n = -1;
    for (const auto& [asn, n] : loc.per_as) {
        if (n > best_n) {
            second = best;
            second_n = best_n;
            best = asn;
            best_n = n;
        } else if (n > second_n) {
            second = asn;
            second_n = n;
        }
    }
    out.as_x = best;
    out.as_y = second;

    struct SpeedPartial {
        std::vector<double> ex, px, ey, py;
    };
    auto speeds = parallel::parallel_reduce<SpeedPartial>(
        loc.located.size(),
        [&](SpeedPartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& [asn, d] = loc.located[i];
                if (asn != best && asn != second) continue;
                const double mbps = d->mean_speed() * 8.0 / 1e6;
                if (mbps <= 0.0) continue;
                const bool edge_only = d->bytes_from_peers == 0;
                const bool mostly_p2p = d->total_bytes() > 0 &&
                                        static_cast<double>(d->bytes_from_peers) >=
                                            0.5 * static_cast<double>(d->total_bytes());
                if (asn == best) {
                    if (edge_only) p.ex.push_back(mbps);
                    if (mostly_p2p) p.px.push_back(mbps);
                } else {
                    if (edge_only) p.ey.push_back(mbps);
                    if (mostly_p2p) p.py.push_back(mbps);
                }
            }
        },
        [](SpeedPartial& a, SpeedPartial&& b) {
            a.ex.insert(a.ex.end(), b.ex.begin(), b.ex.end());
            a.px.insert(a.px.end(), b.px.begin(), b.px.end());
            a.ey.insert(a.ey.end(), b.ey.begin(), b.ey.end());
            a.py.insert(a.py.end(), b.py.begin(), b.py.end());
        });
    out.edge_only_x = Cdf(std::move(speeds.ex));
    out.p2p_x = Cdf(std::move(speeds.px));
    out.edge_only_y = Cdf(std::move(speeds.ey));
    out.p2p_y = Cdf(std::move(speeds.py));
    return out;
}

// --- Fig 5 ---------------------------------------------------------------------

EfficiencyVsCopies efficiency_vs_copies(const trace::TraceLog& log, int bins) {
    // Copies per object = distinct registering peers in the DN log.
    using CopiesMap = std::unordered_map<ObjectId, std::unordered_set<Guid>>;
    const auto& registrations = log.registrations();
    CopiesMap copies = parallel::parallel_reduce<CopiesMap>(
        registrations.size(),
        [&](CopiesMap& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                p[registrations[i].object].insert(registrations[i].guid);
        },
        [](CopiesMap& a, CopiesMap&& b) {
            for (auto& [object, who] : b) a[object].merge(who);
        });

    // Mean peer efficiency per object over completed peer-assisted downloads.
    using EffMap = std::unordered_map<ObjectId, std::pair<double, int>>;
    const auto& downloads = log.downloads();
    const EffMap eff = parallel::parallel_reduce<EffMap>(
        downloads.size(),
        [&](EffMap& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                if (!d.p2p_enabled || d.outcome != trace::DownloadOutcome::completed) continue;
                auto& [sum, n] = p[d.object];
                sum += d.peer_efficiency();
                ++n;
            }
        },
        [](EffMap& a, EffMap&& b) {
            for (const auto& [object, e] : b) {
                auto& dst = a[object];
                dst.first += e.first;
                dst.second += e.second;
            }
        });

    double max_copies = 1.0;
    for (const auto& [object, who] : copies)
        max_copies = std::max(max_copies, static_cast<double>(who.size()));

    std::vector<std::vector<double>> grouped(static_cast<std::size_t>(bins));
    for (const auto& [object, e] : eff) {
        if (e.second == 0) continue;
        const auto cit = copies.find(object);
        const double c = cit == copies.end() ? 1.0 : static_cast<double>(cit->second.size());
        const int b = log_bin(std::max(1.0, c), 1.0, max_copies + 1.0, bins);
        grouped[static_cast<std::size_t>(b)].push_back(e.first / e.second);
    }

    EfficiencyVsCopies out;
    const auto edges = log_edges(1.0, max_copies + 1.0, bins);
    for (int b = 0; b < bins; ++b) {
        const auto& xs = grouped[static_cast<std::size_t>(b)];
        if (xs.empty()) continue;
        EfficiencyVsCopies::Bin bin;
        bin.copies_lo = edges[static_cast<std::size_t>(b)];
        bin.copies_hi = edges[static_cast<std::size_t>(b) + 1];
        bin.mean = mean_of(xs);
        bin.p20 = percentile(xs, 20);
        bin.p80 = percentile(xs, 80);
        bin.objects = static_cast<int>(xs.size());
        out.bins.push_back(bin);
    }
    return out;
}

// --- Fig 6 ---------------------------------------------------------------------

EfficiencyVsPeers efficiency_vs_peers_returned(const trace::TraceLog& log, int max_peers) {
    EfficiencyVsPeers out;
    const auto groups = static_cast<std::size_t>(max_peers) + 1;
    const auto& downloads = log.downloads();
    struct PeerPartial {
        std::vector<double> sums;
        std::vector<int> counts;
    };
    auto agg = parallel::parallel_reduce<PeerPartial>(
        downloads.size(),
        [&](PeerPartial& p, std::size_t lo, std::size_t hi) {
            p.sums.assign(groups, 0.0);
            p.counts.assign(groups, 0);
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                if (!d.p2p_enabled || d.outcome != trace::DownloadOutcome::completed) continue;
                const auto k = static_cast<std::size_t>(
                    std::clamp(d.peers_initially_returned, 0, max_peers));
                p.sums[k] += d.peer_efficiency();
                p.counts[k] += 1;
            }
        },
        [](PeerPartial& a, PeerPartial&& b) {
            for (std::size_t k = 0; k < a.sums.size(); ++k) {
                a.sums[k] += b.sums[k];
                a.counts[k] += b.counts[k];
            }
        });
    if (agg.sums.empty()) {
        agg.sums.assign(groups, 0.0);
        agg.counts.assign(groups, 0);
    }
    out.groups.assign(groups, {});
    for (std::size_t k = 0; k < groups; ++k) {
        out.groups[k].downloads = agg.counts[k];
        if (agg.counts[k] > 0) out.groups[k].mean_efficiency = agg.sums[k] / agg.counts[k];
    }
    return out;
}

// --- outcomes + Fig 7 -------------------------------------------------------------

OutcomeStats outcome_stats(const trace::TraceLog& log) {
    struct OutcomePartial {
        OutcomeStats::Class all, infra_only, peer_assisted;
        std::array<std::array<std::int64_t, 4>, 3> downloads_by_size{};
        std::array<std::array<std::int64_t, 4>, 3> aborted_by_size{};
    };

    const auto accumulate = [](OutcomeStats::Class& c, const trace::DownloadRecord& d) {
        ++c.n;
        switch (d.outcome) {
            case trace::DownloadOutcome::completed: c.completed += 1; break;
            case trace::DownloadOutcome::failed_system: c.failed_system += 1; break;
            case trace::DownloadOutcome::failed_other: c.failed_other += 1; break;
            case trace::DownloadOutcome::aborted_by_user: c.aborted += 1; break;
            case trace::DownloadOutcome::in_progress: break;
        }
    };
    const auto merge_class = [](OutcomeStats::Class& a, const OutcomeStats::Class& b) {
        a.n += b.n;
        a.completed += b.completed;
        a.failed_system += b.failed_system;
        a.failed_other += b.failed_other;
        a.aborted += b.aborted;
    };

    const auto& downloads = log.downloads();
    const auto agg = parallel::parallel_reduce<OutcomePartial>(
        downloads.size(),
        [&](OutcomePartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                if (d.outcome == trace::DownloadOutcome::in_progress) continue;
                accumulate(p.all, d);
                accumulate(d.p2p_enabled ? p.peer_assisted : p.infra_only, d);
                const int bucket = size_bucket(d.object_size);
                const int cls = d.p2p_enabled ? 1 : 0;
                for (const int c : {cls, 2}) {
                    p.downloads_by_size[static_cast<std::size_t>(c)]
                                       [static_cast<std::size_t>(bucket)] += 1;
                    if (d.outcome == trace::DownloadOutcome::aborted_by_user)
                        p.aborted_by_size[static_cast<std::size_t>(c)]
                                         [static_cast<std::size_t>(bucket)] += 1;
                }
            }
        },
        [&](OutcomePartial& a, OutcomePartial&& b) {
            merge_class(a.all, b.all);
            merge_class(a.infra_only, b.infra_only);
            merge_class(a.peer_assisted, b.peer_assisted);
            for (std::size_t c = 0; c < 3; ++c)
                for (std::size_t s = 0; s < 4; ++s) {
                    a.downloads_by_size[c][s] += b.downloads_by_size[c][s];
                    a.aborted_by_size[c][s] += b.aborted_by_size[c][s];
                }
        });

    OutcomeStats out;
    out.all = agg.all;
    out.infra_only = agg.infra_only;
    out.peer_assisted = agg.peer_assisted;
    out.downloads_by_size = agg.downloads_by_size;

    const auto finalize = [](OutcomeStats::Class& c) {
        if (c.n == 0) return;
        const auto n = static_cast<double>(c.n);
        c.completed /= n;
        c.failed_system /= n;
        c.failed_other /= n;
        c.aborted /= n;
    };
    finalize(out.all);
    finalize(out.infra_only);
    finalize(out.peer_assisted);

    for (std::size_t c = 0; c < 3; ++c)
        for (std::size_t b = 0; b < 4; ++b)
            out.pause_rate_by_size[c][b] =
                out.downloads_by_size[c][b] == 0
                    ? 0.0
                    : static_cast<double>(agg.aborted_by_size[c][b]) /
                          static_cast<double>(out.downloads_by_size[c][b]);
    return out;
}

// --- Fig 8 ---------------------------------------------------------------------

std::vector<CountryCoverage> coverage_by_country(const trace::TraceLog& log,
                                                 const LoginIndex& logins,
                                                 const net::GeoDatabase& geodb, CpCode provider) {
    using CountryBytes = std::unordered_map<std::uint16_t, std::pair<Bytes, Bytes>>;
    const auto& downloads = log.downloads();
    const CountryBytes per_country = parallel::parallel_reduce<CountryBytes>(  // infra, peers
        downloads.size(),
        [&](CountryBytes& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                if (d.cp_code != provider || d.outcome != trace::DownloadOutcome::completed)
                    continue;
                const auto geo = logins.locate(d.guid, d.start, geodb);
                if (!geo) continue;
                auto& [infra, peers] = p[geo->location.country.value];
                infra += d.bytes_from_infrastructure;
                peers += d.bytes_from_peers;
            }
        },
        [](CountryBytes& a, CountryBytes&& b) {
            for (const auto& [country, bytes] : b) {
                a[country].first += bytes.first;
                a[country].second += bytes.second;
            }
        });
    std::vector<CountryCoverage> out;
    out.reserve(per_country.size());
    for (const auto& [country, bytes] : per_country) {
        CountryCoverage c;
        c.country = CountryId{country};
        c.infra_bytes = bytes.first;
        c.peer_bytes = bytes.second;
        if (bytes.second <= 0 || bytes.first > bytes.second)
            c.cls = 0;
        else if (static_cast<double>(bytes.first) >= 0.5 * static_cast<double>(bytes.second))
            c.cls = 1;
        else
            c.cls = 2;
        out.push_back(c);
    }
    std::sort(out.begin(), out.end(), [](const CountryCoverage& a, const CountryCoverage& b) {
        return a.infra_bytes + a.peer_bytes > b.infra_bytes + b.peer_bytes;
    });
    return out;
}

// --- traffic balance ---------------------------------------------------------------

TrafficBalance traffic_balance(const trace::TraceLog& log, const net::GeoDatabase& geodb,
                               const net::AsGraph* graph) {
    TrafficBalance out;

    // Every AS that shows up in logins is part of the universe, even if it
    // never sent a byte ("roughly half of the ASes did not send any inter-AS
    // bytes at all").
    using IpsPerAs = std::unordered_map<std::uint32_t, std::unordered_set<net::IpAddr>>;
    const auto& logins = log.logins();
    IpsPerAs ips_per_as = parallel::parallel_reduce<IpsPerAs>(
        logins.size(),
        [&](IpsPerAs& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto geo = geodb.lookup(logins[i].ip);
                if (!geo) continue;
                p[geo->asn.value].insert(logins[i].ip);
            }
        },
        [](IpsPerAs& a, IpsPerAs&& b) {
            for (auto& [asn, ips] : b) a[asn].merge(ips);
        });

    struct FlowPartial {
        Bytes total = 0, intra = 0, inter = 0;
        std::unordered_map<std::uint32_t, TrafficBalance::AsFlow> flows;
        std::unordered_map<std::uint64_t, Bytes> pair_bytes;  // (from<<32|to) inter-AS only
    };
    const auto& transfers = log.transfers();
    auto flow = parallel::parallel_reduce<FlowPartial>(
        transfers.size(),
        [&](FlowPartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& t = transfers[i];
                const auto from = geodb.lookup(t.from_ip);
                const auto to = geodb.lookup(t.to_ip);
                if (!from || !to) continue;
                p.total += t.bytes;
                if (from->asn == to->asn) {
                    p.intra += t.bytes;
                    continue;
                }
                p.inter += t.bytes;
                p.flows[from->asn.value].sent += t.bytes;
                p.flows[to->asn.value].received += t.bytes;
                p.pair_bytes[(static_cast<std::uint64_t>(from->asn.value) << 32) |
                             to->asn.value] += t.bytes;
            }
        },
        [](FlowPartial& a, FlowPartial&& b) {
            a.total += b.total;
            a.intra += b.intra;
            a.inter += b.inter;
            for (const auto& [asn, f] : b.flows) {
                a.flows[asn].sent += f.sent;
                a.flows[asn].received += f.received;
            }
            for (const auto& [key, bytes] : b.pair_bytes) a.pair_bytes[key] += bytes;
        });
    out.total_p2p_bytes = flow.total;
    out.intra_as_bytes = flow.intra;
    out.inter_as_bytes = flow.inter;
    auto& flows = flow.flows;
    const auto& pair_bytes = flow.pair_bytes;
    for (const auto& [asn, ips] : ips_per_as) flows.try_emplace(asn);

    out.ases.reserve(flows.size());
    for (auto& [asn, f] : flows) {
        f.asn = asn;
        const auto it = ips_per_as.find(asn);
        f.ips_observed = it == ips_per_as.end() ? 0 : static_cast<std::int64_t>(it->second.size());
        out.ases.push_back(f);
    }
    std::sort(out.ases.begin(), out.ases.end(),
              [](const TrafficBalance::AsFlow& a, const TrafficBalance::AsFlow& b) {
                  return a.sent > b.sent;
              });
    out.ases_with_traffic = 0;
    for (const auto& f : out.ases)
        if (f.sent > 0 || f.received > 0) ++out.ases_with_traffic;

    // Heavy uploaders: the smallest top set responsible for 90% of inter-AS
    // upload bytes.
    Bytes acc = 0;
    std::unordered_set<std::uint32_t> heavy;
    for (auto& f : out.ases) {
        if (out.inter_as_bytes > 0 &&
            static_cast<double>(acc) < 0.9 * static_cast<double>(out.inter_as_bytes) &&
            f.sent > 0) {
            f.heavy = true;
            heavy.insert(f.asn);
            acc += f.sent;
        }
    }
    out.heavy_count = heavy.size();

    // p98 of per-AS upload volume and the bottom-98% share.
    if (!out.ases.empty()) {
        std::vector<Bytes> sent_sorted;
        sent_sorted.reserve(out.ases.size());
        for (const auto& f : out.ases) sent_sorted.push_back(f.sent);
        std::sort(sent_sorted.begin(), sent_sorted.end());
        const auto idx = static_cast<std::size_t>(0.98 * static_cast<double>(sent_sorted.size()));
        out.p98_upload = sent_sorted[std::min(idx, sent_sorted.size() - 1)];
        Bytes bottom = 0;
        for (std::size_t i = 0; i <= std::min(idx, sent_sorted.size() - 1); ++i)
            bottom += sent_sorted[i];
        out.bottom98_share = out.inter_as_bytes == 0
                                 ? 0.0
                                 : static_cast<double>(bottom) /
                                       static_cast<double>(out.inter_as_bytes);
    }

    // Pairwise balance among heavy uploaders (Fig 11) and the direct-link
    // share estimate (§6.1).
    Bytes heavy_total = 0;
    Bytes heavy_direct = 0;
    std::unordered_set<std::uint64_t> seen;
    for (const auto& [key, bytes] : pair_bytes) {
        const auto a = static_cast<std::uint32_t>(key >> 32);
        const auto b = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
        if (!heavy.contains(a) || !heavy.contains(b)) continue;
        heavy_total += bytes;
        const bool direct = graph != nullptr && graph->directly_connected(Asn{a}, Asn{b});
        if (direct) heavy_direct += bytes;
        const std::uint64_t canonical =
            a < b ? (static_cast<std::uint64_t>(a) << 32) | b
                  : (static_cast<std::uint64_t>(b) << 32) | a;
        if (!seen.insert(canonical).second) continue;
        if (!direct) continue;  // Fig 11 plots directly-connected pairs
        const auto fwd_it = pair_bytes.find((static_cast<std::uint64_t>(a) << 32) | b);
        const auto rev_it = pair_bytes.find((static_cast<std::uint64_t>(b) << 32) | a);
        out.heavy_pairs.emplace_back(a, b, fwd_it == pair_bytes.end() ? 0 : fwd_it->second,
                                     rev_it == pair_bytes.end() ? 0 : rev_it->second);
    }
    out.heavy_direct_share = heavy_total == 0 ? 0.0
                                              : static_cast<double>(heavy_direct) /
                                                    static_cast<double>(heavy_total);
    return out;
}

// --- mobility ---------------------------------------------------------------------

MobilityStats mobility_stats(const trace::TraceLog& log, const LoginIndex& logins,
                             const net::GeoDatabase& geodb) {
    MobilityStats out;
    struct TimeSpan {
        sim::SimTime lo{std::numeric_limits<std::int64_t>::max()};
        sim::SimTime hi{0};
    };
    const auto& login_log = log.logins();
    const auto span = parallel::parallel_reduce<TimeSpan>(
        login_log.size(),
        [&](TimeSpan& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                p.lo = std::min(p.lo, login_log[i].time);
                p.hi = std::max(p.hi, login_log[i].time);
            }
        },
        [](TimeSpan& a, TimeSpan&& b) {
            a.lo = std::min(a.lo, b.lo);
            a.hi = std::max(a.hi, b.hi);
        });

    const auto histories = logins.history_snapshot();
    struct MobilityPartial {
        std::int64_t guids = 0, single = 0, two = 0, more = 0, within10 = 0;
    };
    const auto agg = parallel::parallel_reduce<MobilityPartial>(
        histories.size(),
        [&](MobilityPartial& p, std::size_t lo, std::size_t hi) {
            std::vector<std::uint32_t> ases;
            std::vector<net::GeoPoint> points;
            for (std::size_t g = lo; g < hi; ++g) {
                const auto& history = *histories[g];
                if (history.empty()) continue;
                ++p.guids;
                ases.clear();
                points.clear();
                for (const auto* l : history) {
                    const auto geo = geodb.lookup(l->ip);
                    if (!geo) continue;
                    ases.push_back(geo->asn.value);
                    points.push_back(geo->location.point);
                }
                std::sort(ases.begin(), ases.end());
                const auto distinct_ases = std::unique(ases.begin(), ases.end()) - ases.begin();
                if (distinct_ases <= 1)
                    ++p.single;
                else if (distinct_ases == 2)
                    ++p.two;
                else
                    ++p.more;
                double max_km = 0.0;
                for (std::size_t i = 0; i < points.size(); ++i)
                    for (std::size_t j = i + 1; j < points.size(); ++j)
                        max_km = std::max(max_km, net::haversine_km(points[i], points[j]));
                if (max_km <= 10.0) ++p.within10;
            }
        },
        [](MobilityPartial& a, MobilityPartial&& b) {
            a.guids += b.guids;
            a.single += b.single;
            a.two += b.two;
            a.more += b.more;
            a.within10 += b.within10;
        });
    out.guids = agg.guids;
    if (out.guids > 0) {
        const auto n = static_cast<double>(out.guids);
        out.frac_single_as = static_cast<double>(agg.single) / n;
        out.frac_two_as = static_cast<double>(agg.two) / n;
        out.frac_more_as = static_cast<double>(agg.more) / n;
        out.frac_within_10km = static_cast<double>(agg.within10) / n;
    }
    const double minutes = std::max(1.0, (span.hi - span.lo).seconds() / 60.0);
    out.new_connections_per_minute = static_cast<double>(log.logins().size()) / minutes;
    return out;
}

// --- headline ----------------------------------------------------------------------

HeadlineOffload headline_offload(const trace::TraceLog& log) {
    HeadlineOffload out;
    struct HeadlinePartial {
        std::unordered_set<std::uint64_t> files, p2p_files;
        Bytes all_bytes = 0, p2p_file_bytes = 0, p2p_peer_bytes = 0, p2p_total_bytes = 0;
        double eff_sum = 0;
        std::int64_t eff_n = 0;
    };
    const auto& downloads = log.downloads();
    auto agg = parallel::parallel_reduce<HeadlinePartial>(
        downloads.size(),
        [&](HeadlinePartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& d = downloads[i];
                p.files.insert(d.url_hash);
                p.all_bytes += d.total_bytes();
                if (!d.p2p_enabled) continue;
                p.p2p_files.insert(d.url_hash);
                p.p2p_file_bytes += d.total_bytes();
                p.p2p_peer_bytes += d.bytes_from_peers;
                p.p2p_total_bytes += d.total_bytes();
                if (d.outcome == trace::DownloadOutcome::completed) {
                    p.eff_sum += d.peer_efficiency();
                    ++p.eff_n;
                }
            }
        },
        [](HeadlinePartial& a, HeadlinePartial&& b) {
            a.files.merge(b.files);
            a.p2p_files.merge(b.p2p_files);
            a.all_bytes += b.all_bytes;
            a.p2p_file_bytes += b.p2p_file_bytes;
            a.p2p_peer_bytes += b.p2p_peer_bytes;
            a.p2p_total_bytes += b.p2p_total_bytes;
            a.eff_sum += b.eff_sum;
            a.eff_n += b.eff_n;
        });
    out.p2p_enabled_file_fraction =
        agg.files.empty() ? 0.0
                          : static_cast<double>(agg.p2p_files.size()) /
                                static_cast<double>(agg.files.size());
    out.p2p_enabled_byte_fraction =
        agg.all_bytes == 0 ? 0.0
                           : static_cast<double>(agg.p2p_file_bytes) /
                                 static_cast<double>(agg.all_bytes);
    out.mean_peer_efficiency = agg.eff_n == 0 ? 0.0 : agg.eff_sum / static_cast<double>(agg.eff_n);
    out.overall_offload = agg.p2p_total_bytes == 0
                              ? 0.0
                              : static_cast<double>(agg.p2p_peer_bytes) /
                                    static_cast<double>(agg.p2p_total_bytes);
    return out;
}

// --- degradation -------------------------------------------------------------------

DegradationStats degradation_stats(const trace::TraceLog& log) {
    struct DegradationPartial {
        DegradationStats s;
        std::unordered_set<Guid> clients;
    };
    const auto& degradations = log.degradations();
    auto agg = parallel::parallel_reduce<DegradationPartial>(
        degradations.size(),
        [&](DegradationPartial& p, std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto& r = degradations[i];
                // A remap record documents *how* an edge-stall incident was
                // handled, not a second incident; only its own counter sees it
                // (see the DegradationStats::total doc comment).
                if (r.kind != trace::DegradationKind::edge_remapped) ++p.s.total;
                p.clients.insert(r.guid);
                switch (r.kind) {
                    case trace::DegradationKind::edge_stall: ++p.s.edge_stalls; break;
                    case trace::DegradationKind::edge_remapped: ++p.s.edge_remaps; break;
                    case trace::DegradationKind::peer_stall: ++p.s.peer_stalls; break;
                    case trace::DegradationKind::source_blacklisted:
                        ++p.s.sources_blacklisted;
                        break;
                    case trace::DegradationKind::query_timeout: ++p.s.query_timeouts; break;
                    case trace::DegradationKind::login_timeout: ++p.s.login_timeouts; break;
                    case trace::DegradationKind::stun_timeout: ++p.s.stun_timeouts; break;
                }
            }
        },
        [](DegradationPartial& a, DegradationPartial&& b) {
            a.s.total += b.s.total;
            a.s.edge_stalls += b.s.edge_stalls;
            a.s.edge_remaps += b.s.edge_remaps;
            a.s.peer_stalls += b.s.peer_stalls;
            a.s.sources_blacklisted += b.s.sources_blacklisted;
            a.s.query_timeouts += b.s.query_timeouts;
            a.s.login_timeouts += b.s.login_timeouts;
            a.s.stun_timeouts += b.s.stun_timeouts;
            a.clients.merge(b.clients);
        });
    DegradationStats out = agg.s;
    out.affected_clients = static_cast<std::int64_t>(agg.clients.size());
    return out;
}

}  // namespace netsession::analysis
