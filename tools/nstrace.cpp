// nstrace — inspect and export NetSession trace data sets (.nstrace files
// written by trace::save_dataset; the bench cache produces them too).
//
//   nstrace summary   <file>            overall statistics (Table 1 style)
//   nstrace headline  <file>            §5.1 offload numbers
//   nstrace providers <file>            per-provider downloads/bytes
//   nstrace objects   <file> [n]        top-n objects by downloads
//   nstrace outcomes  <file>            §5.2 outcome breakdown
//   nstrace faults    <file>            §3.8 degradation telemetry counters
//   nstrace recovery  <file>            per-fault onset/restore/time-to-recover (v8 timeline)
//   nstrace metrics   <file> [series]   v6 metric time-series (sampler output)
//   nstrace guids     <file>            Fig 12 secondary-GUID graph patterns
//   nstrace tsv       <file> <out.tsv>  dump the download log as TSV
//   nstrace export    <file> <dir>      write plot-ready figure data + gnuplot script
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "analysis/export.hpp"
#include "analysis/guid_graph.hpp"
#include "analysis/measurement.hpp"
#include "analysis/recovery.hpp"
#include "analysis/table.hpp"
#include "common/format.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace netsession;

int usage() {
    std::fprintf(stderr,
                 "usage: nstrace <summary|headline|providers|objects|outcomes|faults|recovery|"
                 "metrics|guids|tsv|export> <file> [args]\n");
    return 2;
}

void cmd_summary(const trace::Dataset& dataset) {
    const auto stats = analysis::overall_stats(dataset.log, dataset.geodb);
    analysis::TextTable table({"Statistic", "Value"});
    table.add_row({"Log entries", format_count(static_cast<std::int64_t>(stats.log_entries))});
    table.add_row({"GUIDs", format_count(static_cast<std::int64_t>(stats.guids))});
    table.add_row({"Distinct URLs", format_count(static_cast<std::int64_t>(stats.distinct_urls))});
    table.add_row({"Distinct IPs", format_count(static_cast<std::int64_t>(stats.distinct_ips))});
    table.add_row(
        {"Downloads initiated", format_count(static_cast<std::int64_t>(stats.downloads_initiated))});
    table.add_row(
        {"Distinct locations", format_count(static_cast<std::int64_t>(stats.distinct_locations))});
    table.add_row({"Distinct ASes", format_count(static_cast<std::int64_t>(stats.distinct_ases))});
    table.add_row(
        {"Distinct countries", format_count(static_cast<std::int64_t>(stats.distinct_countries))});
    std::printf("%s", table.render().c_str());
}

void cmd_headline(const trace::Dataset& dataset) {
    const auto h = analysis::headline_offload(dataset.log);
    std::printf("p2p-enabled files:          %s\n",
                format_percent(h.p2p_enabled_file_fraction).c_str());
    std::printf("bytes in p2p-enabled files: %s\n",
                format_percent(h.p2p_enabled_byte_fraction).c_str());
    std::printf("mean peer efficiency:       %s\n",
                format_percent(h.mean_peer_efficiency).c_str());
    std::printf("byte offload to peers:      %s\n", format_percent(h.overall_offload).c_str());
}

void cmd_faults(const trace::Dataset& dataset) {
    const auto d = analysis::degradation_stats(dataset.log);
    analysis::TextTable table({"Degradation", "Count"});
    table.add_row({"Edge stalls", format_count(d.edge_stalls)});
    table.add_row({"Edge re-maps", format_count(d.edge_remaps)});
    table.add_row({"Peer stalls", format_count(d.peer_stalls)});
    table.add_row({"Sources blacklisted", format_count(d.sources_blacklisted)});
    table.add_row({"Query timeouts", format_count(d.query_timeouts)});
    table.add_row({"Login timeouts", format_count(d.login_timeouts)});
    table.add_row({"STUN timeouts", format_count(d.stun_timeouts)});
    // Incidents, not records: a re-map rides on its stall record and is not
    // counted again (see analysis::DegradationStats::total).
    table.add_row({"Total incidents", format_count(d.total)});
    table.add_row({"Affected clients", format_count(d.affected_clients)});
    std::printf("%s", table.render().c_str());
}

void cmd_recovery(const trace::Dataset& dataset) {
    const auto report = analysis::recovery_report(dataset.log);
    if (report.faults.empty()) {
        std::printf("no fault timeline in this trace (pre-v8 data or an undisturbed run)\n");
        return;
    }
    const auto hours = [](sim::SimTime t) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f", t.seconds() / 3600.0);
        return std::string(buf);
    };
    const auto ttr = [](double h) {
        if (h < 0.0) return std::string("never");
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", h);
        return std::string(buf);
    };
    analysis::TextTable table({"#", "Fault", "Onset(h)", "Restore(h)", "TTR(h)", "Min delivery",
                               "Degradations", "Blacklist"});
    for (const auto& f : report.faults) {
        if (!f.evaluable) {
            table.add_row({format_count(f.index), std::string(analysis::to_string(f.kind)),
                           hours(f.onset), "-", "-", "-", "-", "-"});
            continue;
        }
        table.add_row({format_count(f.index), std::string(analysis::to_string(f.kind)),
                       hours(f.onset), hours(f.restore), ttr(f.recover_hours),
                       format_percent(f.min_delivery_during), format_count(f.degradations),
                       format_count(f.blacklist_churn)});
    }
    std::printf("%s", table.render().c_str());
    for (const auto& f : report.faults) {
        if (f.evaluable && f.kind == analysis::TracedFaultKind::cn_outage &&
            f.login_drain_hours >= 0.0)
            std::printf("fault #%u: re-login storm drained %.1f h after CN restore\n", f.index,
                        f.login_drain_hours);
        if (f.evaluable && f.kind == analysis::TracedFaultKind::dn_outage &&
            f.readd_drain_hours >= 0.0)
            std::printf("fault #%u: RE-ADD fan-out drained %.1f h after DN restore\n", f.index,
                        f.readd_drain_hours);
    }
    std::printf("%s; worst time-to-recover %.1f h\n",
                report.all_recovered ? "all evaluable faults recovered"
                                     : "NOT all faults recovered within the horizon",
                report.worst_recover_hours);
}

void cmd_metrics(const trace::Dataset& dataset, const char* series) {
    const auto& names = dataset.log.metric_names();
    const auto& points = dataset.log.metric_points();
    if (names.empty() || points.empty()) {
        std::printf("no metric samples in this trace (pre-v6 data)\n");
        return;
    }
    if (series != nullptr) {
        // Dump one series as "hours<TAB>value" rows (plot-ready).
        std::uint32_t id = 0;
        bool found = false;
        for (std::uint32_t i = 0; i < names.size(); ++i)
            if (names[i] == series) {
                id = i;
                found = true;
                break;
            }
        if (!found) {
            std::fprintf(stderr, "nstrace: no metric series named '%s'\n", series);
            return;
        }
        std::printf("# hours\t%s\n", series);
        for (const auto& p : points)
            if (p.metric == id) std::printf("%.3f\t%.17g\n", p.time.seconds() / 3600.0, p.value);
        return;
    }
    // Per-series summary over the whole time range.
    struct Agg {
        std::int64_t n = 0;
        double first = 0, last = 0, min = 0, max = 0;
    };
    std::vector<Agg> aggs(names.size());
    for (const auto& p : points) {
        Agg& a = aggs[p.metric];
        if (a.n == 0) {
            a.first = a.min = a.max = p.value;
        } else {
            a.min = std::min(a.min, p.value);
            a.max = std::max(a.max, p.value);
        }
        a.last = p.value;
        ++a.n;
    }
    analysis::TextTable table({"Series", "Samples", "First", "Last", "Min", "Max"});
    const auto fmt = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return std::string(buf);
    };
    for (std::size_t i = 0; i < names.size(); ++i) {
        const Agg& a = aggs[i];
        if (a.n == 0) continue;
        table.add_row({names[i], format_count(a.n), fmt(a.first), fmt(a.last), fmt(a.min),
                       fmt(a.max)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("(use `nstrace metrics <file> <series>` to dump one series)\n");
}

void cmd_providers(const trace::Dataset& dataset) {
    struct Row {
        std::int64_t downloads = 0;
        Bytes infra = 0, peers = 0;
    };
    std::map<std::uint32_t, Row> rows;
    for (const auto& d : dataset.log.downloads()) {
        Row& r = rows[d.cp_code.value];
        ++r.downloads;
        r.infra += d.bytes_from_infrastructure;
        r.peers += d.bytes_from_peers;
    }
    analysis::TextTable table({"CP code", "Downloads", "Infra bytes", "Peer bytes", "Offload"});
    for (const auto& [cp, r] : rows) {
        const Bytes total = r.infra + r.peers;
        table.add_row({format_count(cp), format_count(r.downloads), format_bytes(r.infra),
                       format_bytes(r.peers),
                       total == 0 ? "-"
                                  : format_percent(static_cast<double>(r.peers) /
                                                   static_cast<double>(total))});
    }
    std::printf("%s", table.render().c_str());
}

void cmd_objects(const trace::Dataset& dataset, int top) {
    struct Row {
        std::int64_t downloads = 0;
        Bytes size = 0, peers = 0, total = 0;
        bool p2p = false;
    };
    std::map<std::uint64_t, Row> rows;
    for (const auto& d : dataset.log.downloads()) {
        Row& r = rows[d.url_hash];
        ++r.downloads;
        r.size = d.object_size;
        r.peers += d.bytes_from_peers;
        r.total += d.total_bytes();
        r.p2p |= d.p2p_enabled;
    }
    std::vector<std::pair<std::int64_t, std::uint64_t>> ranked;
    for (const auto& [url, r] : rows) ranked.emplace_back(r.downloads, url);
    std::sort(ranked.rbegin(), ranked.rend());
    analysis::TextTable table({"URL hash", "Downloads", "Size", "p2p", "Peer share"});
    int shown = 0;
    for (const auto& [n, url] : ranked) {
        if (shown++ >= top) break;
        const Row& r = rows[url];
        char hex[24];
        std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(url));
        table.add_row({hex, format_count(n), format_bytes(r.size), r.p2p ? "yes" : "no",
                       r.total == 0 ? "-"
                                    : format_percent(static_cast<double>(r.peers) /
                                                     static_cast<double>(r.total))});
    }
    std::printf("%s", table.render().c_str());
}

void cmd_outcomes(const trace::Dataset& dataset) {
    const auto stats = analysis::outcome_stats(dataset.log);
    analysis::TextTable table(
        {"Class", "n", "Completed", "Failed(sys)", "Failed(other)", "Aborted"});
    const auto add = [&](const char* name, const analysis::OutcomeStats::Class& c) {
        table.add_row({name, format_count(c.n), format_percent(c.completed),
                       format_percent(c.failed_system), format_percent(c.failed_other),
                       format_percent(c.aborted)});
    };
    add("Infrastructure-only", stats.infra_only);
    add("Peer-assisted", stats.peer_assisted);
    add("All", stats.all);
    std::printf("%s", table.render().c_str());
}

void cmd_guids(const trace::Dataset& dataset) {
    const auto stats = analysis::classify_guid_graphs(dataset.log);
    std::printf("graphs (>=3 vertices): %s\n", format_count(stats.graphs).c_str());
    std::printf("linear chains:         %s (%s)\n", format_count(stats.linear_chains).c_str(),
                format_percent(stats.linear_fraction()).c_str());
    std::printf("long + short branch:   %s\n", format_count(stats.long_plus_short).c_str());
    std::printf("two long branches:     %s\n", format_count(stats.two_long_branches).c_str());
    std::printf("several branches:      %s\n", format_count(stats.several_branches).c_str());
    std::printf("irregular:             %s\n", format_count(stats.irregular).c_str());
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string command = argv[1];
    const std::string path = argv[2];

    trace::Dataset dataset;
    if (!trace::load_dataset(dataset, path)) {
        std::fprintf(stderr, "nstrace: cannot load '%s' (missing, corrupt, or wrong version)\n",
                     path.c_str());
        return 1;
    }

    if (command == "summary") {
        cmd_summary(dataset);
    } else if (command == "headline") {
        cmd_headline(dataset);
    } else if (command == "providers") {
        cmd_providers(dataset);
    } else if (command == "objects") {
        cmd_objects(dataset, argc > 3 ? std::atoi(argv[3]) : 20);
    } else if (command == "outcomes") {
        cmd_outcomes(dataset);
    } else if (command == "faults") {
        cmd_faults(dataset);
    } else if (command == "recovery") {
        cmd_recovery(dataset);
    } else if (command == "metrics") {
        cmd_metrics(dataset, argc > 3 ? argv[3] : nullptr);
    } else if (command == "guids") {
        cmd_guids(dataset);
    } else if (command == "tsv") {
        if (argc < 4) return usage();
        const auto rows = dataset.log.write_downloads_tsv(argv[3]);
        std::printf("wrote %zu download rows to %s\n", rows, argv[3]);
    } else if (command == "export") {
        if (argc < 4) return usage();
        const auto files = analysis::export_figure_data(dataset, nullptr, argv[3]);
        if (files == 0) {
            std::fprintf(stderr, "nstrace: export failed\n");
            return 1;
        }
        std::printf("wrote %zu figure files to %s (render with: gnuplot plot_all.gp)\n", files,
                    argv[3]);
    } else {
        return usage();
    }
    return 0;
}
