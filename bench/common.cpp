#include "bench/common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <filesystem>

#include "analysis/measurement.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/recovery.hpp"
#include "common/parallel.hpp"
#include "core/scenario_io.hpp"
#include "fault/campaign.hpp"
#include "obs/export.hpp"
#include "obs/process_memory.hpp"

namespace netsession::bench {

namespace {
double env_double(const char* name, double fallback) {
    const char* v = std::getenv(name);
    return v == nullptr ? fallback : std::atof(v);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The "analysis" headline section: full-pipeline wall clock at the
/// configured thread count vs forced single-thread (with the fingerprint
/// equality check that guards the determinism contract), cached-dataset load
/// time on the mmap path vs the buffered fallback, and the parallel
/// runtime's counters. This is where the ISSUE's >=3x pipeline / >=2x load
/// acceptance numbers get recorded.
std::string analysis_section_json(const trace::Dataset& dataset, const char* cache_path) {
    const int threads = parallel::thread_count();

    auto t0 = std::chrono::steady_clock::now();
    const analysis::PipelineResult parallel_result = analysis::run_full_pipeline(dataset);
    const double pipeline_seconds = seconds_since(t0);
    const std::uint64_t parallel_fp = analysis::fingerprint(parallel_result);

    parallel::set_thread_count(1);
    t0 = std::chrono::steady_clock::now();
    const analysis::PipelineResult serial_result = analysis::run_full_pipeline(dataset);
    const double serial_seconds = seconds_since(t0);
    const std::uint64_t serial_fp = analysis::fingerprint(serial_result);
    parallel::set_thread_count(threads);

    double load_mmap_seconds = 0.0;
    double load_buffered_seconds = 0.0;
    if (cache_path != nullptr) {
        trace::Dataset scratch;
        t0 = std::chrono::steady_clock::now();
        if (trace::load_dataset(scratch, cache_path)) load_mmap_seconds = seconds_since(t0);
        setenv("NS_TRACE_NO_MMAP", "1", 1);
        trace::Dataset scratch2;
        t0 = std::chrono::steady_clock::now();
        if (trace::load_dataset(scratch2, cache_path)) load_buffered_seconds = seconds_since(t0);
        unsetenv("NS_TRACE_NO_MMAP");
    }

    const parallel::StatsSnapshot st = parallel::stats();
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "    \"threads\": %d,\n"
        "    \"pipeline_seconds\": %.3f,\n"
        "    \"pipeline_seconds_1thread\": %.3f,\n"
        "    \"pipeline_speedup\": %.2f,\n"
        "    \"fingerprint\": \"%016llx\",\n"
        "    \"fingerprint_match\": %s,\n"
        "    \"load_seconds_mmap\": %.4f,\n"
        "    \"load_seconds_buffered\": %.4f,\n"
        "    \"load_speedup\": %.2f,\n"
        "    \"parallel\": {\"jobs\": %llu, \"inline_jobs\": %llu, \"chunks\": %llu, "
        "\"chunks_stolen\": %llu, \"merges\": %llu}\n"
        "  }",
        threads, pipeline_seconds, serial_seconds,
        pipeline_seconds > 0.0 ? serial_seconds / pipeline_seconds : 0.0,
        static_cast<unsigned long long>(parallel_fp),
        parallel_fp == serial_fp ? "true" : "false", load_mmap_seconds, load_buffered_seconds,
        load_mmap_seconds > 0.0 ? load_buffered_seconds / load_mmap_seconds : 0.0,
        static_cast<unsigned long long>(st.jobs), static_cast<unsigned long long>(st.inline_jobs),
        static_cast<unsigned long long>(st.chunks),
        static_cast<unsigned long long>(st.chunks_stolen),
        static_cast<unsigned long long>(st.merges));
    return buf;
}

/// The "scale" headline section: a scale LADDER. NS_BENCH_SCALE names one or
/// more scenario files (':'- or ','-separated; tools/ci.sh points it at
/// 40k:200k:1M) and each is run fresh, smallest first, emitting one JSON row
/// per rung: wall-clock, events/sec, peak RSS, amortised bytes-per-peer, the
/// flow-pool footprint, and the hibernation cold store. Peak RSS is a
/// process-wide high-water mark — it never goes down — so rungs must be
/// listed in ascending size for per-rung numbers to be attributable; the
/// runner keeps whatever order the caller gave and records it as-is.
/// Empty string when the env var is unset — the section is omitted.
std::string scale_section_json() {
    const char* spec = std::getenv("NS_BENCH_SCALE");
    if (spec == nullptr) return "";
    std::vector<std::string> scenarios;
    std::string cur;
    for (const char* p = spec;; ++p) {
        if (*p == ':' || *p == ',' || *p == '\0') {
            if (!cur.empty()) scenarios.push_back(cur);
            cur.clear();
            if (*p == '\0') break;
        } else {
            cur += *p;
        }
    }
    if (scenarios.empty()) return "";

    std::string rows;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const std::string& scenario = scenarios[i];
        auto loaded = load_scenario(scenario.c_str());
        if (!loaded) {
            std::fprintf(stderr, "[scenario] NS_BENCH_SCALE: %s\n",
                         loaded.error().message.c_str());
            continue;
        }
        std::printf("[scenario] scale rung %zu/%zu: %s (%d peers)...\n", i + 1,
                    scenarios.size(), scenario.c_str(), loaded.value().peers);
        std::fflush(stdout);
        const int peers = loaded.value().peers;
        const auto t0 = std::chrono::steady_clock::now();
        Simulation sim(std::move(loaded.value()));
        sim.run();
        const double wall_seconds = seconds_since(t0);
        const Simulation::PerfStats perf = sim.perf_stats();
        const obs::ProcessMemory mem = obs::read_process_memory();
        const arena::PoolStats flow_pool = sim.world().flows().pool_stats();
        const peer::ColdStore& cold = sim.registry().cold();
        const double bytes_per_peer =
            peers > 0 ? static_cast<double>(mem.peak_rss_bytes) / peers : 0.0;
        char buf[1024];
        std::snprintf(
            buf, sizeof(buf),
            "%s\n"
            "    {\"scenario\": \"%s\",\n"
            "     \"peers\": %d,\n"
            "     \"wall_seconds\": %.3f,\n"
            "     \"events_dispatched\": %llu,\n"
            "     \"events_per_second\": %.0f,\n"
            "     \"peak_rss_bytes\": %zu,\n"
            "     \"bytes_per_peer\": %.0f,\n"
            "     \"flow_pool\": {\"slots\": %zu, \"peak_live\": %zu, "
            "\"bytes_reserved\": %zu},\n"
            "     \"cold_store\": {\"records\": %zu, \"bytes_live\": %zu, "
            "\"bytes_reserved\": %zu}}",
            rows.empty() ? "" : ",", scenario.c_str(), peers, wall_seconds,
            static_cast<unsigned long long>(perf.sim.dispatched),
            wall_seconds > 0.0 ? static_cast<double>(perf.sim.dispatched) / wall_seconds : 0.0,
            mem.peak_rss_bytes, bytes_per_peer, flow_pool.slots, flow_pool.peak_live,
            flow_pool.bytes_reserved, cold.records(), cold.bytes_live(),
            cold.bytes_reserved());
        rows += buf;
        std::printf(
            "[scenario] scale rung done: %.1fs wall, peak RSS %.0f MiB, %.0f B/peer\n",
            wall_seconds, static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0),
            bytes_per_peer);
    }
    if (rows.empty()) return "";
    return "[" + rows + "\n  ]";
}

/// The "recovery" headline section: a small fixed chaos campaign (seeded,
/// deterministic — independent of the NS_BENCH_* scale knobs so the numbers
/// are comparable across runs), reduced to per-fault time-to-recover via
/// analysis::recovery_report. This is where the recovery SLOs of
/// docs/ROBUSTNESS.md get tracked as diffable numbers.
std::string recovery_section_json() {
    SimulationConfig config;
    config.seed = 42;
    config.peers = 3000;
    config.behavior.warmup = sim::days(2.0);
    config.behavior.window = sim::days(5.0);
    config.behavior.downloads_per_peer_per_month = 10.0;
    auto spec = fault::parse_campaign(
        "seed=7 waves=3 mean_concurrent=2 start=3 spacing=1 duration=0.15 fraction=0.15");
    if (!spec) return "";
    config.campaigns.push_back(spec.value());

    std::printf("[scenario] running recovery campaign (%d peers, campaign seed 7)...\n",
                config.peers);
    std::fflush(stdout);
    const auto t0 = std::chrono::steady_clock::now();
    Simulation sim(config);
    sim.run();
    const double wall_seconds = seconds_since(t0);

    const analysis::RecoveryReport report = analysis::recovery_report(sim.trace());
    const auto outcomes = analysis::outcome_stats(sim.trace());
    const double served =
        outcomes.all.completed + outcomes.all.failed_system + outcomes.all.failed_other;
    const double delivery = served > 0 ? outcomes.all.completed / served : 0.0;

    std::string faults = "[";
    for (std::size_t i = 0; i < report.faults.size(); ++i) {
        const analysis::FaultRecovery& f = report.faults[i];
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s\n      {\"kind\": \"%s\", \"onset_days\": %.2f, \"restore_days\": %.2f, "
                      "\"evaluable\": %s, \"recover_hours\": %.2f, \"min_delivery\": %.3f}",
                      i == 0 ? "" : ",", std::string(analysis::to_string(f.kind)).c_str(),
                      f.onset.days(), f.restore.days(), f.evaluable ? "true" : "false",
                      f.recover_hours, f.min_delivery_during);
        faults += row;
    }
    faults += "\n    ]";

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "    \"campaign\": \"seed=7 waves=3 mean_concurrent=2\",\n"
                  "    \"wall_seconds\": %.3f,\n"
                  "    \"delivery\": %.4f,\n"
                  "    \"all_recovered\": %s,\n"
                  "    \"worst_recover_hours\": %.2f,\n"
                  "    \"faults\": ",
                  wall_seconds, delivery, report.all_recovered ? "true" : "false",
                  report.worst_recover_hours);
    return std::string(buf) + faults + "\n  }";
}

// Machine-readable record of a fresh standard-scenario run: wall-clock plus
// the engine's hot-path counters and the full per-subsystem metric registry
// (obs::to_json — control/edge/client/driver/fault breakdowns). Written
// next to the dataset cache so perf regressions show up as a diffable
// number, not a feeling. Only fresh runs emit it — a cache load measures
// deserialization, not the simulator.
void write_headline_json(const BenchArgs& args, double wall_seconds, const Simulation& sim,
                         const trace::Dataset& dataset, const char* cache_path) {
    const Simulation::PerfStats perf = sim.perf_stats();
    const std::string path = args.cache_dir + "/BENCH_headline.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    const double events_per_second =
        wall_seconds > 0.0 ? static_cast<double>(perf.sim.dispatched) / wall_seconds : 0.0;
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"scenario\": {\"peers\": %d, \"days\": %.1f, \"warmup\": %.1f, "
                 "\"seed\": %llu},\n",
                 args.peers, args.days, args.warmup,
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f, "  \"wall_seconds\": %.3f,\n", wall_seconds);
    std::fprintf(f,
                 "  \"events\": {\"scheduled\": %llu, \"dispatched\": %llu, "
                 "\"cancelled\": %llu, \"callback_heap_allocs\": %llu, "
                 "\"dispatched_per_second\": %.0f},\n",
                 static_cast<unsigned long long>(perf.sim.scheduled),
                 static_cast<unsigned long long>(perf.sim.dispatched),
                 static_cast<unsigned long long>(perf.sim.cancelled),
                 static_cast<unsigned long long>(perf.sim.callback_heap_allocs),
                 events_per_second);
    std::fprintf(f,
                 "  \"flows\": {\"started\": %llu, \"completed\": %llu, "
                 "\"cancelled\": %llu, \"refills\": %llu, \"resort_hits\": %llu, "
                 "\"resort_misses\": %llu},\n",
                 static_cast<unsigned long long>(perf.flows.flows_started),
                 static_cast<unsigned long long>(perf.flows.flows_completed),
                 static_cast<unsigned long long>(perf.flows.flows_cancelled),
                 static_cast<unsigned long long>(perf.flows.refills),
                 static_cast<unsigned long long>(perf.flows.resort_hits),
                 static_cast<unsigned long long>(perf.flows.resort_misses));
    const obs::ProcessMemory mem = obs::read_process_memory();
    std::fprintf(f, "  \"memory\": {\"rss_bytes\": %zu, \"peak_rss_bytes\": %zu},\n",
                 mem.rss_bytes, mem.peak_rss_bytes);
    std::fprintf(f,
                 "  \"log_entries\": {\"downloads\": %zu, \"logins\": %zu, "
                 "\"transfers\": %zu, \"registrations\": %zu},\n",
                 dataset.log.downloads().size(), dataset.log.logins().size(),
                 dataset.log.transfers().size(), dataset.log.registrations().size());
    std::fprintf(f, "  \"analysis\": %s,\n", analysis_section_json(dataset, cache_path).c_str());
    const std::string recovery = recovery_section_json();
    if (!recovery.empty()) std::fprintf(f, "  \"recovery\": %s,\n", recovery.c_str());
    const std::string scale = scale_section_json();
    if (!scale.empty()) std::fprintf(f, "  \"scale\": %s,\n", scale.c_str());
    // Per-subsystem breakdown: the whole metric registry, re-indented so the
    // exporter's top-level object nests under the "metrics" key.
    std::string metrics = obs::to_json(sim.metrics());
    while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
    std::string nested;
    for (char c : metrics) {
        nested += c;
        if (c == '\n') nested += "  ";
    }
    std::fprintf(f, "  \"metrics\": %s\n", nested.c_str());
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("[scenario] perf headline written to %s (%.1fs wall, %.0f events/s)\n",
                path.c_str(), wall_seconds, events_per_second);
}
}  // namespace

BenchArgs bench_args() {
    BenchArgs args;
    args.peers = static_cast<int>(env_double("NS_BENCH_PEERS", args.peers));
    args.days = env_double("NS_BENCH_DAYS", args.days);
    args.warmup = env_double("NS_BENCH_WARMUP", args.warmup);
    // Seeds are full 64-bit values; parsing through double (atof) would
    // silently round anything above 2^53.
    if (const char* s = std::getenv("NS_BENCH_SEED")) {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(s, &end, 0);
        if (end != s && *end == '\0') args.seed = v;
    }
    if (const char* dir = std::getenv("NS_BENCH_CACHE")) args.cache_dir = dir;
    return args;
}

SimulationConfig standard_config(const BenchArgs& args) {
    SimulationConfig config;
    config.seed = args.seed;
    config.peers = args.peers;
    config.behavior.window = sim::days(args.days);
    config.behavior.warmup = sim::days(args.warmup);
    config.behavior.downloads_per_peer_per_month = 6.0;
    return config;
}

net::AsGraph standard_as_graph(const BenchArgs& args) {
    // Mirrors Simulation's construction: the graph depends only on
    // (seed, as_graph config), so it can be rebuilt without re-running.
    const auto config = standard_config(args);
    Rng root(config.seed);
    return net::AsGraph::generate(config.as_graph, root.child("as-graph"));
}

trace::Dataset standard_dataset(const BenchArgs& args) {
    std::filesystem::create_directories(args.cache_dir);
    char name[256];
    std::snprintf(name, sizeof(name), "%s/standard_p%d_d%.0f_w%.0f_s%llu.nstrace",
                  args.cache_dir.c_str(), args.peers, args.days, args.warmup,
                  static_cast<unsigned long long>(args.seed));

    trace::Dataset dataset;
    if (trace::load_dataset(dataset, name)) {
        std::printf("[scenario] loaded cached data set %s (%zu log entries)\n", name,
                    dataset.log.total_entries());
        return dataset;
    }

    std::printf("[scenario] running standard scenario: %d peers, %.0f+%.0f days, seed %llu...\n",
                args.peers, args.warmup, args.days,
                static_cast<unsigned long long>(args.seed));
    std::fflush(stdout);
    const auto t0 = std::chrono::steady_clock::now();
    Simulation sim(standard_config(args));
    sim.run();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    dataset.log = sim.trace();
    sim.geodb().for_each([&](net::IpAddr ip, const net::GeoRecord& rec) {
        dataset.geodb.register_ip(ip, rec);
    });
    const bool cached = trace::save_dataset(dataset, name);
    if (cached) std::printf("[scenario] cached to %s\n", name);
    write_headline_json(args, wall_seconds, sim, dataset, cached ? name : nullptr);
    std::printf("[scenario] %zu downloads, %zu logins, %zu transfers, %zu registrations\n",
                dataset.log.downloads().size(), dataset.log.logins().size(),
                dataset.log.transfers().size(), dataset.log.registrations().size());
    return dataset;
}

void print_banner(const std::string& name, const std::string& paper_ref, const BenchArgs& args) {
    std::printf("==============================================================\n");
    std::printf("%s — reproduces %s\n", name.c_str(), paper_ref.c_str());
    std::printf("(Zhao et al., \"Peer-Assisted Content Distribution in Akamai\n");
    std::printf(" NetSession\", IMC 2013; synthetic deployment, %d peers)\n", args.peers);
    std::printf("==============================================================\n");
}

}  // namespace netsession::bench
