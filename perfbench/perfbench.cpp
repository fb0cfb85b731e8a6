// perfbench — the repository benchmark (see README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --scenarios <dir> --work <dir> [--peers <n>]
//
// Runs one workload in this process (peak RSS is a process-wide high-water
// mark, so every workload gets its own), checks its outputs, prints a summary
// and, as its last line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics. --trace 1 is
// the traced run: spans around every layer call, a staged pipeline pass, the
// per-layer metrics, and its spans written to
// <work>/<workload>-<seed>.spans.json at exit. --peers overrides the
// scenario's population (the smoke test runs tiny ones).
//
// Every number comes from the library's public interface: Simulation's
// perf_stats(), the flow pool and cold store accessors, the subsystems'
// metric blocks, the fault engine and auditor, and the analysis functions.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/guid_graph.hpp"
#include "analysis/login_index.hpp"
#include "analysis/measurement.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/recovery.hpp"
#include "common/parallel.hpp"
#include "core/scenario_io.hpp"
#include "obs/process_memory.hpp"
#include "spans.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace netsession;
using perfbench::now_s;
using perfbench::Spans;
using perfbench::timed;

/// Share of --seconds spent repeating construct + run() of the simulation;
/// the pipeline passes get the rest.
constexpr double kSimShare = 0.55;
/// Fewest simulations (construct + run()) per run.
constexpr std::size_t kMinSims = 3;
/// Fewest timed pipeline passes per thread count.
constexpr std::size_t kMinPasses = 3;
/// reference_work_s() on the quiet development host (README.md, "Host
/// noise"): the time metrics are scaled by it over the run's median.
constexpr double kReferenceWorkS = 0.047;

/// The stages of analysis::run_full_pipeline, in its order.
constexpr std::array<std::string_view, 18> kStages{{
    "login_index", "overall_stats", "downloads_by_region", "upload_setting_changes",
    "upload_enabled_by_provider", "peer_distribution", "continent_shares",
    "workload_characteristics", "speed_comparison", "efficiency_vs_copies",
    "efficiency_vs_peers_returned", "outcome_stats", "coverage_by_country", "traffic_balance",
    "mobility_stats", "headline_offload", "degradation_stats", "classify_guid_graphs",
}};

struct Options {
    std::string workload;  ///< runs the scenario <scenarios>/<workload>.ini
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    std::string scenarios;
    std::string work;
    int peers = 0;
};

/// Named metrics with units, in insertion order.
class Report {
public:
    void add(std::string name, double value, std::string unit) {
        metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
    }

    void print_table() const {
        for (const auto& m : metrics_)
            std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    void print_json(bool correct, int attempted, int failed) const {
        std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                        metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
        std::printf("}}\n");
    }

private:
    struct Metric {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

class Checks {
public:
    void expect(bool ok, const std::string& what) {
        std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
        all_ = all_ && ok;
    }
    [[nodiscard]] bool all() const noexcept { return all_; }

private:
    bool all_ = true;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

/// FNV-1a over a file's bytes: the trace digest. Sets `bytes` to its size.
std::uint64_t digest_file(const std::string& path, std::size_t& bytes) {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> buf(1 << 16);
    std::uint64_t h = 1469598103934665603ull;
    bytes = 0;
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) || in.gcount() > 0) {
        const auto n = static_cast<std::size_t>(in.gcount());
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<unsigned char>(buf[i]);
            h *= 1099511628211ull;
        }
        bytes += n;
    }
    return h;
}

/// Host time per simulated hour of one run(). An event the benchmark
/// schedules through the engine's public schedule_at at every simulated
/// hour; it reads the clock and touches nothing else, so the simulation runs
/// exactly as without it. Its events are subtracted from the engine counts.
class Heartbeat {
public:
    Heartbeat(sim::Simulator& engine, sim::SimTime end) : engine_(engine), end_(end) {
        schedule(1);
    }
    Heartbeat(const Heartbeat&) = delete;
    Heartbeat& operator=(const Heartbeat&) = delete;

    /// Marks the start of the first hour; call right before run().
    void start() { last_s_ = now_s(); }
    /// Ends the last segment; call right after run().
    void stop() { segments_s_.push_back(now_s() - last_s_); }

    /// Host seconds per simulated hour, then the rest of run() after the last
    /// hour's tick.
    [[nodiscard]] const std::vector<double>& segments_s() const noexcept { return segments_s_; }
    /// Events the heartbeat scheduled (and dispatched).
    [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }
    /// Host time spent inside the heartbeat's own events: its overhead on
    /// run().
    [[nodiscard]] double cost_s() const noexcept { return cost_s_; }

private:
    void schedule(std::size_t hour) {
        const sim::SimTime at = sim::SimTime{} + sim::hours(static_cast<double>(hour));
        if (at >= end_) return;  // run() dispatches every tick; none is left queued
        engine_.schedule_at(at, [this] { tick(); });
    }
    void tick() {
        const double t = now_s();
        segments_s_.push_back(t - last_s_);
        last_s_ = t;
        schedule(++ticks_ + 1);
        cost_s_ += now_s() - t;
    }

    sim::Simulator& engine_;
    sim::SimTime end_;
    double last_s_ = 0.0;
    double cost_s_ = 0.0;
    std::uint64_t ticks_ = 0;
    std::vector<double> segments_s_;
};

/// run_full_pipeline, one stage at a time with one shared LoginIndex, so each
/// stage gets its own span and time (`stage_s`, indexed like kStages). The
/// caller checks that the fingerprint equals run_full_pipeline's, which keeps
/// this stage list in step with the library's.
analysis::PipelineResult staged_pipeline(const trace::Dataset& dataset, Spans& spans,
                                         std::vector<double>& stage_s) {
    const trace::TraceLog& log = dataset.log;
    const net::GeoDatabase& geodb = dataset.geodb;
    stage_s.assign(kStages.size(), 0.0);
    std::size_t next = 0;
    const auto stage = [&](auto&& fn) {
        const std::string name = "analysis." + std::string(kStages[next]);
        stage_s[next++] = timed(spans, name, fn);
    };

    std::unique_ptr<analysis::LoginIndex> index;
    stage([&] { index = std::make_unique<analysis::LoginIndex>(log); });
    const analysis::LoginIndex& logins = *index;
    analysis::PipelineResult r;
    stage([&] { r.overall = analysis::overall_stats(log, geodb); });
    stage([&] { r.regions = analysis::downloads_by_region(log, logins, geodb); });
    stage([&] { r.setting_changes = analysis::upload_setting_changes(logins); });
    stage([&] { r.upload_enabled = analysis::upload_enabled_by_provider(log, logins); });
    stage([&] { r.peers_by_country = analysis::peer_distribution(logins, geodb); });
    stage([&] { r.continents = analysis::continent_shares(logins, geodb); });
    stage([&] { r.workload = analysis::workload_characteristics(log, logins, geodb); });
    stage([&] { r.speeds = analysis::speed_comparison(log, logins, geodb); });
    stage([&] { r.efficiency_copies = analysis::efficiency_vs_copies(log); });
    stage([&] { r.efficiency_peers = analysis::efficiency_vs_peers_returned(log); });
    stage([&] { r.outcomes = analysis::outcome_stats(log); });
    stage([&] {
        if (!r.regions.empty())
            r.coverage = analysis::coverage_by_country(log, logins, geodb,
                                                       CpCode{r.regions.begin()->first});
    });
    stage([&] { r.balance = analysis::traffic_balance(log, geodb, nullptr); });
    stage([&] { r.mobility = analysis::mobility_stats(log, logins, geodb); });
    stage([&] { r.headline = analysis::headline_offload(log); });
    stage([&] { r.degradation = analysis::degradation_stats(log); });
    stage([&] { r.guid_graphs = analysis::classify_guid_graphs(log); });
    return r;
}

/// The host's speed, as the wall time of a fixed reference computation:
/// a pointer chase through 16 MiB, hash-map inserts and heap pushes and pops,
/// the kinds of memory access the simulator and the pipeline make. It uses
/// the standard library only, so no change to the simulator moves it.
double reference_work_s() {
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> v(1u << 22);
        std::iota(v.begin(), v.end(), 0u);
        std::uint64_t x = 88172645463325252ull;  // xorshift64: a fixed random cycle
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::swap(v[i], v[x % i]);
        }
        return v;
    }();
    const double start = now_s();
    std::uint32_t at = 0;
    for (int i = 0; i < 300000; ++i) at = next[at];
    std::uint64_t x = at;
    const auto draw = [&x] { return x = x * 6364136223846793005ull + 1442695040888963407ull; };
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    for (int i = 0; i < 60000; ++i) map[draw() >> 40] += static_cast<std::uint64_t>(i);
    std::priority_queue<std::uint64_t> heap;
    for (int i = 0; i < 60000; ++i) {
        heap.push(draw());
        if (i % 3 == 0) heap.pop();
    }
    volatile std::uint64_t sink = map.size() + heap.top();
    (void)sink;
    return now_s() - start;
}

/// Longest per-fault recovery or drain time, in simulated hours.
double worst_drain_hours(const analysis::RecoveryReport& report) {
    double worst = 0.0;
    for (const auto& f : report.faults)
        worst = std::max({worst, f.recover_hours, f.login_drain_hours, f.readd_drain_hours});
    return worst;
}

/// Per-layer counts from the finished simulation's public accessors.
void add_layer_counts(Report& layers, Simulation& sim, const Simulation::PerfStats& perf) {
    const auto& engine = perf.sim;
    const auto& flows = perf.flows;
    layers.add("sim.events_scheduled", static_cast<double>(engine.scheduled), "count");
    layers.add("sim.events_dispatched", static_cast<double>(engine.dispatched), "count");
    layers.add("sim.events_cancelled", static_cast<double>(engine.cancelled), "count");
    layers.add("sim.cancel_ratio",
               ratio(static_cast<double>(engine.cancelled), static_cast<double>(engine.scheduled)),
               "ratio");
    layers.add("sim.callback_heap_allocs", static_cast<double>(engine.callback_heap_allocs),
               "count");

    layers.add("flow.started", static_cast<double>(flows.flows_started), "count");
    layers.add("flow.completed", static_cast<double>(flows.flows_completed), "count");
    layers.add("flow.cancelled", static_cast<double>(flows.flows_cancelled), "count");
    layers.add("flow.refills", static_cast<double>(flows.refills), "count");
    layers.add("flow.refills_per_flow",
               ratio(static_cast<double>(flows.refills), static_cast<double>(flows.flows_started)),
               "ratio");
    layers.add("flow.resort_hit_ratio",
               ratio(static_cast<double>(flows.resort_hits),
                     static_cast<double>(flows.resort_hits + flows.resort_misses)),
               "ratio");
    const arena::PoolStats flow_pool = sim.world().flows().pool_stats();
    layers.add("flow.pool_peak_live", static_cast<double>(flow_pool.peak_live), "count");
    layers.add("flow.pool_bytes_reserved", static_cast<double>(flow_pool.bytes_reserved), "bytes");

    const peer::ColdStore& cold = sim.registry().cold();
    layers.add("peer.cold_records", static_cast<double>(cold.records()), "count");
    layers.add("peer.cold_bytes_live", static_cast<double>(cold.bytes_live()), "bytes");
    layers.add("peer.cold_bytes_reserved", static_cast<double>(cold.bytes_reserved()), "bytes");
    layers.add("peer.download_pool_bytes_reserved",
               static_cast<double>(sim.registry().downloads().bytes_reserved()), "bytes");
    const peer::ClientMetrics& client = sim.driver().client_metrics();
    const auto count = [&](const char* name, const obs::Counter& c) {
        layers.add(name, static_cast<double>(c.get()), "count");
    };
    count("client.downloads_started", client.downloads_started);
    count("client.downloads_completed", client.downloads_completed);
    count("client.downloads_failed", client.downloads_failed);
    count("client.edge_retries", client.edge_retries);
    count("client.edge_stalls", client.edge_stalls);
    count("client.edge_remaps", client.edge_remaps);
    count("client.peer_stalls", client.peer_stalls);
    count("client.corrupt_pieces", client.corrupt_pieces);
    layers.add("client.bytes_from_peers", static_cast<double>(client.bytes_from_peers.get()),
               "bytes");
    layers.add("client.bytes_from_edge", static_cast<double>(client.bytes_from_edge.get()),
               "bytes");

    const control::ControlMetrics& control = sim.control_plane().metrics();
    count("control.logins", control.logins);
    count("control.queries", control.queries);
    layers.add("control.peers_returned", control.peers_returned.sum, "count");
    count("control.readds", control.readds);
    count("control.logins_refused", control.logins_refused);
    count("control.logins_deferred", control.logins_deferred);
    layers.add("control.peers_per_query",
               ratio(control.peers_returned.sum, static_cast<double>(control.queries.get())),
               "ratio");
    const edge::EdgeMetrics& edge = sim.edges().metrics();
    count("edge.requests", edge.requests);
    layers.add("edge.bytes_served", static_cast<double>(edge.bytes_served.get()), "bytes");
    count("edge.refusals", edge.refusals);

    layers.add("driver.sessions_started", static_cast<double>(sim.driver().sessions_started()),
               "count");
    layers.add("driver.downloads_requested",
               static_cast<double>(sim.driver().downloads_requested()), "count");
    layers.add("driver.downloads_finished",
               static_cast<double>(sim.driver().downloads_finished()), "count");
    layers.add("fault.applied", sim.faults().faults_applied(), "count");
    layers.add("fault.restored", sim.faults().faults_restored(), "count");
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "                 --scenarios <dir> --work <dir> [--peers <n>]\n");
    return 2;
}

bool parse(int argc, char** argv, Options& opt) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            if (value.find('/') != std::string::npos) return false;
            opt.workload = value;
            continue;
        }
        if (key == "--scenarios") {
            opt.scenarios = value;
            continue;
        }
        if (key == "--work") {
            opt.work = value;
            continue;
        }
        if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (key == "--trace") {
            opt.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (key == "--peers") {
            opt.peers = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else {
            return false;
        }
        if (end == value.c_str() || *end != '\0') return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds >= 0 &&
           (opt.trace == 0 || opt.trace == 1) && !opt.scenarios.empty() && !opt.work.empty() &&
           opt.peers >= 0;
}

int run(const Options& opt) {
    const std::string& workload = opt.workload;
    const bool traced = opt.trace == 1;
    auto loaded_config = load_scenario(opt.scenarios + "/" + workload + ".ini");
    if (!loaded_config) {
        std::fprintf(stderr, "perfbench: %s\n", loaded_config.error().message.c_str());
        return 2;
    }
    SimulationConfig config = loaded_config.value();
    config.seed = opt.seed;
    if (opt.peers > 0) config.peers = opt.peers;
    const bool faulted = !config.faults.empty() || !config.campaigns.empty();
    const int threads =
        std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
    parallel::set_thread_count(threads);

    std::filesystem::create_directories(opt.work);
    const std::string stem = opt.work + "/" + workload + "-" + std::to_string(opt.seed);
    const std::string trace_path = stem + ".nstrace";

    std::printf("perfbench %s seed %llu peers %d threads %d trace %d\n", workload.c_str(),
                static_cast<unsigned long long>(opt.seed), config.peers, threads, opt.trace);

    Spans spans(traced);
    Checks checks;
    Report e2e;
    Report layers;
    int attempted = 0;  // benchmark operations: set-ups, runs, saves, loads, passes
    int failed = 0;

    // --- set-up and simulation: construct the Simulation, run() it and keep
    // its counts and its host time per simulated hour. The first Simulation
    // is kept for the checks; later ones, interleaved with the pipeline passes
    // below, are timed and must write the same trace.
    const double bench_start = now_s();
    const sim::SimTime end = sim::SimTime{} + config.behavior.warmup + config.behavior.window;
    std::vector<double> setup_s;
    std::vector<double> run_s;
    std::vector<std::vector<double>> segments_s;  // per simulation: Heartbeat::segments_s()
    std::vector<std::pair<std::size_t, std::uint64_t>> outputs;  // trace entries, events
    double setup_rss_mib = 0.0;
    double heartbeat_cost_s = 0.0;
    const auto simulate = [&](Simulation::PerfStats& perf) {
        const bool first = setup_s.empty();
        std::unique_ptr<Simulation> simulation;
        setup_s.push_back(timed(spans, "core.construct",
                                [&] { simulation = std::make_unique<Simulation>(config); }));
        if (first) setup_rss_mib = mib(obs::read_process_memory().rss_bytes);
        Heartbeat heartbeat(simulation->simulator(), end);
        run_s.push_back(timed(spans, "sim.run", [&] {
            heartbeat.start();
            simulation->run();
            heartbeat.stop();
        }));
        attempted += 2;
        segments_s.push_back(heartbeat.segments_s());
        if (first) heartbeat_cost_s = heartbeat.cost_s();
        perf = simulation->perf_stats();
        perf.sim.scheduled -= heartbeat.ticks();
        perf.sim.dispatched -= heartbeat.ticks();
        outputs.emplace_back(simulation->trace().total_entries(), perf.sim.dispatched);
        return simulation;
    };
    Simulation::PerfStats perf;
    std::unique_ptr<Simulation> simulation = simulate(perf);
    // Read before any analysis: the simulation's allocations are
    // single-threaded and repeat exactly for a seed; the pipeline's thread
    // pool makes the process peak at exit vary from run to run.
    const double peak_rss_mib = mib(obs::read_process_memory().peak_rss_bytes);

    // --- checks on the simulation's outputs.
    int violations = -1;
    const double audit_s =
        timed(spans, "audit.audit_now", [&] { violations = simulation->auditor().audit_now(); });
    // The flow solver overshoots link capacity by up to ~1.5% on a few hosts
    // at every scale (the auditor's flow_capacity check). audit.violations
    // counts those too; the check accepts only them until the solver is fixed.
    const auto flow_capacity_violations = simulation->auditor().counters().flow_capacity;
    checks.expect(violations == flow_capacity_violations,
                  "auditor().audit_now() finds no violation but flow_capacity");
    for (const std::string& report : simulation->auditor().reports())
        std::fprintf(stderr, "audit: %s\n", report.c_str());
    const trace::TraceLog& log = simulation->trace();
    const analysis::OutcomeStats outcomes = analysis::outcome_stats(log);
    const analysis::HeadlineOffload headline = analysis::headline_offload(log);
    analysis::RecoveryReport recovery;
    const double recovery_s =
        timed(spans, "analysis.recovery_report", [&] { recovery = analysis::recovery_report(log); });
    const auto& all = outcomes.all;
    const double delivery = ratio(all.completed, all.completed + all.failed_system + all.failed_other);
    checks.expect(all.n > 0 && headline.overall_offload > 0,
                  "downloads finished and peers served bytes");
    if (faulted) {
        checks.expect(!recovery.faults.empty() && recovery.all_recovered,
                      "every evaluable fault recovered (recovery_report)");
        checks.expect(delivery >= 0.95, "delivery >= 0.95 under faults");
    }
    add_layer_counts(layers, *simulation, perf);

    // --- the trace: copy it out of the Simulation, free the Simulation, save
    // the copy, digest the file and load it back.
    const std::size_t entries = log.total_entries();
    trace::Dataset in_memory;
    in_memory.log = log;
    simulation->geodb().for_each(
        [&](net::IpAddr ip, const net::GeoRecord& rec) { in_memory.geodb.register_ip(ip, rec); });
    simulation.reset();
    bool saved = false;
    const double save_s =
        timed(spans, "trace.save", [&] { saved = trace::save_dataset(in_memory, trace_path); });
    std::size_t file_bytes = 0;
    const std::uint64_t digest = saved ? digest_file(trace_path, file_bytes) : 0;
    trace::Dataset from_file;
    bool reloaded = false;
    const double load_s =
        timed(spans, "trace.load", [&] { reloaded = trace::load_dataset(from_file, trace_path); });
    attempted += 2;
    failed += (saved ? 0 : 1) + (reloaded ? 0 : 1);
    std::printf("trace digest %016llx (%zu bytes, %zu entries)\n",
                static_cast<unsigned long long>(digest), file_bytes, entries);
    checks.expect(saved && reloaded, "save_dataset and load_dataset succeed");
    if (!saved || !reloaded) {
        e2e.print_json(false, attempted, failed);
        return 1;
    }

    // --- timed repetitions for the rest of --seconds: pairs of pipeline
    // passes, at `threads` over the loaded file and at 1 thread over the
    // in-memory copy (so equal fingerprints show both the thread-count
    // invariance and the save/load round trip), interleaved with further
    // simulations of the seed so that simulating takes kSimShare of the time.
    // The host slows memory-bound code by up to 2x, in bursts of seconds and
    // in phases of minutes. One long timing measures the burst it fell into,
    // so each time metric takes the fastest of many short timings spread over
    // the run; and the reference work before each step measures the phase.
    const auto pass = [&](const trace::Dataset& dataset, int n, const char* name) {
        parallel::set_thread_count(n);
        analysis::PipelineResult result;
        const double s = timed(spans, name, [&] { result = analysis::run_full_pipeline(dataset); });
        ++attempted;
        return std::make_pair(s, analysis::fingerprint(result));
    };
    std::vector<double> pass_s;
    std::vector<double> pass_1t_s;
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::vector<double>> stage_samples(kStages.size());
    std::vector<double> stage_sum_ratio;  // per iteration: staged pass / plain pass
    parallel::StatsSnapshot pool{};
    double sim_spent = setup_s[0] + run_s[0];
    double pass_spent = 0.0;
    std::vector<double> reference_s;
    while (now_s() - bench_start < opt.seconds || run_s.size() < kMinSims ||
           pass_s.size() < kMinPasses) {
        reference_s.push_back(reference_work_s());
        const double start = now_s();
        if (sim_spent < kSimShare * (sim_spent + pass_spent)) {
            Simulation::PerfStats counts;
            simulate(counts);
            sim_spent += now_s() - start;
            continue;
        }
        if (traced) {
            parallel::set_thread_count(threads);
            parallel::reset_stats();
            std::vector<double> stage_s;
            const int id = spans.open("analysis.staged_pass");
            fingerprints.push_back(analysis::fingerprint(staged_pipeline(from_file, spans, stage_s)));
            spans.close(id);
            pool = parallel::stats();
            ++attempted;
            for (std::size_t i = 0; i < kStages.size(); ++i) stage_samples[i].push_back(stage_s[i]);
            stage_sum_ratio.push_back(std::accumulate(stage_s.begin(), stage_s.end(), 0.0));
        }
        const auto [s, fp] = pass(from_file, threads, "analysis.pass");
        const auto [s1, fp1] = pass(in_memory, 1, "analysis.pass_1t");
        pass_s.push_back(s);
        pass_1t_s.push_back(s1);
        if (traced) stage_sum_ratio.back() /= s;
        fingerprints.push_back(fp);
        fingerprints.push_back(fp1);
        pass_spent += now_s() - start;
    }
    // sim_s: for each simulated hour, and for the rest of run() after the
    // last one, the least host time any simulation of the seed took for it.
    std::vector<double> fastest = segments_s[0];
    bool same_hours = true;
    for (const std::vector<double>& segments : segments_s) {
        same_hours = same_hours && segments.size() == fastest.size();
        for (std::size_t i = 0; i < std::min(segments.size(), fastest.size()); ++i)
            fastest[i] = std::min(fastest[i], segments[i]);
    }
    const double sim_s = std::accumulate(fastest.begin(), fastest.end(), 0.0);
    std::printf("simulations %zu: run() fastest %.3f s, median %.3f s; fastest hours %.3f s\n",
                run_s.size(), *std::min_element(run_s.begin(), run_s.end()), median(run_s), sim_s);
    checks.expect(same_hours && std::all_of(outputs.begin(), outputs.end(),
                                            [&](const auto& o) { return o == outputs[0]; }),
                  "every run() of the seed: same trace entries, events, hours");
    parallel::set_thread_count(threads);
    std::printf("pipeline fingerprint %016llx (%zu passes per thread count)\n",
                static_cast<unsigned long long>(fingerprints[0]), pass_s.size());
    checks.expect(std::all_of(fingerprints.begin(), fingerprints.end(),
                              [&](std::uint64_t fp) { return fp == fingerprints[0]; }),
                  traced ? "fingerprint equal: staged, threads, passes, save/load"
                         : "fingerprint equal: threads, passes, save/load");

    const double analysis_s = *std::min_element(pass_s.begin(), pass_s.end());
    const double analysis_1t_s = *std::min_element(pass_1t_s.begin(), pass_1t_s.end());
    // The run's host speed against the reference host; slower phases give a
    // scale below 1.
    const double host_scale = kReferenceWorkS / median(reference_s);
    std::printf("unscaled: setup %.4f s, run() %.4f s, passes %.4f / %.4f s; "
                "reference work %.5f s (median of %zu), scale %.4f\n",
                median(setup_s), sim_s, analysis_s, analysis_1t_s, median(reference_s),
                reference_s.size(), host_scale);

    if (traced) {
        std::vector<double> hours(fastest.begin(), fastest.end() - 1);
        for (double& h : hours) h *= 1e3;  // ms
        const auto warmup_hours =
            static_cast<std::size_t>(std::llround(config.behavior.warmup.seconds() / 3600.0));
        double warmup_s = 0.0;
        double window_s = 0.0;
        for (std::size_t h = 0; h < hours.size(); ++h)
            (h < warmup_hours ? warmup_s : window_s) += hours[h] / 1e3;
        layers.add("sim.ns_per_event", ratio(sim_s * 1e9, static_cast<double>(perf.sim.dispatched)),
                   "ns");
        layers.add("sim.warmup_s", warmup_s, "s");
        layers.add("sim.window_s", window_s, "s");
        layers.add("sim.hour_host_ms.p50", percentile(hours, 0.5), "ms");
        layers.add("sim.hour_host_ms.p90", percentile(hours, 0.9), "ms");
        layers.add("sim.trace_overhead_pct", 100.0 * ratio(heartbeat_cost_s, run_s[0]), "%");
        layers.add("audit.violations", violations, "count");
        layers.add("audit.sweep_s", audit_s, "s");
        layers.add("fault.recover_drain_h", worst_drain_hours(recovery), "h");
        layers.add("client.failure_share", all.failed_system + all.failed_other, "ratio");
        layers.add("client.offload_pct", 100.0 * headline.overall_offload, "%");
        layers.add("core.setup_rss_mib", setup_rss_mib, "MiB");
        layers.add("host.reference_ms", 1e3 * median(reference_s), "ms");
        layers.add("trace.entries", static_cast<double>(entries), "count");
        layers.add("trace.file_bytes", static_cast<double>(file_bytes), "bytes");
        layers.add("trace.save_s", save_s, "s");
        layers.add("trace.load_s", load_s, "s");
        for (std::size_t i = 0; i < kStages.size(); ++i)
            layers.add("analysis." + std::string(kStages[i]) + "_s", median(stage_samples[i]), "s");
        layers.add("analysis.recovery_report_s", recovery_s, "s");
        layers.add("analysis.speedup", ratio(analysis_1t_s, analysis_s), "ratio");
        layers.add("analysis.stage_sum_ratio", median(stage_sum_ratio), "ratio");
        layers.add("analysis.peak_rss_mib", mib(obs::read_process_memory().peak_rss_bytes), "MiB");
        layers.add("parallel.jobs", static_cast<double>(pool.jobs), "count");
        layers.add("parallel.inline_jobs", static_cast<double>(pool.inline_jobs), "count");
        layers.add("parallel.chunks", static_cast<double>(pool.chunks), "count");
        layers.add("parallel.chunks_stolen", static_cast<double>(pool.chunks_stolen), "count");
        layers.add("parallel.merges", static_cast<double>(pool.merges), "count");
    } else {
        e2e.add("setup_s", median(setup_s) * host_scale, "s");
        e2e.add("sim_s", sim_s * host_scale, "s");
        e2e.add("analysis_s", analysis_s * host_scale, "s");
        e2e.add("analysis_1t_s", analysis_1t_s * host_scale, "s");
        e2e.add("peak_rss_mib", peak_rss_mib, "MiB");
    }

    std::filesystem::remove(trace_path);
    if (traced) {
        const std::string spans_path = stem + ".spans.json";
        checks.expect(spans.write(spans_path), "spans written to " + spans_path);
    }
    const Report& report = traced ? layers : e2e;
    report.print_table();
    report.print_json(checks.all(), attempted, failed);
    return checks.all() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse(argc, argv, opt)) return usage();
    return run(opt);
}
