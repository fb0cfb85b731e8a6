// Fault-injection integration: FaultPlan runs end to end — clients survive
// STUN blackouts, mass churn, and edge outages, the degradation telemetry
// explains what happened, and a faulted run is still byte-deterministic.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "analysis/measurement.hpp"
#include "analysis/recovery.hpp"
#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

SimulationConfig chaos_config(std::uint64_t seed) {
    SimulationConfig config;
    config.seed = seed;
    config.peers = 600;
    config.behavior.warmup = sim::days(1.0);
    config.behavior.window = sim::days(3.0);
    config.behavior.downloads_per_peer_per_month = 25.0;
    config.as_graph.total_ases = 200;
    return config;
}

void add_fault(SimulationConfig& config, const std::string& spec) {
    auto event = fault::parse_fault_event(spec);
    ASSERT_TRUE(event.ok()) << spec << ": " << (event.ok() ? "" : event.error().message);
    config.faults.events.push_back(event.value());
}

TEST(Chaos, StunBlackoutDoesNotWedgeStartup) {
    // A permanent STUN blackout from t=0: probes never answer. start() must
    // not wedge waiting — after stun_timeout_s the client assumes the most
    // conservative NAT class and logs in anyway (§3.8 graceful degradation).
    auto config = chaos_config(501);
    add_fault(config, "stun_blackout at=0");
    Simulation s(config);
    s.run();

    EXPECT_GT(s.trace().logins().size(), 500u) << "clients still log in without STUN";
    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50);
    EXPECT_GT(outcomes.all.completed, 0.7) << "downloads proceed under conservative NAT";

    const auto d = analysis::degradation_stats(s.trace());
    EXPECT_GT(d.stun_timeouts, 0) << "the fallback path must actually have fired";

    bool conservative = false;
    for (const auto& client : s.driver().clients())
        if (client->running() && client->conservative_nat()) conservative = true;
    EXPECT_TRUE(conservative) << "running clients carry the conservative NAT classification";
    EXPECT_EQ(s.faults().faults_applied(), 1);
    EXPECT_EQ(s.faults().faults_restored(), 0) << "permanent fault never restores";
}

TEST(Chaos, MassChurnDownloadsStillComplete) {
    // Mid-transfer uploader churn: a flash crowd pulls half the population
    // into simultaneous downloads of one object, then 50% of running peers
    // crash with no goodbye while those transfers are in flight. Downloaders
    // notice via the stall watchdog, drop the dead sources, and finish from
    // the remaining swarm or the edge.
    auto config = chaos_config(502);
    add_fault(config, "flash_crowd at=2 fraction=0.5");
    add_fault(config, "mass_churn at=2.003 fraction=0.5");
    Simulation s(config);
    s.run();
    EXPECT_EQ(s.faults().faults_applied(), 2);

    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50);
    EXPECT_GT(outcomes.all.completed, 0.65) << "churn must not collapse delivery";
    EXPECT_LT(outcomes.all.failed_system, 0.05);

    // (Peer-stall telemetry under churn is pinned deterministically by
    // Client.UploaderChurnMidTransferFallsBackAndCompletes — at this scale
    // and offload level, a statistical assertion on it would be flaky.)

    // Crashed machines come back at their next session: activity exists
    // after the crash point.
    bool post_churn_login = false;
    for (const auto& l : s.trace().logins())
        if (l.time > sim::SimTime{} + sim::days(2.2)) post_churn_login = true;
    EXPECT_TRUE(post_churn_login);
}

TEST(Chaos, EdgeOutageStallsAreDetectedAndDeliveryHolds) {
    // Every edge server goes dark for ~2.4 hours mid-window. In-flight edge
    // transfers die silently; the per-download watchdog must notice the dead
    // flows, count edge stalls, and keep retrying (capped backoff) until the
    // restart — p2p keeps flowing meanwhile.
    auto config = chaos_config(503);
    add_fault(config, "edge_outage at=2 duration=0.1 region=all");
    Simulation s(config);
    s.run();

    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50);
    EXPECT_GT(outcomes.all.completed, 0.65) << "outage is short; deliveries recover";

    const auto d = analysis::degradation_stats(s.trace());
    EXPECT_GT(d.edge_stalls, 0) << "dead edge flows must be detected as stalls";
    EXPECT_EQ(s.faults().faults_applied(), 1);
    EXPECT_EQ(s.faults().faults_restored(), 1);
}

TEST(Chaos, FaultedRunIsByteIdenticalForSameSeedAndPlan) {
    // The determinism contract extends to fault plans: same seed + same plan
    // ⇒ byte-identical serialized traces (ISSUE 2 acceptance).
    auto config = chaos_config(504);
    config.peers = 300;
    add_fault(config, "edge_outage at=1.5 duration=0.2 region=all");
    add_fault(config, "stun_blackout at=1 duration=1");
    add_fault(config, "mass_churn at=2 fraction=0.3");
    add_fault(config, "region_partition at=2.5 duration=0.2 region=6");
    add_fault(config, "as_degradation at=1 duration=2 asn=3 latency_x=4 rate_x=0.25 loss=0.02");

    const auto run_once = [&](const std::string& path) {
        Simulation s(config);
        s.run();
        EXPECT_EQ(s.faults().faults_applied(), 5);
        ASSERT_TRUE(trace::save_dataset(s.trace(), s.geodb(), path));
    };
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_a = (dir / "ns_chaos_determinism_a.nstrace").string();
    const std::string path_b = (dir / "ns_chaos_determinism_b.nstrace").string();
    run_once(path_a);
    run_once(path_b);
    const auto read_all = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string bytes_a = read_all(path_a);
    const std::string bytes_b = read_all(path_b);
    ASSERT_GT(bytes_a.size(), 1000u);
    EXPECT_TRUE(bytes_a == bytes_b) << "faulted runs differ between identical configs";
    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
}

void add_campaign(SimulationConfig& config, const std::string& spec) {
    auto parsed = fault::parse_campaign(spec);
    ASSERT_TRUE(parsed.ok()) << spec << ": " << (parsed.ok() ? "" : parsed.error().message);
    config.campaigns.push_back(parsed.value());
}

TEST(Chaos, CampaignRunIsByteIdenticalForSameSeed) {
    // Campaign expansion happens inside the run against the deterministic
    // topology, so the determinism contract must hold end to end: same
    // scenario (explicit faults + campaign) ⇒ byte-identical traces.
    auto config = chaos_config(506);
    config.peers = 300;
    add_fault(config, "stun_blackout at=1 duration=0.5");
    add_campaign(config, "seed=7 waves=2 mean_concurrent=2 start=1.5 spacing=1 duration=0.1 "
                         "fraction=0.15");

    int faults_applied = -1;
    const auto run_once = [&](const std::string& path) {
        Simulation s(config);
        s.run();
        EXPECT_GT(s.faults().faults_applied(), 1) << "campaign waves must have landed";
        if (faults_applied < 0)
            faults_applied = s.faults().faults_applied();
        else
            EXPECT_EQ(s.faults().faults_applied(), faults_applied)
                << "expansion drew a different storm on the second run";
        ASSERT_TRUE(trace::save_dataset(s.trace(), s.geodb(), path));
    };
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_a = (dir / "ns_campaign_determinism_a.nstrace").string();
    const std::string path_b = (dir / "ns_campaign_determinism_b.nstrace").string();
    run_once(path_a);
    run_once(path_b);
    const auto read_all = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string bytes_a = read_all(path_a);
    ASSERT_GT(bytes_a.size(), 1000u);
    EXPECT_TRUE(bytes_a == read_all(path_b)) << "campaign runs differ between identical configs";
    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
}

TEST(Chaos, CampaignDeliveryHoldsUnderConcurrentFaults) {
    // The §3.8 claim under compound failure: ~2 concurrent faults per wave
    // must not collapse delivery among the downloads users waited for.
    auto config = chaos_config(507);
    add_campaign(config, "seed=11 waves=2 mean_concurrent=2 start=1.5 spacing=1 duration=0.1 "
                         "fraction=0.15");
    Simulation s(config);
    s.run();
    EXPECT_GT(s.faults().faults_applied(), 1);

    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50);
    const double served =
        outcomes.all.completed + outcomes.all.failed_system + outcomes.all.failed_other;
    ASSERT_GT(served, 0.0);
    EXPECT_GE(outcomes.all.completed / served, 0.95)
        << "delivery under a 2-concurrent-fault campaign (ISSUE 7 acceptance)";
}

TEST(Chaos, RecoveryReportMeasuresTheFaultTimeline) {
    // The v8 trace carries onset/restore records; recovery_report must pair
    // them, place them at the plan's times, and produce a recovery verdict.
    auto config = chaos_config(508);
    add_fault(config, "edge_outage at=2 duration=0.125 region=all");
    add_fault(config, "mass_churn at=2.5 fraction=0.2");
    Simulation s(config);
    s.run();

    const auto report = analysis::recovery_report(s.trace());
    ASSERT_EQ(report.faults.size(), 2u);
    const auto& outage = report.faults[0];
    EXPECT_EQ(outage.kind, analysis::TracedFaultKind::edge_outage);
    ASSERT_TRUE(outage.evaluable);
    EXPECT_NEAR(outage.onset.seconds() / 86400.0, 2.0, 1e-6);
    EXPECT_NEAR(outage.restore.seconds() / 86400.0, 2.125, 1e-6);
    EXPECT_GE(outage.min_delivery_during, 0.0);
    EXPECT_LE(outage.min_delivery_during, 1.0);
    EXPECT_GE(outage.recover_hours, 0.0) << "a 3-hour outage must recover within the horizon";

    const auto& churn = report.faults[1];
    EXPECT_EQ(churn.kind, analysis::TracedFaultKind::mass_churn);
    ASSERT_TRUE(churn.evaluable);
    EXPECT_EQ(churn.restore, churn.onset) << "one-shot faults recover from their onset";
    EXPECT_TRUE(report.all_recovered);
    EXPECT_GE(report.worst_recover_hours, 0.0);
}

TEST(Chaos, CampaignScenarioRoundTripsAndSmokes) {
    // The shipped campaign scenario parses, the campaign spec round-trips
    // through describe_scenario, and a reduced-scale run completes with the
    // fault timeline visible to the recovery analysis.
    const auto loaded = load_scenario(NS_SOURCE_DIR "/scenarios/chaos_campaign.ini");
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    auto config = loaded.value();
    ASSERT_EQ(config.campaigns.size(), 1u);
    ASSERT_EQ(config.faults.events.size(), 1u);
    EXPECT_EQ(config.campaigns[0].seed, 7u);

    const std::string described = describe_scenario(config);
    const auto reparsed = parse_scenario(described);
    ASSERT_TRUE(reparsed.ok()) << reparsed.error().message;
    ASSERT_EQ(reparsed.value().campaigns.size(), 1u);
    EXPECT_EQ(fault::to_string(reparsed.value().campaigns[0]),
              fault::to_string(config.campaigns[0]));

    config.peers = 500;  // smoke scale
    config.as_graph.total_ases = 200;
    Simulation s(config);
    s.run();
    EXPECT_GT(s.faults().faults_applied(), 1);
    EXPECT_FALSE(analysis::recovery_report(s.trace()).faults.empty());
}

TEST(Chaos, RegionalOutageScenarioSmokes) {
    // The shipped chaos scenario parses, carries its fault plan, and runs
    // (at reduced population) without wedging or collapsing.
    const auto loaded = load_scenario(NS_SOURCE_DIR "/scenarios/chaos_regional_outage.ini");
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    auto config = loaded.value();
    ASSERT_EQ(config.faults.events.size(), 4u);
    EXPECT_EQ(config.faults.events[0].kind, fault::FaultKind::region_partition);
    EXPECT_EQ(config.faults.events[1].kind, fault::FaultKind::edge_outage);

    config.peers = 500;  // smoke scale; the .ini's own scale is for benches
    config.as_graph.total_ases = 200;
    Simulation s(config);
    s.run();

    EXPECT_EQ(s.faults().faults_applied(), 4);
    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50);
    EXPECT_GT(outcomes.all.completed, 0.6);
    EXPECT_GT(analysis::degradation_stats(s.trace()).total, 0);
}

}  // namespace
}  // namespace netsession
