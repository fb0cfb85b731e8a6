// End-to-end integration: a small full deployment, with cross-cutting
// invariants over the resulting trace.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unordered_set>

#include "analysis/measurement.hpp"
#include "core/simulation.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

SimulationConfig small_config(std::uint64_t seed = 11) {
    SimulationConfig config;
    config.seed = seed;
    config.peers = 800;
    config.behavior.warmup = sim::days(2.0);
    config.behavior.window = sim::days(4.0);
    config.behavior.downloads_per_peer_per_month = 25.0;  // dense demand at tiny scale
    config.as_graph.total_ases = 200;
    return config;
}

struct SharedRun : ::testing::Test {
    static Simulation& sim() {
        static Simulation* instance = [] {
            auto* s = new Simulation(small_config());
            s->run();
            return s;
        }();
        return *instance;
    }
};

TEST_F(SharedRun, ProducesActivityOfEveryKind) {
    const auto& log = sim().trace();
    EXPECT_GT(log.downloads().size(), 100u);
    EXPECT_GT(log.logins().size(), 1000u);
    EXPECT_GT(log.registrations().size(), 0u);
    EXPECT_GT(log.transfers().size(), 0u) << "peers must exchange content";
}

TEST_F(SharedRun, DownloadRecordsAreInternallyConsistent) {
    for (const auto& d : sim().trace().downloads()) {
        EXPECT_GE(d.bytes_from_infrastructure, 0);
        EXPECT_GE(d.bytes_from_peers, 0);
        EXPECT_GE(d.end.us, d.start.us);
        EXPECT_GE(d.peers_initially_returned, 0);
        EXPECT_LE(d.peers_initially_returned, 40) << "up to 40 peers are returned (§3.7)";
        if (d.outcome == trace::DownloadOutcome::completed) {
            // A completed download moved at least the object; corruption
            // re-fetches allow a modest overshoot.
            EXPECT_GE(d.total_bytes(), d.object_size);
            EXPECT_LE(d.total_bytes(), d.object_size + d.object_size / 4 + 10_MB);
        } else {
            EXPECT_LE(d.total_bytes(), d.object_size + d.object_size / 4 + 10_MB);
        }
        if (!d.p2p_enabled) { EXPECT_EQ(d.bytes_from_peers, 0); }
        const double eff = d.peer_efficiency();
        EXPECT_GE(eff, 0.0);
        EXPECT_LE(eff, 1.0);
    }
}

TEST_F(SharedRun, EdgeLedgerCoversReportedInfraBytes) {
    // Every accepted report's infrastructure bytes are backed by the trusted
    // edge ledger (which is exactly what the accounting filter enforces).
    EXPECT_GT(sim().accounting().accepted(), 0);
    EXPECT_EQ(sim().accounting().rejected(), 0) << "honest population, no rejections";
}

TEST_F(SharedRun, TransfersReferenceRealPeersAndResolve) {
    const auto& geodb = sim().geodb();
    for (const auto& t : sim().trace().transfers()) {
        EXPECT_GT(t.bytes, 0);
        EXPECT_NE(t.from_guid, t.to_guid);
        EXPECT_TRUE(geodb.lookup(t.from_ip).has_value());
        EXPECT_TRUE(geodb.lookup(t.to_ip).has_value());
    }
}

TEST_F(SharedRun, LoginsResolveThroughGeoDatabase) {
    const auto& geodb = sim().geodb();
    std::size_t checked = 0;
    for (const auto& l : sim().trace().logins()) {
        ASSERT_TRUE(geodb.lookup(l.ip).has_value());
        if (++checked > 2000) break;
    }
}

TEST_F(SharedRun, PeerBytesMatchBetweenDownloadsAndTransfers) {
    // The per-source transfer detail must re-aggregate to the download
    // totals (the §6.1 analysis depends on this).
    Bytes from_downloads = 0;
    for (const auto& d : sim().trace().downloads()) from_downloads += d.bytes_from_peers;
    Bytes from_transfers = 0;
    for (const auto& t : sim().trace().transfers()) from_transfers += t.bytes;
    // Transfers of downloads cut off by the window end may be missing.
    EXPECT_NEAR(static_cast<double>(from_transfers), static_cast<double>(from_downloads),
                0.1 * static_cast<double>(from_downloads) + 1e8);
}

TEST_F(SharedRun, MeasurementPipelineRunsOnRealTrace) {
    const auto& log = sim().trace();
    const analysis::LoginIndex logins(log);
    const auto overall = analysis::overall_stats(log, sim().geodb());
    EXPECT_EQ(overall.downloads_initiated, log.downloads().size());
    EXPECT_LE(overall.distinct_countries, net::countries().size());
    EXPECT_GT(overall.distinct_ases, 10u);

    const auto headline = analysis::headline_offload(log);
    EXPECT_GT(headline.p2p_enabled_byte_fraction, 0.2);
    EXPECT_LT(headline.p2p_enabled_file_fraction, 0.2);

    const auto outcomes = analysis::outcome_stats(log);
    EXPECT_GT(outcomes.all.completed, 0.7);

    const auto mobility = analysis::mobility_stats(log, logins, sim().geodb());
    EXPECT_GT(mobility.frac_single_as, 0.5);
    EXPECT_NEAR(mobility.frac_single_as + mobility.frac_two_as + mobility.frac_more_as, 1.0,
                1e-9);

    const auto balance = analysis::traffic_balance(log, sim().geodb(), &sim().as_graph());
    EXPECT_EQ(balance.intra_as_bytes + balance.inter_as_bytes, balance.total_p2p_bytes);
}

TEST(Simulation, DeterministicForSameSeed) {
    Simulation a(small_config(77));
    a.run();
    Simulation b(small_config(77));
    b.run();
    EXPECT_EQ(a.trace().downloads().size(), b.trace().downloads().size());
    EXPECT_EQ(a.trace().logins().size(), b.trace().logins().size());
    EXPECT_EQ(a.trace().transfers().size(), b.trace().transfers().size());
    Bytes bytes_a = 0, bytes_b = 0;
    for (const auto& d : a.trace().downloads()) bytes_a += d.total_bytes();
    for (const auto& d : b.trace().downloads()) bytes_b += d.total_bytes();
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Simulation, SerializedTraceIsByteIdenticalForSameSeed) {
    // The determinism contract is byte-level (docs/SIMULATOR.md §3): the same
    // seed must serialize to the same file, bit for bit. Count- and
    // total-level checks (above) miss order-sensitive data structures and
    // indeterminate padding in the raw record dump; this guard does not.
    auto config = small_config(88);
    config.peers = 300;
    config.behavior.window = sim::days(3.0);
    const auto run_once = [&](const std::string& path) {
        Simulation s(config);
        s.run();
        ASSERT_TRUE(trace::save_dataset(s.trace(), s.geodb(), path));
        EXPECT_GT(s.perf_stats().sim.dispatched, 0u);
        EXPECT_GT(s.perf_stats().flows.flows_completed, 0u);
    };
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_a = (dir / "ns_determinism_a.nstrace").string();
    const std::string path_b = (dir / "ns_determinism_b.nstrace").string();
    run_once(path_a);
    run_once(path_b);
    const auto read_all = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string bytes_a = read_all(path_a);
    const std::string bytes_b = read_all(path_b);
    ASSERT_GT(bytes_a.size(), 1000u);
    EXPECT_TRUE(bytes_a == bytes_b) << "serialized traces differ between identical runs";
    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
}

TEST(Simulation, DifferentSeedsDiffer) {
    Simulation a(small_config(101));
    a.run();
    Simulation b(small_config(102));
    b.run();
    Bytes bytes_a = 0, bytes_b = 0;
    for (const auto& d : a.trace().downloads()) bytes_a += d.total_bytes();
    for (const auto& d : b.trace().downloads()) bytes_b += d.total_bytes();
    EXPECT_NE(bytes_a, bytes_b);
}

TEST(Simulation, DisableP2pMakesEveryDownloadInfraOnly) {
    auto config = small_config(55);
    config.peers = 300;
    config.disable_p2p = true;
    Simulation s(config);
    s.run();
    EXPECT_GT(s.trace().downloads().size(), 20u);
    for (const auto& d : s.trace().downloads()) {
        EXPECT_FALSE(d.p2p_enabled);
        EXPECT_EQ(d.bytes_from_peers, 0);
    }
    EXPECT_TRUE(s.trace().transfers().empty());
}

TEST(Simulation, AttackersAreFilteredAtScale) {
    auto config = small_config(66);
    config.peers = 400;
    config.behavior.attacker_fraction = 0.2;
    Simulation s(config);
    s.run();
    EXPECT_GT(s.accounting().rejected(), 0)
        << "inflated reports must be caught by the edge cross-check";
    // Honest traffic still gets billed.
    EXPECT_GT(s.accounting().accepted(), s.accounting().rejected());
}

}  // namespace
}  // namespace netsession
