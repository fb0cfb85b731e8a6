// Runtime invariant auditor: the cross-layer contracts hold across the
// chaos matrix (zero violations, faults or not), the counters account for
// every sweep, and enabling the auditor cannot perturb trace bytes — it is
// a reader with no RNG, same passivity contract as obs::Sampler.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "analysis/measurement.hpp"
#include "core/simulation.hpp"
#include "fault/fault_spec.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

SimulationConfig audit_config(std::uint64_t seed) {
    SimulationConfig config;
    config.seed = seed;
    config.peers = 500;
    config.behavior.warmup = sim::days(1.0);
    config.behavior.window = sim::days(3.0);
    config.behavior.downloads_per_peer_per_month = 25.0;
    config.as_graph.total_ases = 200;
    // Non-fatal in-process: the test asserts on the counters instead of
    // relying on abort() (the CI audit flavour runs the fatal build).
    config.audit.fatal = false;
    config.audit.interval = sim::hours(3.0);
    return config;
}

void add_fault(SimulationConfig& config, const std::string& spec) {
    auto event = fault::parse_fault_event(spec);
    ASSERT_TRUE(event.ok()) << spec << ": " << (event.ok() ? "" : event.error().message);
    config.faults.events.push_back(event.value());
}

TEST(Auditor, CleanRunHasNoViolations) {
    auto config = audit_config(601);
    Simulation s(config);
    s.run();
    // Two same-instant sweeps: persistence windows (directory, stall) are
    // measured in simulated time, so back-to-back calls must not self-confirm.
    s.auditor().audit_now();
    s.auditor().audit_now();
    EXPECT_GE(s.auditor().counters().audits_run, 2);
    EXPECT_EQ(s.auditor().counters().total(), 0)
        << (s.auditor().reports().empty() ? "" : s.auditor().reports().front());
}

TEST(Auditor, FullChaosMatrixAuditsClean) {
    // Every fault class in one run — partitions healing mid-transfer, a DN
    // restart RE-ADD storm, layered AS degradations, churn, a crowd — and
    // the cross-layer invariants must hold at the end-state sweep.
    auto config = audit_config(602);
    add_fault(config, "edge_outage at=1.5 duration=0.2 region=all");
    add_fault(config, "region_partition at=1.6 duration=0.2 region=6");
    add_fault(config, "as_degradation at=1.5 duration=1 asn=3 latency_x=4 rate_x=0.25 loss=0.02");
    add_fault(config, "as_degradation at=2 duration=1 asn=3 latency_x=2 rate_x=0.5 loss=0");
    add_fault(config, "stun_blackout at=2 duration=0.5");
    add_fault(config, "mass_churn at=2.2 fraction=0.3");
    add_fault(config, "cn_outage at=2.5 duration=0.2 region=all");
    add_fault(config, "dn_outage at=3 duration=0.2 region=all");
    add_fault(config, "flash_crowd at=3.3 fraction=0.2");
    Simulation s(config);
    s.run();
    EXPECT_EQ(s.faults().faults_applied(), 9);

    s.auditor().audit_now();
    s.auditor().audit_now();
    EXPECT_EQ(s.auditor().counters().total(), 0)
        << (s.auditor().reports().empty() ? "" : s.auditor().reports().front());
    const auto outcomes = analysis::outcome_stats(s.trace());
    EXPECT_GT(outcomes.all.n, 50) << "the audited run must still be a real workload";
}

TEST(Auditor, CampaignRunAuditsClean) {
    auto config = audit_config(603);
    auto spec = fault::parse_campaign(
        "seed=7 waves=2 mean_concurrent=2 start=1.5 spacing=1 duration=0.1 fraction=0.15");
    ASSERT_TRUE(spec.ok()) << spec.error().message;
    config.campaigns.push_back(spec.value());
    Simulation s(config);
    s.run();
    EXPECT_GT(s.faults().faults_applied(), 0) << "the campaign must have expanded into faults";

    s.auditor().audit_now();
    s.auditor().audit_now();
    EXPECT_EQ(s.auditor().counters().total(), 0)
        << (s.auditor().reports().empty() ? "" : s.auditor().reports().front());
}

TEST(Auditor, CountersAccountForEverySweep) {
    auto config = audit_config(604);
    config.peers = 200;
    config.behavior.window = sim::days(1.0);
    Simulation s(config);
    s.run();
    const std::int64_t before = s.auditor().counters().audits_run;
    s.auditor().audit_now();
    s.auditor().audit_now();
    s.auditor().audit_now();
    EXPECT_EQ(s.auditor().counters().audits_run, before + 3);
}

TEST(Auditor, EnablingAuditorDoesNotChangeTraceBytes) {
    // Passivity: the same scenario serialized with the periodic auditor on
    // and off must produce identical bytes — every login, download, transfer
    // and fault record and every sampled metric untouched. In NS_AUDIT=OFF
    // builds both runs simply never audit — the comparison still pins
    // determinism.
    const auto run_once = [](bool audit_on, const std::string& path) {
        auto config = audit_config(605);
        config.peers = 300;
        add_fault(config, "edge_outage at=1.5 duration=0.2 region=all");
        add_fault(config, "mass_churn at=2 fraction=0.3");
        config.audit.enabled = audit_on;
        config.audit.interval = sim::hours(1.0);
        Simulation s(config);
        s.run();
        trace::Dataset dataset;
        dataset.log = s.trace();
        s.geodb().for_each([&](net::IpAddr ip, const net::GeoRecord& rec) {
            dataset.geodb.register_ip(ip, rec);
        });
        ASSERT_TRUE(trace::save_dataset(dataset, path));
    };
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_on = (dir / "ns_audit_passivity_on.nstrace").string();
    const std::string path_off = (dir / "ns_audit_passivity_off.nstrace").string();
    run_once(true, path_on);
    run_once(false, path_off);
    const auto read_all = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string bytes_on = read_all(path_on);
    ASSERT_GT(bytes_on.size(), 1000u);
    EXPECT_TRUE(bytes_on == read_all(path_off))
        << "the auditor perturbed the simulation it was only meant to observe";
    std::filesystem::remove(path_on);
    std::filesystem::remove(path_off);
}

}  // namespace
}  // namespace netsession
