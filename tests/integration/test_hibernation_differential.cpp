// Differential oracle for client hibernation at full-system scale: the same
// scenario — churn faults and a flash crowd included, so mass demotions and
// wake-on-abort paths all fire — must serialize byte-identical traces with
// hibernation on and off. Hibernation is a memory layout, not a behaviour.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/simulation.hpp"
#include "fault/fault_spec.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

SimulationConfig differential_config() {
    SimulationConfig config;
    config.seed = 909;
    config.peers = 400;
    config.as_graph.total_ases = 200;
    config.behavior.warmup = sim::days(1.0);
    config.behavior.window = sim::days(2.5);
    config.behavior.downloads_per_peer_per_month = 25.0;
    for (const char* spec : {"flash_crowd at=1.2 fraction=0.3", "mass_churn at=1.5 fraction=0.4",
                             "mass_churn at=2.1 fraction=0.25"}) {
        auto event = fault::parse_fault_event(spec);
        if (event.ok()) config.faults.events.push_back(event.value());
        EXPECT_TRUE(event.ok()) << spec;
    }
    return config;
}

std::string run_and_serialize(SimulationConfig config, bool hibernate_offline,
                              const std::string& tag) {
    config.client.hibernate_offline = hibernate_offline;
    Simulation s(config);
    s.run();
    trace::Dataset dataset;
    dataset.log = s.trace();
    s.geodb().for_each(
        [&](net::IpAddr ip, const net::GeoRecord& rec) { dataset.geodb.register_ip(ip, rec); });
    const auto path =
        (std::filesystem::temp_directory_path() / ("ns_hib_diff_" + tag + ".nstrace")).string();
    EXPECT_TRUE(trace::save_dataset(dataset, path));
    std::ifstream in(path, std::ios::binary);
    std::string bytes(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::filesystem::remove(path);
    return bytes;
}

TEST(HibernationDifferential, TracesAreByteIdenticalWithHibernationOnAndOff) {
    const SimulationConfig config = differential_config();
    const std::string hibernating = run_and_serialize(config, true, "h");
    const std::string resident = run_and_serialize(config, false, "n");
    ASSERT_GT(hibernating.size(), 1000u);
    EXPECT_TRUE(hibernating == resident) << "hibernation changed trace bytes";
    // And the hibernating build is itself repeat-deterministic.
    const std::string repeat = run_and_serialize(config, true, "r");
    EXPECT_TRUE(hibernating == repeat) << "hibernating run not deterministic";
}

TEST(HibernationDifferential, ChurnedPopulationActuallyHibernates) {
    // Guard against the differential test passing vacuously: with the knob on
    // (the default), offline clients really are demoted at the end of a run.
    SimulationConfig config = differential_config();
    Simulation s(config);
    s.run();
    std::size_t cold = 0, total = 0;
    for (const auto& client : s.driver().clients()) {
        ++total;
        if (client->hibernated()) ++cold;
    }
    ASSERT_GT(total, 0u);
    EXPECT_GT(cold, total / 2) << "most of a diurnal population is offline, hence cold";
    EXPECT_GT(s.registry().cold().records(), 0u);
}

}  // namespace
}  // namespace netsession
