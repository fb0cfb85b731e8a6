// Run-to-run determinism differential over every shipped scenario preset.
//
// Each scenarios/*.ini runs twice at a truncated horizon. The oracle is the
// analysis pipeline's FNV-1a fingerprint plus the raw trace shape: the two
// runs must give equal fingerprints and equal entry counts — a fixed seed
// plus a fixed scenario gives a byte-identical trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "trace/serialize.hpp"

namespace netsession {
namespace {

std::vector<std::string> list_scenarios() {
    std::vector<std::string> names;
    for (const auto& entry :
         std::filesystem::directory_iterator(std::string(NS_SOURCE_DIR) + "/scenarios"))
        if (entry.path().extension() == ".ini") names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

/// One run's comparable surface.
struct RunResult {
    std::uint64_t fingerprint = 0;
    std::size_t downloads = 0;
    std::size_t logins = 0;
    std::size_t transfers = 0;
};

RunResult run_truncated(SimulationConfig config) {
    // Truncated horizon: the suite's power comes from breadth (every
    // scenario), not from long windows.
    config.peers = std::min(config.peers, 300);
    config.as_graph.total_ases = std::min(config.as_graph.total_ases, 300);
    config.behavior.warmup = std::min(config.behavior.warmup, sim::days(0.3));
    config.behavior.window = std::min(config.behavior.window, sim::days(0.8));
    config.behavior.downloads_per_peer_per_month =
        std::max(config.behavior.downloads_per_peer_per_month, 30.0);

    Simulation sim(config);
    sim.run();

    trace::Dataset dataset;
    dataset.log = sim.trace();
    sim.geodb().for_each([&](net::IpAddr ip, const net::GeoRecord& rec) {
        dataset.geodb.register_ip(ip, rec);
    });
    const analysis::PipelineResult pipeline =
        analysis::run_full_pipeline(dataset, &sim.as_graph());

    RunResult r;
    r.fingerprint = analysis::fingerprint(pipeline);
    r.downloads = sim.trace().downloads().size();
    r.logins = sim.trace().logins().size();
    r.transfers = sim.trace().transfers().size();
    return r;
}

class DeterminismDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismDifferential, RepeatRunsAreByteIdentical) {
    const std::string path =
        std::string(NS_SOURCE_DIR) + "/scenarios/" + GetParam() + ".ini";
    const auto loaded = load_scenario(path);
    ASSERT_TRUE(loaded.ok()) << (loaded.ok() ? "" : loaded.error().message);

    const RunResult a = run_truncated(loaded.value());
    const RunResult b = run_truncated(loaded.value());
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.downloads, b.downloads);
    EXPECT_EQ(a.logins, b.logins);
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_GT(a.logins, 0u) << "truncated run must still produce activity";
}

INSTANTIATE_TEST_SUITE_P(Scenarios, DeterminismDifferential,
                         ::testing::ValuesIn(list_scenarios()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                             return name;
                         });

}  // namespace
}  // namespace netsession
