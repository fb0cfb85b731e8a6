// Golden-metrics regression: the full metric registry of a fixed small
// scenario, compared byte-for-byte against a checked-in JSON snapshot.
//
// Any intentional change to instrumentation (new metric, renamed series,
// different sampling semantics) or to the simulation itself shows up as a
// diff of tests/data/golden_metrics_small.json — review it, then regenerate
// with:
//
//     NS_REGEN_GOLDEN=1 ./build/tests/test_fidelity --gtest_filter='GoldenMetrics.*'
//
// and commit the updated snapshot alongside the change. The comparison is
// exact (obs::to_json formats doubles deterministically), so an unintended
// diff here means real nondeterminism or an accidental behaviour change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include "core/simulation.hpp"
#include "obs/export.hpp"

namespace netsession {
namespace {

const char* kGoldenPath = NS_SOURCE_DIR "/tests/data/golden_metrics_small.json";

TEST(GoldenMetrics, RegistryJsonMatchesSnapshot) {
    SimulationConfig config;
    config.seed = 7;
    config.peers = 300;
    config.behavior.warmup = sim::days(1.0);
    config.behavior.window = sim::days(2.0);
    config.behavior.downloads_per_peer_per_month = 25.0;
    config.as_graph.total_ases = 200;
    Simulation sim(config);
    sim.run();
    const std::string actual = obs::to_json(sim.metrics());

    if (std::getenv("NS_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << actual;
        GTEST_SKIP() << "regenerated " << kGoldenPath << " — review and commit the diff";
    }

    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden snapshot " << kGoldenPath
                           << " (regenerate with NS_REGEN_GOLDEN=1)";
    const std::string expected(std::istreambuf_iterator<char>(in), {});
    EXPECT_TRUE(actual == expected)
        << "metrics diverge from tests/data/golden_metrics_small.json.\n"
        << "If the change is intentional, regenerate with NS_REGEN_GOLDEN=1 and commit.\n"
        << "--- actual ---\n"
        << actual;
}

}  // namespace
}  // namespace netsession
