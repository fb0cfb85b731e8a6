// Scenario file parsing and round trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/scenario_io.hpp"
#include "net/world_data.hpp"

namespace netsession {
namespace {

TEST(ScenarioIo, ParsesKnobsAndComments) {
    const auto result = parse_scenario(R"(
# a comment line
peers = 1234          # trailing comment
window_days = 7.5
disable_p2p = true
random_selection = yes
seed = 99
max_peer_sources = 4
)");
    ASSERT_TRUE(result.ok()) << result.error().message;
    const SimulationConfig& c = result.value();
    EXPECT_EQ(c.peers, 1234);
    EXPECT_DOUBLE_EQ(c.behavior.window.seconds(), 7.5 * 86400);
    EXPECT_TRUE(c.disable_p2p);
    EXPECT_EQ(c.control.selection.strategy, control::SelectionPolicy::Strategy::random);
    EXPECT_EQ(c.seed, 99u);
    EXPECT_EQ(c.client.max_peer_sources, 4);
}

TEST(ScenarioIo, EmptyTextGivesDefaults) {
    const auto result = parse_scenario("");
    ASSERT_TRUE(result.ok());
    const SimulationConfig defaults;
    EXPECT_EQ(result.value().peers, defaults.peers);
    EXPECT_EQ(result.value().seed, defaults.seed);
    EXPECT_FALSE(result.value().disable_p2p);
}

TEST(ScenarioIo, UnknownKeyIsAnError) {
    const auto result = parse_scenario("peerz = 100\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unknown key"), std::string::npos);
    EXPECT_NE(result.error().message.find("line 1"), std::string::npos);
}

TEST(ScenarioIo, BadValueIsAnError) {
    EXPECT_FALSE(parse_scenario("peers = lots\n").ok());
    EXPECT_FALSE(parse_scenario("disable_p2p = maybe\n").ok());
    EXPECT_FALSE(parse_scenario("peers 100\n").ok()) << "missing '='";
}

TEST(ScenarioIo, DescribeRoundTrips) {
    SimulationConfig config;
    config.peers = 777;
    config.seed = 31337;
    config.behavior.warmup = sim::days(3.25);
    config.disable_p2p = true;
    config.control.cross_region_threshold = 0;
    const auto result = parse_scenario(describe_scenario(config));
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().peers, 777);
    EXPECT_EQ(result.value().seed, 31337u);
    EXPECT_DOUBLE_EQ(result.value().behavior.warmup.seconds(), 3.25 * 86400);
    EXPECT_TRUE(result.value().disable_p2p);
    EXPECT_EQ(result.value().control.cross_region_threshold, 0);
}

TEST(ScenarioIo, LargeIntegersRoundTripExactly) {
    SimulationConfig config;
    config.seed = (std::uint64_t{1} << 63) + 1;
    config.peers = 1234567;
    const std::string described = describe_scenario(config);
    EXPECT_NE(described.find("seed = 9223372036854775809"), std::string::npos);
    EXPECT_NE(described.find("peers = 1234567"), std::string::npos);
    const auto result = parse_scenario(described);
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().seed, config.seed);
    EXPECT_EQ(result.value().peers, 1234567);
}

TEST(ScenarioIo, IntegerKnobsLoadExactlyOrFail) {
    // Integer knobs take whole decimal values inside their range; anything
    // else is a parse error, never a rounded, wrapped or crashing value.
    const std::string countries = std::to_string(net::countries().size());
    const std::string too_few_ases = std::to_string(net::countries().size() - 1);
    struct Case {
        std::string line;
        bool loads;
    };
    const std::vector<Case> cases = {
        {"seed = 1234567", true},
        {"peers = 1234567", true},
        {"seed = 9007199254740993", true},
        {"seed = 18446744073709551615", true},
        {"seed = 18446744073709551616", false},
        {"seed = -1", false},
        {"peers = 1e12", false},
        {"peers = 2147483648", false},
        {"peers = 2.5", false},
        {"peers = -5", false},
        {"max_pieces = 1", true},
        {"max_pieces = 0", false},
        {"max_pieces = -1", false},
        {"total_ases = " + countries, true},
        {"total_ases = " + too_few_ases, false},
        {"total_ases = 4097", false},
        {"threads = 1024", true},
        {"threads = 1025", false},
        {"threads = -1", false},
        {"max_peer_sources = 12abc", false},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.line);
        const auto result = parse_scenario(c.line + "\n");
        ASSERT_EQ(result.ok(), c.loads) << (result.ok() ? "" : result.error().message);
        if (c.loads) {
            // The loaded value prints back as the exact input.
            EXPECT_NE(describe_scenario(result.value()).find(c.line + "  #"), std::string::npos);
        } else {
            EXPECT_NE(result.error().message.find("bad value"), std::string::npos);
        }
    }
}

TEST(ScenarioIo, ShardsKeyIsUnknown) {
    const auto result = parse_scenario("shards = 4\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.error().message.find("unknown key 'shards'"), std::string::npos);
}

TEST(ScenarioIo, TemplateIsLoadable) {
    const std::string path = ::testing::TempDir() + "/scenario.ini";
    ASSERT_TRUE(write_scenario_template(path));
    const auto result = load_scenario(path);
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result.value().peers, SimulationConfig{}.peers);
    std::remove(path.c_str());
}

TEST(ScenarioIo, MissingFileReportsNotFound) {
    const auto result = load_scenario("/definitely/not/here.ini");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code, Error::Code::not_found);
}

TEST(ScenarioIo, ShippedPresetsAllParse) {
    // The scenarios/ presets are part of the release; a template-format
    // change must not silently break them.
    for (const char* name :
         {"paper_standard.ini", "infrastructure_only.ini", "random_selection.ini",
          "under_attack.ini", "strict_local_dns.ini"}) {
        const std::string path = std::string(NS_SOURCE_DIR) + "/scenarios/" + name;
        const auto result = load_scenario(path);
        EXPECT_TRUE(result.ok()) << name << ": "
                                 << (result.ok() ? "" : result.error().message);
    }
    const auto attack =
        load_scenario(std::string(NS_SOURCE_DIR) + "/scenarios/under_attack.ini");
    ASSERT_TRUE(attack.ok());
    EXPECT_DOUBLE_EQ(attack.value().behavior.attacker_fraction, 0.1);
    const auto infra =
        load_scenario(std::string(NS_SOURCE_DIR) + "/scenarios/infrastructure_only.ini");
    ASSERT_TRUE(infra.ok());
    EXPECT_TRUE(infra.value().disable_p2p);
}

TEST(ScenarioIo, LoadedScenarioActuallyRuns) {
    const auto result = parse_scenario(R"(
peers = 150
window_days = 1
warmup_days = 0.2
downloads_per_peer_per_month = 40
seed = 5
)");
    ASSERT_TRUE(result.ok());
    Simulation sim(result.value());
    sim.run();
    EXPECT_GT(sim.trace().downloads().size(), 10u);
}

}  // namespace
}  // namespace netsession
