// UserDriver behaviour model, verified end-to-end through small deployments
// with exaggerated knobs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/guid_graph.hpp"
#include "analysis/login_index.hpp"
#include "analysis/measurement.hpp"
#include "core/simulation.hpp"
#include "workload/hot_roster.hpp"

namespace netsession::workload {
namespace {

SimulationConfig base_config(std::uint64_t seed) {
    SimulationConfig config;
    config.seed = seed;
    config.peers = 400;
    config.as_graph.total_ases = 200;
    config.behavior.warmup = sim::days(0.5);
    config.behavior.window = sim::days(3.0);
    config.behavior.downloads_per_peer_per_month = 3.0;
    return config;
}

TEST(Behavior, SessionsProduceLoginsAtPlausibleRate) {
    Simulation s(base_config(3));
    s.run();
    const double logins_per_peer_day =
        static_cast<double>(s.trace().logins().size()) / 400.0 / 3.0;
    // sessions_per_day=1.4 plus reconnects; expect the same order of magnitude.
    EXPECT_GT(logins_per_peer_day, 0.5);
    EXPECT_LT(logins_per_peer_day, 4.0);
}

TEST(Behavior, LoginsFollowTheDiurnalPattern) {
    Simulation s(base_config(5));
    s.run();
    // Local-hour histogram of logins: evening must dominate the night trough.
    double night = 0, evening = 0;
    for (const auto& l : s.trace().logins()) {
        const auto geo = s.geodb().lookup(l.ip);
        if (!geo) continue;
        const double offset = std::round(geo->location.point.lon / 15.0);
        double h = std::fmod(l.time.hours() + offset, 24.0);
        if (h < 0) h += 24.0;
        if (h >= 2.0 && h < 6.0) ++night;
        if (h >= 18.0 && h < 22.0) ++evening;
    }
    ASSERT_GT(evening, 0);
    EXPECT_GT(evening, 2.0 * night) << "evening peak vs night trough (Fig 3c)";
}

TEST(Behavior, MobilityClassesShowUpInTheTrace) {
    auto config = base_config(7);
    config.behavior.frac_dual_far = 0.5;  // exaggerate
    config.behavior.frac_traveler = 0.2;
    Simulation s(config);
    s.run();
    const analysis::LoginIndex logins(s.trace());
    const auto m = analysis::mobility_stats(s.trace(), logins, s.geodb());
    EXPECT_LT(m.frac_single_as, 0.7) << "with half the users dual-homed, many multi-AS GUIDs";
    EXPECT_GT(m.frac_more_as + m.frac_two_as, 0.3);
}

TEST(Behavior, StationaryPopulationStaysPut) {
    auto config = base_config(9);
    config.behavior.frac_dual_near = 0;
    config.behavior.frac_dual_far = 0;
    config.behavior.frac_traveler = 0;
    Simulation s(config);
    s.run();
    const analysis::LoginIndex logins(s.trace());
    const auto m = analysis::mobility_stats(s.trace(), logins, s.geodb());
    EXPECT_DOUBLE_EQ(m.frac_single_as, 1.0);
    EXPECT_DOUBLE_EQ(m.frac_within_10km, 1.0);
}

TEST(Behavior, SettingTogglesAreObservedBetweenLogins) {
    auto config = base_config(11);
    config.behavior.toggle_prob_initially_disabled = 0.5;  // exaggerate
    config.behavior.toggle_prob_initially_enabled = 0.5;
    Simulation s(config);
    s.run();
    const analysis::LoginIndex logins(s.trace());
    const auto t3 = analysis::upload_setting_changes(logins);
    const auto changed = t3.initially_disabled[1] + t3.initially_disabled[2] +
                         t3.initially_enabled[1] + t3.initially_enabled[2];
    EXPECT_GT(changed, 50) << "half the population toggles inside the window";
}

TEST(Behavior, AnomalyMachineryYieldsFig12Trees) {
    auto config = base_config(13);
    config.behavior.frac_update_failure = 0.2;  // exaggerate all anomalies
    config.behavior.frac_restored_backup = 0.1;
    config.behavior.frac_reimaged = 0.1;
    config.behavior.frac_irregular = 0.1;
    config.behavior.sessions_per_day = 4.0;  // enough starts for >=3 vertices
    Simulation s(config);
    s.run();
    const auto stats = analysis::classify_guid_graphs(s.trace());
    ASSERT_GT(stats.graphs, 100);
    EXPECT_GT(stats.trees(), 20) << "rollbacks visible in the window";
    EXPECT_GT(stats.long_plus_short, 0);
    EXPECT_GT(stats.several_branches, 0);
    EXPECT_GT(stats.irregular, 0);
}

TEST(Behavior, AlwaysOnMachinesStayOnline) {
    auto config = base_config(17);
    config.behavior.frac_always_on = 1.0;
    Simulation s(config);
    s.run();
    int online = 0;
    for (const auto& c : s.driver().clients())
        if (c->running()) ++online;
    EXPECT_GT(online, 200) << "an always-on population keeps most machines up";
}

TEST(Behavior, AttackerFractionWiresTamperedReports) {
    auto config = base_config(19);
    config.behavior.attacker_fraction = 1.0;  // everyone lies
    config.behavior.downloads_per_peer_per_month = 20.0;
    Simulation s(config);
    s.run();
    // Reports for downloads with ~zero infrastructure bytes inflate to a
    // few bytes and slip under the filter's slack — harmlessly. Everything
    // with a real infra component must be caught.
    EXPECT_LT(s.accounting().accepted(), 5);
    EXPECT_GT(s.accounting().rejected(), 20);
}

TEST(Behavior, ProviderLoyaltyConcentratesDownloads) {
    auto config = base_config(21);
    config.behavior.provider_loyalty = 1.0;
    config.behavior.downloads_per_peer_per_month = 20.0;
    Simulation s(config);
    s.run();
    // With full loyalty, each GUID downloads from exactly one provider.
    std::unordered_map<Guid, std::unordered_set<std::uint32_t>> per_guid;
    for (const auto& d : s.trace().downloads()) per_guid[d.guid].insert(d.cp_code.value);
    int multi = 0;
    for (const auto& [guid, cps] : per_guid)
        if (cps.size() > 1) ++multi;
    EXPECT_EQ(multi, 0);
}

TEST(HotRoster, VisitKeepsEachUserWithItsClientAcrossRemovals) {
    // crash_peers removes clients from inside the visit. The swap-remove
    // moves another user into the freed slot, and an add reuses the slot
    // past the end; the visit must still hand every user its own client.
    // Distinct, suitably aligned addresses stand in for the clients; the
    // roster never dereferences them.
    struct alignas(64) Slot {
        char bytes[64];
    };
    std::array<Slot, 8> storage{};
    const auto client_of = [&](std::uint32_t user) {
        return reinterpret_cast<peer::NetSessionClient*>(&storage[user]);
    };
    HotRoster roster;
    roster.add(0, client_of(0));
    roster.add(1, client_of(1));
    std::vector<std::uint32_t> visited;
    roster.for_each_in_creation_order([&](std::uint32_t user, peer::NetSessionClient* client) {
        visited.push_back(user);
        EXPECT_EQ(client, client_of(user)) << "user " << user << " got another user's client";
        if (user == 0) {
            roster.remove(0);
            roster.add(5, client_of(5));
        }
    });
    EXPECT_EQ(visited, (std::vector<std::uint32_t>{0, 1}));
    EXPECT_EQ(roster.size(), 2u);
}

}  // namespace
}  // namespace netsession::workload
