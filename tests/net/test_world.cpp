// World: host attachment, geo registration, latency model, message delivery.
#include <gtest/gtest.h>

#include "net/world.hpp"

namespace netsession::net {
namespace {

World make_world(sim::Simulator& sim) {
    AsGraphConfig config;
    config.total_ases = 200;
    return World(sim, AsGraph::generate(config, Rng(3)));
}

HostInfo host_in(World& w, std::string_view alpha2, Rng& rng) {
    const CountryInfo* c = find_country(alpha2);
    HostInfo info;
    info.attach.location = Location{c->id, 0, c->center};
    info.attach.asn = w.as_graph().pick_for_country(c->id, rng);
    info.up = mbps(2.0);
    info.down = mbps(16.0);
    return info;
}

TEST(World, CreateHostAllocatesAndRegistersIp) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(1);
    const HostId h = w.create_host(host_in(w, "DE", rng));
    const auto& info = w.host(h);
    EXPECT_NE(info.attach.ip.value, 0u);
    const auto geo = w.geodb().lookup(info.attach.ip);
    ASSERT_TRUE(geo.has_value());
    EXPECT_EQ(geo->asn, info.attach.asn);
    EXPECT_EQ(geo->location.country, info.attach.location.country);
}

TEST(World, ReattachAllocatesFreshIpAndRegistersIt) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(2);
    const HostId h = w.create_host(host_in(w, "DE", rng));
    const IpAddr old_ip = w.host(h).attach.ip;

    const CountryInfo* fr = find_country("FR");
    const Asn new_asn = w.as_graph().pick_for_country(fr->id, rng);
    w.reattach(h, Location{fr->id, 0, fr->center}, new_asn, NatType::symmetric);

    const auto& info = w.host(h);
    EXPECT_NE(info.attach.ip, old_ip);
    EXPECT_EQ(info.attach.asn, new_asn);
    EXPECT_EQ(info.attach.nat, NatType::symmetric);
    // Both addresses stay resolvable (the geo database is historical).
    EXPECT_TRUE(w.geodb().lookup(old_ip).has_value());
    EXPECT_TRUE(w.geodb().lookup(info.attach.ip).has_value());
}

TEST(World, LatencyGrowsWithDistance) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(3);
    const HostId de = w.create_host(host_in(w, "DE", rng));
    const HostId fr = w.create_host(host_in(w, "FR", rng));
    const HostId au = w.create_host(host_in(w, "AU", rng));
    EXPECT_LT(w.latency(de, fr).us, w.latency(de, au).us);
    EXPECT_GT(w.latency(de, fr).us, 0);
}

TEST(World, LatencyIsSymmetric) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(4);
    const HostId a = w.create_host(host_in(w, "BR", rng));
    const HostId b = w.create_host(host_in(w, "JP", rng));
    EXPECT_EQ(w.latency(a, b).us, w.latency(b, a).us);
}

TEST(World, SameAsIsFasterThanCrossAs) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(5);
    HostInfo a = host_in(w, "DE", rng);
    HostInfo b = a;  // identical location
    b.attach.asn = a.attach.asn;
    HostInfo c = a;
    // Find a different AS in the same country.
    while (c.attach.asn == a.attach.asn)
        c.attach.asn = w.as_graph().pick_for_country(a.attach.location.country, rng);
    const HostId ha = w.create_host(a);
    const HostId hb = w.create_host(b);
    const HostId hc = w.create_host(c);
    EXPECT_LT(w.latency(ha, hb).us, w.latency(ha, hc).us);
}

TEST(World, OverlappingAsDegradationsRestoreExactPreFaultState) {
    // Two degradation layers on the same AS — the shape a chaos campaign
    // produces — must compose while both are live and, once both are
    // removed (in either order), leave latency and capacities bit-identical
    // to the pre-fault values. Recompute-from-layers, never divide-back-out.
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(7);
    const HostInfo a_info = host_in(w, "DE", rng);
    const HostId a = w.create_host(a_info);
    const HostId b = w.create_host(host_in(w, "FR", rng));
    const Asn asn = a_info.attach.asn;

    const std::int64_t base_latency = w.latency(a, b).us;
    const Rate base_up = w.flows().up_capacity(a);
    const Rate base_down = w.flows().down_capacity(a);

    for (const bool reverse_order : {false, true}) {
        const std::uint32_t first = w.degrade_as(asn, 5.0, 0.2, 0.0);
        const std::uint32_t second = w.degrade_as(asn, 3.0, 0.5, 0.01);
        EXPECT_EQ(w.active_as_degradations(), 2);
        EXPECT_GT(w.latency(a, b).us, base_latency) << "factors must compose, not replace";
        EXPECT_LT(w.flows().up_capacity(a), base_up);

        w.restore_as(asn, reverse_order ? second : first);
        EXPECT_EQ(w.active_as_degradations(), 1);
        EXPECT_GT(w.latency(a, b).us, base_latency) << "one layer is still live";

        w.restore_as(asn, reverse_order ? first : second);
        EXPECT_EQ(w.active_as_degradations(), 0);
        EXPECT_EQ(w.latency(a, b).us, base_latency);
        EXPECT_EQ(w.flows().up_capacity(a), base_up);
        EXPECT_EQ(w.flows().down_capacity(a), base_down);
    }
}

TEST(World, RestoreAllLayersAtOnceIsExactToo) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(8);
    const HostInfo a_info = host_in(w, "US", rng);
    const HostId a = w.create_host(a_info);
    const HostId b = w.create_host(host_in(w, "JP", rng));
    const std::int64_t base_latency = w.latency(a, b).us;
    const Rate base_up = w.flows().up_capacity(a);

    (void)w.degrade_as(a_info.attach.asn, 2.0, 0.5, 0.02);
    (void)w.degrade_as(a_info.attach.asn, 4.0, 0.25, 0.0);
    w.restore_as(a_info.attach.asn);  // blanket restore
    EXPECT_EQ(w.active_as_degradations(), 0);
    EXPECT_EQ(w.latency(a, b).us, base_latency);
    EXPECT_EQ(w.flows().up_capacity(a), base_up);
}

TEST(World, NestedPartitionsHealBackToFullReachability) {
    // A campaign can partition region A<->B while A is also cut off from
    // everyone (region=all). Cuts nest by count: healing one leaves the
    // other in force; healing both — in either order — restores exact
    // pre-fault reachability and message delivery.
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(9);
    const HostId de = w.create_host(host_in(w, "DE", rng));  // EU region
    const HostId us = w.create_host(host_in(w, "US", rng));
    const int eu = static_cast<int>(w.region_of(de).value);
    const int na = static_cast<int>(w.region_of(us).value);
    ASSERT_NE(eu, na);
    ASSERT_TRUE(w.reachable(de, us));

    for (const bool reverse_order : {false, true}) {
        w.partition_regions(eu, na);  // targeted cut
        w.partition_regions(eu, -1);  // nested: EU vs the world
        EXPECT_FALSE(w.reachable(de, us));

        if (reverse_order)
            w.heal_partition(eu, na);
        else
            w.heal_partition(eu, -1);
        EXPECT_FALSE(w.reachable(de, us)) << "the other cut is still in force";

        if (reverse_order)
            w.heal_partition(eu, -1);
        else
            w.heal_partition(eu, na);
        EXPECT_TRUE(w.reachable(de, us));

        bool delivered = false;
        w.send(de, us, [&] { delivered = true; });
        sim.run();
        EXPECT_TRUE(delivered) << "messages must flow again after full heal";
    }
}

TEST(World, SendDeliversAfterLatency) {
    sim::Simulator sim;
    World w = make_world(sim);
    Rng rng(6);
    const HostId a = w.create_host(host_in(w, "US", rng));
    const HostId b = w.create_host(host_in(w, "JP", rng));
    sim::SimTime delivered{};
    w.send(a, b, [&] { delivered = sim.now(); });
    sim.run();
    EXPECT_EQ(delivered.us, w.latency(a, b).us);
}

}  // namespace
}  // namespace netsession::net
