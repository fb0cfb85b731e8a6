// Hibernation: demoting an offline client to a cold serialized record and
// rehydrating it byte-identically (docs/SIMULATOR.md "Memory layout").
//
// The central oracle is differential: the same deterministic scenario run
// twice — once hibernating between sessions, once never hibernating
// (hibernate_offline = false) — must produce bitwise-equal download records
// and install-state chains. The remaining tests pin the cold-query surface
// (answers straight from the blob, no rehydration) and the pool accounting
// the runtime auditor cross-checks.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accounting/accounting.hpp"
#include "control/control_plane.hpp"
#include "edge/edge_network.hpp"
#include "peer/netsession_client.hpp"

namespace netsession::peer {
namespace {

struct Harness {
    sim::Simulator sim;
    net::World world;
    edge::Catalog catalog;
    ObjectId big{1, 1};    // p2p-enabled 400 MB object
    ObjectId small{2, 2};  // infra-only 10 MB object
    edge::EdgeNetwork edges;
    trace::TraceLog log;
    accounting::AccountingService accounting{log};
    control::ControlPlane plane;
    PeerRegistry registry;
    Rng rng{31};
    std::vector<std::unique_ptr<NetSessionClient>> clients;

    static net::AsGraph graph() {
        net::AsGraphConfig config;
        config.total_ases = 200;
        return net::AsGraph::generate(config, Rng(8));
    }

    Harness()
        : world(sim, graph()),
          edges((publish(catalog, big, small), world), catalog, edge::EdgeNetworkConfig{}),
          plane(world, edges.authority(), log, accounting, control::ControlPlaneConfig{},
                Rng(77)) {}

    static void publish(edge::Catalog& catalog, ObjectId big, ObjectId small) {
        {
            swarm::ContentObject object(big, CpCode{1000}, 11, 400_MB, 32);
            edge::ObjectPolicy policy;
            policy.p2p_enabled = true;
            catalog.publish(std::move(object), policy);
        }
        {
            swarm::ContentObject object(small, CpCode{1001}, 12, 10_MB, 8);
            catalog.publish(std::move(object), edge::ObjectPolicy{});
        }
    }

    NetSessionClient& add_client(ClientConfig config) {
        const net::CountryInfo* c = net::find_country("DE");
        net::HostInfo info;
        info.attach.location = net::Location{c->id, 0, c->center};
        info.attach.asn = world.as_graph().pick_for_country(c->id, rng);
        info.attach.nat = net::NatType::full_cone;
        info.up = mbps(4.0);
        info.down = mbps(24.0);
        const HostId host = world.create_host(info);
        clients.push_back(std::make_unique<NetSessionClient>(
            world, plane, edges, catalog, registry, Guid{rng.next(), rng.next()}, host, config,
            rng.child("client-" + std::to_string(clients.size()))));
        return *clients.back();
    }

    void settle(double seconds = 30.0) { sim.run_until(sim.now() + sim::seconds(seconds)); }
};

TEST(Hibernation, ClientsAreBornHibernatedAndStartRehydrates) {
    Harness h;
    NetSessionClient& c = h.add_client(ClientConfig{});
    EXPECT_TRUE(c.hibernated()) << "an offline install costs a cold record, not a Resident";
    EXPECT_EQ(c.open_downloads(), 0);

    c.start();
    EXPECT_FALSE(c.hibernated());
    h.settle();
    EXPECT_TRUE(c.running());

    c.hibernate();
    EXPECT_FALSE(c.hibernated()) << "hibernate() must be a no-op while running";

    c.stop();
    EXPECT_FALSE(c.hibernated()) << "stop() leaves state resident; the driver demotes";
    c.hibernate();
    EXPECT_TRUE(c.hibernated());
    c.hibernate();  // idempotent
    EXPECT_TRUE(c.hibernated());
}

TEST(Hibernation, DisabledByConfigIsANoOp) {
    Harness h;
    ClientConfig config;
    config.hibernate_offline = false;
    NetSessionClient& c = h.add_client(config);
    EXPECT_FALSE(c.hibernated()) << "with the knob off a client is always resident";
    c.start();
    h.settle();
    c.stop();
    c.hibernate();
    EXPECT_FALSE(c.hibernated());
}

TEST(Hibernation, ColdQueriesAnswerWithoutRehydrating) {
    Harness h;
    NetSessionClient& c = h.add_client(ClientConfig{});
    c.start();
    h.settle();
    bool done = false;
    c.begin_download(h.small, [&](const trace::DownloadRecord&) { done = true; });
    h.sim.run_until(h.sim.now() + sim::hours(1.0));
    ASSERT_TRUE(done);
    ASSERT_TRUE(c.has_cached(h.small));
    c.stop();
    c.hibernate();
    ASSERT_TRUE(c.hibernated());

    EXPECT_TRUE(c.has_cached(h.small));
    EXPECT_FALSE(c.has_cached(h.big));
    const auto cached = c.cached_objects();
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_EQ(cached[0], h.small);
    EXPECT_TRUE(c.paused_downloads().empty());
    EXPECT_EQ(c.open_downloads(), 0);
    EXPECT_TRUE(c.hibernated()) << "cold queries must not wake the client";
}

TEST(Hibernation, RetentionExpiryIsAppliedToColdEntries) {
    Harness h;
    ClientConfig config;
    config.cache_retention = sim::hours(6.0);
    NetSessionClient& c = h.add_client(config);
    c.start();
    h.settle();
    bool done = false;
    c.begin_download(h.small, [&](const trace::DownloadRecord&) { done = true; });
    h.sim.run_until(h.sim.now() + sim::hours(1.0));
    ASSERT_TRUE(done);
    c.stop();
    c.hibernate();

    EXPECT_TRUE(c.has_cached(h.small)) << "retention has not elapsed yet";
    h.sim.run_until(h.sim.now() + sim::hours(7.0));
    EXPECT_FALSE(c.has_cached(h.small)) << "cold entries expire exactly like timed ones";
    EXPECT_TRUE(c.cached_objects().empty());
    EXPECT_TRUE(c.hibernated());

    // The lazy sweep at the next start erases the expired entry for real.
    c.start();
    EXPECT_TRUE(c.cached_objects().empty());
    c.stop();
}

TEST(Hibernation, PausedDownloadReleasesItsPoolSlotWhileCold) {
    Harness h;
    NetSessionClient& c = h.add_client(ClientConfig{});
    c.start();
    h.settle();
    c.begin_download(h.big);
    h.sim.run_until(h.sim.now() + sim::seconds(60.0));  // partial progress
    c.stop();
    EXPECT_EQ(c.open_downloads(), 1);
    EXPECT_EQ(h.registry.downloads().live(), 1u);

    c.hibernate();
    ASSERT_TRUE(c.hibernated());
    EXPECT_EQ(h.registry.downloads().live(), 0u)
        << "a hibernated client must hold no arena slots (auditor contract)";
    EXPECT_EQ(c.open_downloads(), 0);
    // ...but the paused download is still visible, straight from the blob.
    const auto paused = c.paused_downloads();
    ASSERT_EQ(paused.size(), 1u);
    EXPECT_EQ(paused[0], h.big);
    EXPECT_GT(h.registry.cold().records(), 0u);
    EXPECT_GT(h.registry.cold().bytes_live(), 0u);

    c.start();
    EXPECT_EQ(h.registry.downloads().live(), 1u) << "rehydration re-acquires the slot";
    EXPECT_EQ(c.open_downloads(), 1);
    c.resume_download(h.big);
    bool finished = false;
    // Re-arm the finish probe via a second paused/resume cycle is not needed:
    // completion is observed through the cache instead.
    h.sim.run_until(h.sim.now() + sim::hours(2.0));
    finished = c.has_cached(h.big);
    EXPECT_TRUE(finished) << "a rehydrated download must finish from where it left off";
    c.stop();
}

TEST(Hibernation, AbortWhileHibernatedWakesFlushesAndRedemotes) {
    Harness h;
    NetSessionClient& c = h.add_client(ClientConfig{});
    c.start();
    h.settle();
    trace::DownloadRecord record;
    bool done = false;
    c.begin_download(h.big, [&](const trace::DownloadRecord& r) {
        record = r;
        done = true;
    });
    h.sim.run_until(h.sim.now() + sim::seconds(60.0));
    c.stop();
    c.hibernate();
    ASSERT_TRUE(c.hibernated());

    // The user's patience timer fires against an offline, demoted client.
    c.abort_download(h.big, trace::DownloadOutcome::aborted_by_user);
    ASSERT_TRUE(done) << "the parked finish callback must survive hibernation";
    EXPECT_EQ(record.outcome, trace::DownloadOutcome::aborted_by_user);
    EXPECT_GT(record.bytes_from_infrastructure, 0) << "partial progress is reported";
    EXPECT_TRUE(c.hibernated()) << "the client re-demotes after the abort";
    EXPECT_TRUE(c.paused_downloads().empty());
    EXPECT_EQ(h.registry.downloads().live(), 0u);
}

TEST(Hibernation, FlushUnfinishedReadsTheColdBlobDirectly) {
    Harness h;
    NetSessionClient& c = h.add_client(ClientConfig{});
    c.start();
    h.settle();
    c.begin_download(h.big);
    h.sim.run_until(h.sim.now() + sim::seconds(60.0));
    c.stop();
    c.hibernate();
    const std::size_t before = h.log.downloads().size();

    c.flush_unfinished();
    ASSERT_EQ(h.log.downloads().size(), before + 1);
    const auto& rec = h.log.downloads().back();
    EXPECT_EQ(rec.object, h.big);
    EXPECT_EQ(rec.outcome, trace::DownloadOutcome::aborted_by_user)
        << "cold downloads are paused by construction";
    EXPECT_GT(rec.bytes_from_infrastructure, 0);
    EXPECT_TRUE(c.hibernated()) << "terminal flush must not rehydrate the population";
}

// The differential oracle at unit scale: one deterministic mid-download
// pause/resume scenario, run in two isolated harnesses whose only difference
// is the hibernate_offline knob. Every observable — the final download
// record (bitwise), upload totals, the secondary-GUID chain — must match.
struct TwinResult {
    trace::DownloadRecord record{};
    std::vector<SecondaryGuid> chain;
    Bytes uploaded = 0;
    std::vector<ObjectId> cached;
};

TwinResult run_twin(bool hibernate_offline) {
    Harness h;
    ClientConfig config;
    config.hibernate_offline = hibernate_offline;
    NetSessionClient& c = h.add_client(config);
    TwinResult out;
    bool done = false;
    c.start();
    h.settle();
    c.begin_download(h.big, [&](const trace::DownloadRecord& r) {
        out.record = r;
        done = true;
    });
    h.sim.run_until(h.sim.now() + sim::seconds(90.0));  // partial progress

    // Three offline gaps; with the knob on, each demotes to the ColdStore.
    for (int cycle = 0; cycle < 3; ++cycle) {
        c.stop();
        c.hibernate();
        EXPECT_EQ(c.hibernated(), hibernate_offline);
        h.sim.run_until(h.sim.now() + sim::hours(2.0));
        c.start();
        h.settle();
        c.resume_download(h.big);
        h.sim.run_until(h.sim.now() + sim::seconds(45.0));
    }
    h.sim.run_until(h.sim.now() + sim::hours(3.0));
    EXPECT_TRUE(done);
    out.chain = c.secondary_chain();
    out.uploaded = c.uploaded_bytes();
    out.cached = c.cached_objects();
    c.stop();
    return out;
}

TEST(Hibernation, RoundTripIsByteIdenticalToNeverHibernatingTwin) {
    const TwinResult cold = run_twin(true);
    const TwinResult warm = run_twin(false);

    static_assert(std::is_trivially_copyable_v<trace::DownloadRecord>);
    EXPECT_EQ(std::memcmp(&cold.record, &warm.record, sizeof(trace::DownloadRecord)), 0)
        << "hibernation leaked into the download record";
    EXPECT_EQ(cold.record.outcome, trace::DownloadOutcome::completed);
    EXPECT_EQ(cold.record.total_bytes(), 400_MB);
    ASSERT_EQ(cold.chain.size(), warm.chain.size());
    for (std::size_t i = 0; i < cold.chain.size(); ++i)
        EXPECT_EQ(cold.chain[i], warm.chain[i]) << "chain diverged at index " << i;
    EXPECT_EQ(cold.uploaded, warm.uploaded);
    EXPECT_EQ(cold.cached, warm.cached);
}

}  // namespace
}  // namespace netsession::peer
