// Streaming delivery: sequential pieces, playback state machine, QoE.
#include <gtest/gtest.h>

#include "accounting/accounting.hpp"
#include "control/control_plane.hpp"
#include "edge/edge_network.hpp"
#include "peer/streaming.hpp"

namespace netsession::peer {
namespace {

struct Harness {
    sim::Simulator sim;
    net::World world;
    edge::Catalog catalog;
    ObjectId video{3, 3};  // 300 MB video, p2p-enabled
    edge::EdgeNetwork edges;
    trace::TraceLog log;
    accounting::AccountingService accounting{log};
    control::ControlPlane plane;
    PeerRegistry registry;
    Rng rng{41};
    std::vector<std::unique_ptr<NetSessionClient>> clients;

    static net::AsGraph graph() {
        net::AsGraphConfig config;
        config.total_ases = 200;
        return net::AsGraph::generate(config, Rng(8));
    }

    Harness()
        : world(sim, graph()),
          edges((publish(catalog, video), world), catalog, edge::EdgeNetworkConfig{}),
          plane(world, edges.authority(), log, accounting, control::ControlPlaneConfig{},
                Rng(7)) {}

    static void publish(edge::Catalog& catalog, ObjectId video) {
        swarm::ContentObject object(video, CpCode{1000}, 31, 300_MB, 32);
        edge::ObjectPolicy policy;
        policy.p2p_enabled = true;
        catalog.publish(std::move(object), policy);
    }

    NetSessionClient& add_client(double down_mbps, bool uploads = false) {
        const net::CountryInfo* de = net::find_country("DE");
        net::HostInfo info;
        info.attach.location = net::Location{de->id, 0, de->center};
        info.attach.asn = world.as_graph().pick_for_country(de->id, rng);
        info.attach.nat = net::NatType::full_cone;
        info.up = mbps(down_mbps / 6.0);
        info.down = mbps(down_mbps);
        ClientConfig config;
        config.uploads_enabled = uploads;
        clients.push_back(std::make_unique<NetSessionClient>(
            world, plane, edges, catalog, registry, Guid{rng.next(), rng.next()},
            world.create_host(info), config, rng.child("c" + std::to_string(clients.size()))));
        clients.back()->start();
        return *clients.back();
    }

    const swarm::ContentObject& object() const { return catalog.find(video)->object; }
};

TEST(SequentialPicker, DeliversPiecesInOrder) {
    Harness h;
    NetSessionClient& c = h.add_client(25.0);
    h.sim.run_until(sim::SimTime{} + sim::seconds(30.0));

    std::vector<swarm::PieceIndex> order;
    peer::DownloadOptions options;
    options.sequential = true;
    options.on_piece = [&](swarm::PieceIndex i) { order.push_back(i); };
    bool done = false;
    c.begin_download(h.video, [&](const trace::DownloadRecord&) { done = true; }, options);
    h.sim.run_until(sim::SimTime{} + sim::hours(2.0));
    ASSERT_TRUE(done);
    ASSERT_EQ(order.size(), h.object().piece_count());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "sequential mode must deliver in order (single source)";
}

TEST(Streaming, SmoothPlaybackWhenBandwidthExceedsBitrate) {
    Harness h;
    NetSessionClient& c = h.add_client(25.0);
    h.sim.run_until(sim::SimTime{} + sim::seconds(30.0));

    StreamingConfig config;
    config.bitrate_bps = 4e6;  // 4 Mbps video on a 25 Mbps line
    bool done = false;
    StreamingMetrics result;
    StreamingSession session(h.world, c, h.object(), config,
                             [&](const StreamingMetrics& m) {
                                 done = true;
                                 result = m;
                             });
    session.start();
    h.sim.run_until(sim::SimTime{} + sim::hours(2.0));
    ASSERT_TRUE(done);
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.rebuffer_events, 0) << "bandwidth >> bitrate: no stalls";
    EXPECT_GT(result.startup_delay_s, 0.0);
    EXPECT_LT(result.startup_delay_s, 60.0);
}

TEST(Streaming, RebuffersWhenBitrateExceedsBandwidth) {
    Harness h;
    NetSessionClient& c = h.add_client(4.0);  // 4 Mbps line...
    h.sim.run_until(sim::SimTime{} + sim::seconds(30.0));

    StreamingConfig config;
    config.bitrate_bps = 8e6;  // ...playing an 8 Mbps stream
    bool done = false;
    StreamingMetrics result;
    StreamingSession session(h.world, c, h.object(), config,
                             [&](const StreamingMetrics& m) {
                                 done = true;
                                 result = m;
                             });
    session.start();
    h.sim.run_until(sim::SimTime{} + sim::hours(4.0));
    ASSERT_TRUE(done);
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.rebuffer_events, 0);
    EXPECT_GT(result.rebuffer_time_s, 0.0);
}

TEST(Streaming, PeerAssistedStreamOffloadsBytes) {
    Harness h;
    NetSessionClient& seed = h.add_client(25.0, /*uploads=*/true);
    NetSessionClient& viewer = h.add_client(25.0);
    h.sim.run_until(sim::SimTime{} + sim::seconds(30.0));
    bool seeded = false;
    seed.begin_download(h.video, [&](const trace::DownloadRecord&) { seeded = true; });
    h.sim.run_until(h.sim.now() + sim::hours(2.0));
    ASSERT_TRUE(seeded);

    StreamingConfig config;
    config.bitrate_bps = 4e6;
    bool done = false;
    StreamingMetrics result;
    StreamingSession session(h.world, viewer, h.object(), config,
                             [&](const StreamingMetrics& m) {
                                 done = true;
                                 result = m;
                             });
    session.start();
    h.sim.run_until(h.sim.now() + sim::hours(4.0));
    ASSERT_TRUE(done);
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.bytes_from_peers, 0) << "peers serve parts of the stream";
    EXPECT_GT(result.bytes_from_infrastructure, 0);
}

TEST(Streaming, AbortedDownloadReportsIncompleteSession) {
    Harness h;
    NetSessionClient& c = h.add_client(8.0);
    h.sim.run_until(sim::SimTime{} + sim::seconds(30.0));
    StreamingConfig config;
    config.bitrate_bps = 4e6;
    bool done = false;
    StreamingMetrics result;
    StreamingSession session(h.world, c, h.object(), config,
                             [&](const StreamingMetrics& m) {
                                 done = true;
                                 result = m;
                             });
    session.start();
    h.sim.run_until(h.sim.now() + sim::minutes(1.0));
    c.abort_download(h.video, trace::DownloadOutcome::aborted_by_user);
    h.sim.run_until(h.sim.now() + sim::minutes(5.0));
    ASSERT_TRUE(done);
    EXPECT_FALSE(result.completed);
}

TEST(Streaming, PieceDurationMatchesBitrate) {
    Harness h;
    NetSessionClient& c = h.add_client(25.0);
    StreamingConfig config;
    config.bitrate_bps = 8e6;
    StreamingSession session(h.world, c, h.object(), config, nullptr);
    const auto& object = h.object();
    EXPECT_NEAR(session.piece_duration_s(0),
                8.0 * static_cast<double>(object.piece_length(0)) / 8e6, 1e-9);
}

}  // namespace
}  // namespace netsession::peer
