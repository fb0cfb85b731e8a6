// A single Akamai edge server.
//
// Edge servers deliver content over HTTP(S), generate/maintain the secure
// object ids and piece hashes, authorize peers for p2p search, communicate
// policies, and provide the trusted byte counts used to detect accounting
// attacks (paper §3.5). In the simulation their uplink is unconstrained (the
// CDN's serving capacity is not the bottleneck of an individual client
// download) but each connection is capped, like a real per-client HTTP
// transfer.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "edge/auth.hpp"
#include "edge/catalog.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "swarm/content.hpp"

namespace netsession::edge {

/// Edge-tier metrics, shared by every server of an EdgeNetwork (the network
/// owns the block and registers it; see docs/OBSERVABILITY.md). Per-server
/// detail stays in the trusted ledger — the metrics answer "how busy is the
/// infrastructure", not "who downloaded what".
struct EdgeMetrics {
    obs::Counter requests;       ///< serve_piece calls, accepted or not
    obs::Counter refusals;       ///< requests hitting an offline server
    obs::Counter pieces_served;  ///< deliveries that ran to completion
    obs::Counter bytes_served;   ///< bytes of completed deliveries
};

/// Key for the trusted per-download ledger.
struct DownloadKey {
    Guid guid;
    ObjectId object;
    friend constexpr auto operator<=>(const DownloadKey&, const DownloadKey&) = default;
};

struct DownloadKeyHash {
    std::size_t operator()(const DownloadKey& k) const noexcept {
        return std::hash<Guid>{}(k.guid) ^ (std::hash<ObjectId>{}(k.object) << 1);
    }
};

class EdgeServer {
public:
    /// `metrics` is the network-wide block the EdgeNetwork owns; it must
    /// outlive the server.
    EdgeServer(EdgeId id, net::World& world, const Catalog& catalog,
               const TokenAuthority& authority, HostId host, Rate per_connection_cap,
               EdgeMetrics& metrics);

    [[nodiscard]] EdgeId id() const noexcept { return id_; }
    [[nodiscard]] HostId host() const noexcept { return host_; }

    /// HTTP authentication + token issue for p2p search (§3.5). Tokens are
    /// valid for one hour of simulated time.
    [[nodiscard]] AuthToken authorize(Guid guid, ObjectId object) const;

    /// Starts delivering one piece to `client`. `on_done` receives the digest
    /// of the delivered data (always authentic from the edge) once the last
    /// byte arrives. Returns the flow id so the client can abort. A failed
    /// (offline) server returns an invalid flow id and never calls `on_done`
    /// — like a connection attempt that times out; the client's stall
    /// watchdog is responsible for noticing.
    net::FlowId serve_piece(HostId client, Guid client_guid, const swarm::ContentObject& object,
                            swarm::PieceIndex piece, std::function<void(Digest256)> on_done);

    /// Aborts an in-progress delivery; returns bytes that had been moved.
    Bytes abort(net::FlowId flow);

    /// Fault injection: a failed server cuts every in-flight delivery (no
    /// completion fires) and refuses new ones until restarted. The trusted
    /// ledger survives the outage, like real accounting state.
    void fail();
    void restart() noexcept { online_ = true; }
    [[nodiscard]] bool online() const noexcept { return online_; }

    /// Trusted ground truth: bytes of completed pieces served per download.
    [[nodiscard]] Bytes bytes_served(Guid guid, ObjectId object) const;
    [[nodiscard]] Bytes total_bytes_served() const noexcept { return total_served_; }

private:
    EdgeId id_;
    net::World* world_;
    const Catalog* catalog_;
    const TokenAuthority* authority_;
    HostId host_;
    void forget_flow(net::FlowId flow);

    Rate per_connection_cap_;
    bool online_ = true;
    std::vector<net::FlowId> live_flows_;  // in-flight deliveries, cut on fail()
    std::unordered_map<DownloadKey, Bytes, DownloadKeyHash> ledger_;
    Bytes total_served_ = 0;
    EdgeMetrics* metrics_;
};

}  // namespace netsession::edge
