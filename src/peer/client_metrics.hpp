// Client-tier metrics. Thousands of NetSessionClients share one block owned
// by their PeerRegistry (peer/registry.hpp) and count into it through the
// registry pointer they already hold. See docs/OBSERVABILITY.md for the
// naming scheme.
#pragma once

#include "obs/metrics.hpp"

namespace netsession::peer {

struct ClientMetrics {
    // Download lifecycle.
    obs::Counter downloads_started;
    obs::Counter downloads_completed;
    obs::Counter downloads_failed;  ///< any terminal outcome except completed

    // Degradation events (mirrors trace::DegradationKind, but live).
    obs::Counter edge_stalls;
    obs::Counter edge_remaps;
    obs::Counter peer_stalls;
    obs::Counter blacklists;
    obs::Counter query_timeouts;
    obs::Counter login_timeouts;
    obs::Counter stun_timeouts;

    // Recovery machinery.
    obs::Counter edge_retries;    ///< backoff-scheduled edge re-requests
    obs::Counter corrupt_pieces;  ///< pieces that failed hash verification

    // Per-source byte split (verified pieces only, both delivery paths).
    obs::Counter bytes_from_edge;
    obs::Counter bytes_from_peers;

    // Shape of terminal downloads.
    obs::Histogram download_bytes;       ///< delivered bytes per terminal download
    obs::Histogram download_duration_s;  ///< wall time per terminal download

    /// Registers every series under the `client.` prefix.
    void register_with(obs::Registry& registry) const {
        registry.add_counter("client.downloads_started", &downloads_started);
        registry.add_counter("client.downloads_completed", &downloads_completed);
        registry.add_counter("client.downloads_failed", &downloads_failed);
        registry.add_counter("client.edge_stalls", &edge_stalls);
        registry.add_counter("client.edge_remaps", &edge_remaps);
        registry.add_counter("client.peer_stalls", &peer_stalls);
        registry.add_counter("client.blacklists", &blacklists);
        registry.add_counter("client.query_timeouts", &query_timeouts);
        registry.add_counter("client.login_timeouts", &login_timeouts);
        registry.add_counter("client.stun_timeouts", &stun_timeouts);
        registry.add_counter("client.edge_retries", &edge_retries);
        registry.add_counter("client.corrupt_pieces", &corrupt_pieces);
        registry.add_counter("client.bytes_from_edge", &bytes_from_edge);
        registry.add_counter("client.bytes_from_peers", &bytes_from_peers);
        registry.add_histogram("client.download_bytes", &download_bytes);
        registry.add_histogram("client.download_duration_s", &download_duration_s);
    }
};

}  // namespace netsession::peer
