// Tunables of the NetSession Interface client.
#pragma once

#include "common/types.hpp"
#include "sim/time.hpp"

namespace netsession::peer {

struct ClientConfig {
    std::uint32_t software_version = 80;  // centrally controlled (§3.8)

    /// Initial upload setting, chosen by the content provider whose binary
    /// the user installed (§5.1).
    bool uploads_enabled = false;

    /// How many peer sources a download uses concurrently. The DLM
    /// "downloads from multiple sources simultaneously" (§3.9).
    int max_peer_sources = 12;

    /// Minimum established peer connections before the client stops issuing
    /// additional queries ("additional queries are issued until a sufficient
    /// number of peer connections succeed", §3.7).
    int target_peer_sources = 9;
    int max_additional_queries = 20;
    /// Periodic re-query interval while a download runs below its source
    /// target (swarms warm up over time).
    double requery_interval_s = 180.0;

    /// Upload-side limits (§3.4, §3.9). "Peers upload each object at most a
    /// limited number of times": the cap is in full-object equivalents of
    /// uploaded bytes, after which the peer withdraws the object from the
    /// directory.
    int max_upload_connections = 6;
    int max_uploads_per_object = 20;

    /// How long a downloaded object stays in the local cache and is offered
    /// for upload ("keeps it in a local cache for a certain amount of time",
    /// §5.2).
    sim::Duration cache_retention = sim::days(30.0);

    /// Disk budget: at most this many objects stay cached; the oldest copy
    /// is evicted (and withdrawn from the directory) beyond it. NetSession
    /// "stays in the background as much as possible" (§3.9) — that includes
    /// not eating the user's disk.
    int max_cached_objects = 24;

    /// Per-piece probability that a transfer arrives corrupted and fails
    /// hash verification (§3.5). Peer copies are dirtier than edge ones.
    double corruption_prob_peer = 2e-3;
    double corruption_prob_edge = 1e-4;
    /// Corrupt pieces tolerated before the download fails with a
    /// system-related cause ("too many corrupted content blocks", §5.2).
    int max_corrupt_pieces = 30;

    /// While the user's own traffic needs the link, NetSession throttles its
    /// uploads to this fraction of the uplink (§3.9).
    double user_traffic_upload_factor = 0.2;

    /// Reconnect backoff after losing the CN connection (§3.8 rate-limits
    /// reconnections for smooth recovery).
    double reconnect_base_s = 2.0;
    double reconnect_max_s = 120.0;

    /// Whether paused downloads resume automatically at the next client
    /// start (the user can also resume explicitly, §3.3).
    bool resume_on_start = false;

    /// Whether an offline client demotes its state into the registry's
    /// ColdStore (a few hundred bytes) instead of staying fully resident.
    /// Purely a memory-layout knob — traces are byte-identical either way
    /// (the hibernation differential suite runs both settings).
    bool hibernate_offline = true;

    // --- failure hardening (§3.8: graceful degradation) ---------------------

    /// Stall-watchdog period per active download. Stalls are detected by
    /// *liveness* — a transfer whose flow no longer exists after the grace
    /// period — never by duration, so legitimately slow multi-hour transfers
    /// are not killed.
    double watchdog_interval_s = 30.0;
    /// Grace after issuing a request before a missing flow counts as a stall
    /// (covers request/response messages still crossing the network).
    double stall_grace_s = 10.0;

    /// Capped exponential backoff between edge retries after a stall.
    double edge_retry_base_s = 2.0;
    double edge_retry_max_s = 60.0;

    /// Stalls/failures from one peer source before it is blacklisted, and
    /// how long the bench lasts.
    int blacklist_failures = 3;
    double blacklist_duration_s = 600.0;

    /// Timeouts for control-plane interactions whose replies can be lost
    /// (server died mid-request, network partition, STUN blackout).
    double login_timeout_s = 30.0;
    double query_timeout_s = 30.0;
    /// After this long without a STUN answer the client proceeds with a
    /// conservative NAT classification instead of wedging forever.
    double stun_timeout_s = 10.0;
};

}  // namespace netsession::peer
