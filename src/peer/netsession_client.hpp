// The NetSession Interface — the client software installed on user machines
// (paper §3.4). A persistent background application that maintains a control
// connection to a CN, runs the Download Manager (parallel edge + p2p
// delivery, §3.3), verifies piece hashes, caches completed objects and
// serves them to other peers (subject to the user's upload setting and the
// §3.9 best-practice limits), reports usage statistics, and survives control
// plane failures by falling back to edge-only delivery (§3.8).
//
// Memory layout (docs/SIMULATOR.md): the object itself is a slim *shell* —
// identity, connectivity flags, and the async-callback anchor (in-flight
// lambdas capture the raw `this`). Everything that scales with activity
// (hash tables, the secondary-GUID chain, pending reports, per-download
// state) lives in a heap Resident block. While the user is offline the
// driver calls hibernate(): the Resident block is serialized into the
// registry's ColdStore (a few hundred bytes) and destroyed; the next start
// rehydrates it byte-identically. Queries that must answer while hibernated
// (auditor consistency checks, terminal flush) read the cold blob directly
// and never wake the client.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "control/control_plane.hpp"
#include "edge/edge_network.hpp"
#include "peer/client_config.hpp"
#include "peer/cold_store.hpp"
#include "peer/download_state.hpp"
#include "peer/registry.hpp"
#include "swarm/picker.hpp"
#include "trace/records.hpp"

namespace netsession::peer {

class NetSessionClient final : public control::PeerEndpoint {
public:
    /// Per-download types live in peer/download_state.hpp (the state itself
    /// is pool-allocated via PeerRegistry::downloads()); aliases keep the
    /// historical nested names working.
    using DownloadCallback = peer::DownloadCallback;
    using DownloadOptions = peer::DownloadOptions;

    NetSessionClient(net::World& world, control::ControlPlane& plane, edge::EdgeNetwork& edges,
                     const edge::Catalog& catalog, PeerRegistry& registry, Guid guid, HostId host,
                     ClientConfig config, Rng rng);
    ~NetSessionClient() override;

    NetSessionClient(const NetSessionClient&) = delete;
    NetSessionClient& operator=(const NetSessionClient&) = delete;

    // --- lifecycle (driven by the user-session model) -----------------------
    /// The user logged in / the machine came up: fresh secondary GUID, STUN
    /// probe, CN connect, paused downloads resume. Rehydrates first.
    void start();
    /// The user logged out: active downloads pause (resumable), uploads stop.
    void stop();
    /// Abrupt failure (power loss, kill -9): like stop() but nothing is
    /// announced — no logout, no goodbye to transfer partners; every flow
    /// touching this host is cut. Remote peers must detect the loss via
    /// their own stall watchdogs. Used by the fault engine's mass churn.
    void crash();
    [[nodiscard]] bool running() const noexcept { return running_; }
    [[nodiscard]] bool connected() const noexcept { return cn_ != nullptr; }
    /// True while operating on a conservative NAT assumption because the
    /// STUN probe timed out (§3.8 degraded mode).
    [[nodiscard]] bool conservative_nat() const noexcept { return conservative_nat_; }

    // --- hibernation (the driver calls this when the user goes offline) -----
    /// Demotes the Resident block to a compact serialized record in the
    /// registry's ColdStore. No-op while running or already hibernated.
    /// Purely a memory-layout transition: rehydration restores the exact
    /// state, so traces are byte-identical with hibernation off.
    void hibernate();
    [[nodiscard]] bool hibernated() const noexcept { return res_ == nullptr; }

    // --- identity ------------------------------------------------------------
    [[nodiscard]] Guid guid() const noexcept override { return guid_; }
    [[nodiscard]] HostId host() const noexcept override { return host_; }
    [[nodiscard]] const std::vector<SecondaryGuid>& secondary_chain() {
        ensure_resident();
        return res_->chain;
    }

    // --- user actions ----------------------------------------------------------
    void begin_download(ObjectId object, DownloadCallback on_finish, DownloadOptions options);
    void begin_download(ObjectId object, DownloadCallback on_finish = {}) {
        begin_download(object, std::move(on_finish), DownloadOptions());
    }
    [[nodiscard]] bool download_active(ObjectId object) const;
    void pause_download(ObjectId object);
    void resume_download(ObjectId object);
    void abort_download(ObjectId object, trace::DownloadOutcome outcome);
    /// Number of downloads in any non-terminal state (incl. paused) holding a
    /// slot in the shared pool. Hibernated downloads live in the cold blob,
    /// not the pool, so they intentionally do not count here (the auditor
    /// cross-checks this sum against the pool's live count).
    [[nodiscard]] int open_downloads() const noexcept {
        return res_ == nullptr ? 0 : static_cast<int>(res_->downloads.size());
    }
    /// Currently blacklisted sources, expired entries included until the next
    /// watchdog sweep. Bounded: the watchdog drops entries past their expiry.
    [[nodiscard]] std::size_t blacklist_size() const noexcept {
        return res_ == nullptr ? 0 : res_->blacklist.size();
    }
    /// Read-only visit of every open download (audit layer, tests). Visits
    /// resident state only; a hibernated client's downloads are frozen and
    /// were checked while it was live.
    void for_each_open_download(const std::function<void(const Download&)>& fn) const;
    /// Objects whose downloads are currently paused (resumable). Answers
    /// from the cold blob without rehydrating.
    [[nodiscard]] std::vector<ObjectId> paused_downloads() const;

    /// The GUI preference toggle (§3.4: users can turn uploads off
    /// "permanently or temporarily ... without adverse effects").
    void set_uploads_enabled(bool enabled);
    [[nodiscard]] bool uploads_enabled() const noexcept { return uploads_enabled_; }

    /// The user's own applications started/stopped using the connection;
    /// NetSession throttles its uploads accordingly (§3.9).
    void set_user_traffic(bool active);

    // --- cache -----------------------------------------------------------------
    /// Whether a fresh (retention not yet elapsed) copy is cached. Answers
    /// from the cold blob without rehydrating.
    [[nodiscard]] bool has_cached(ObjectId object) const;
    [[nodiscard]] std::vector<ObjectId> cached_objects() const;

    // --- mobility & install-state modelling (§6.2) ------------------------------
    /// The machine moved: new attachment, fresh IP, re-login.
    void move_to(net::Location location, Asn asn, net::NatType nat);

    /// Install state that cloning/re-imaging duplicates or rolls back.
    struct InstallState {
        Guid guid;
        std::vector<SecondaryGuid> chain;
        bool uploads_enabled = false;
    };
    [[nodiscard]] InstallState snapshot_state();
    void restore_state(InstallState state);

    // --- PeerEndpoint (control-plane callbacks) ---------------------------------
    void on_disconnected() override;
    void on_re_add_request() override;
    void on_introduction(const control::PeerDescriptor& downloader, ObjectId object) override;
    void on_upgrade_available(std::uint32_t version) override;

    /// The currently installed client version (starts at
    /// ClientConfig::software_version; centrally-released upgrades move it).
    [[nodiscard]] std::uint32_t software_version() const noexcept { return version_; }

    // --- data-plane, called by other clients (after transport latency) ----------
    /// A downloader (introduced by the CN) asks to fetch `object` from us.
    void handle_upload_request(const control::PeerDescriptor& downloader, ObjectId object,
                               std::function<void(bool)> reply);
    /// A downloader closed its connection to us.
    void on_upload_closed(Guid downloader, ObjectId object);
    /// An uploader we were fetching from went offline.
    void on_source_lost(Guid uploader, ObjectId object);
    /// Byte accounting on the uploading side (drives the per-object upload
    /// cap, §3.9). Can race hibernation — a downloader's piece completes
    /// while the notification is in flight and we already demoted — so the
    /// per-object ledger update is parked shell-side and folded in on the
    /// next rehydrate (the ledger is only ever looked up, never iterated,
    /// so the deferred insertion order is unobservable).
    void note_uploaded(ObjectId object, Bytes bytes) {
        uploaded_bytes_ += bytes;
        if (res_ != nullptr)
            res_->uploaded_per_object[object] += bytes;
        else
            cold_uploaded_.emplace_back(object, bytes);
    }

    // --- experimentation hooks ---------------------------------------------------
    /// Tamper with outgoing usage reports (accounting-attack experiments).
    void set_report_tamper(std::function<void(trace::DownloadRecord&)> fn) {
        tamper_ = std::move(fn);
    }

    /// Marks this peer's cached data as silently corrupted (bad disk/RAM):
    /// every piece it uploads fails hash verification at the downloader.
    /// Receivers discard such pieces and never pass them on (§3.5).
    void set_corrupt_uploads(bool v) noexcept { corrupt_uploads_ = v; }
    [[nodiscard]] bool corrupt_uploads() const noexcept { return corrupt_uploads_; }

    [[nodiscard]] Bytes uploaded_bytes() const noexcept { return uploaded_bytes_; }
    [[nodiscard]] int active_upload_connections() const noexcept {
        return res_ == nullptr ? 0 : static_cast<int>(res_->upload_conns.size());
    }

    /// Terminal flush at the end of a measurement window: emits records for
    /// never-finished downloads (outcome aborted_by_user for paused ones,
    /// in_progress for live ones) directly into the trace. Reads hibernated
    /// clients' downloads straight out of the cold blob — flushing a 1M-peer
    /// run must not rehydrate the whole population.
    void flush_unfinished();

private:
    using DownloadHandle = arena::PoolHandle<Download>;

    /// Everything whose footprint scales with client activity. Destroyed on
    /// hibernate (after serialization into the ColdStore), rebuilt
    /// byte-identically by ensure_resident().
    struct Resident {
        Rng rng;
        FlatHashMap<Guid, int> source_failures;
        FlatHashMap<Guid, sim::SimTime> blacklist;  // guid -> ban expiry
        std::vector<Guid> blacklist_scratch;        // reusable sweep buffer
        std::vector<SecondaryGuid> chain;
        FlatHashMap<ObjectId, sim::SimTime> cache;  // object -> cached_at
        /// Live downloads; the state itself lives in the registry-wide pool.
        FlatHashMap<ObjectId, DownloadHandle> downloads;
        FlatHashMap<ObjectId, Bytes> uploaded_per_object;
        std::vector<std::pair<Guid, ObjectId>> upload_conns;  // active upload connections
        FlatHashSet<std::uint64_t> introductions;  // CN-coordinated (guid, object) pairs
        std::vector<ObjectId> evict_scratch;       // reusable cache-sweep buffer
        std::vector<std::pair<trace::DownloadRecord, std::vector<trace::TransferRecord>>> pending;
    };

    /// Non-POD per-download residue that cannot live in the cold byte blob:
    /// the finish callback and the streaming piece hook. Kept shell-side in
    /// downloads-map insertion order across hibernation.
    struct ColdAux {
        DownloadCallback on_finish;
        std::function<void(swarm::PieceIndex)> on_piece;
    };

    /// Rebuilds the Resident block from the cold blob (no-op when already
    /// resident).
    void ensure_resident();
    /// Serializes the Resident block into `w` (layout documented at the
    /// definition; ColdReader consumers must match it exactly).
    void write_cold(ColdWriter& w) const;

    /// Looks up the live Download for `object`, or nullptr (hibernated
    /// clients have no live downloads). Pool slots have stable addresses,
    /// so the pointer stays valid across map growth.
    [[nodiscard]] Download* find_download(ObjectId object) {
        if (res_ == nullptr) return nullptr;
        const DownloadHandle* h = res_->downloads.find_value(object);
        return h == nullptr ? nullptr : &registry_->downloads().get(*h);
    }
    [[nodiscard]] const Download* find_download(ObjectId object) const {
        if (res_ == nullptr) return nullptr;
        const DownloadHandle* h = res_->downloads.find_value(object);
        return h == nullptr ? nullptr : &registry_->downloads().get(*h);
    }

    [[nodiscard]] control::PeerDescriptor descriptor() const;
    [[nodiscard]] control::LoginInfo make_login_info() const;
    void connect_control_plane();
    void on_login_ok(control::ConnectionNode* cn, std::uint32_t attempt);
    void on_login_failed(std::uint32_t attempt);
    void schedule_reconnect();
    void kick_downloads();

    // --- failure hardening ---
    void schedule_watchdog(ObjectId object);
    void watchdog_tick(ObjectId object, std::uint32_t epoch);
    void schedule_edge_retry(ObjectId object);
    void note_degradation(trace::DegradationKind kind);
    void note_source_failure(Guid source);
    [[nodiscard]] bool source_blacklisted(Guid source);
    void sweep_blacklist(sim::SimTime now);

    void request_from_edge(ObjectId object);
    void on_edge_piece(ObjectId object, std::uint32_t epoch, std::uint32_t attempt,
                       swarm::PieceIndex piece, Digest256 digest);
    void query_for_peers(ObjectId object);
    void on_query_reply(ObjectId object, std::uint32_t epoch,
                        std::vector<control::PeerDescriptor> peers);
    void attempt_connection(ObjectId object, const control::PeerDescriptor& remote);
    void on_connection_result(ObjectId object, std::uint32_t epoch,
                              const control::PeerDescriptor& remote, std::uint64_t seq,
                              bool accepted);
    void request_from_source(ObjectId object, Guid source_guid);
    void on_peer_piece(ObjectId object, std::uint32_t epoch, Guid from, swarm::PieceIndex piece,
                       Digest256 digest);
    void drop_source(Download& d, Guid source_guid, bool notify_remote);
    void maybe_need_more_sources(ObjectId object);
    void stop_transfers(Download& d, bool notify_remotes);
    void finish_download(ObjectId object, trace::DownloadOutcome outcome);
    void submit_report(trace::DownloadRecord record, std::vector<trace::TransferRecord> transfers);
    void flush_pending_reports();
    void cache_object(ObjectId object);
    void schedule_eviction(ObjectId object);
    void announce_object(ObjectId object, bool readd);
    void withdraw_object(ObjectId object);

    net::World* world_;
    control::ControlPlane* plane_;
    edge::EdgeNetwork* edges_;
    const edge::Catalog* catalog_;
    PeerRegistry* registry_;
    Guid guid_;
    HostId host_;
    /// Interned in the registry: a population shares a handful of distinct
    /// configurations, so the shell holds 8 bytes instead of ~200.
    const ClientConfig* config_;

    bool running_ = false;
    bool uploads_enabled_ = false;
    std::uint32_t version_ = 0;
    bool user_traffic_ = false;
    control::ConnectionNode* cn_ = nullptr;
    bool login_in_flight_ = false;
    std::uint32_t login_attempt_ = 0;  // invalidates stale login replies/timeouts
    bool stun_pending_ = false;
    std::uint32_t stun_attempt_ = 0;
    bool conservative_nat_ = false;
    std::uint64_t attempt_seq_ = 0;  // unique ids for connection handshakes
    double reconnect_delay_s_;
    Bytes uploaded_bytes_ = 0;
    bool corrupt_uploads_ = false;
    Rate base_up_;
    std::function<void(trace::DownloadRecord&)> tamper_;

    /// Fat state; null while hibernated.
    std::unique_ptr<Resident> res_;
    /// Serialized Resident while hibernated; invalid while resident.
    ColdStore::BlobRef cold_blob_;
    /// Per-download callbacks parked across hibernation (insertion order).
    std::vector<ColdAux> cold_aux_;
    /// note_uploaded() deltas that arrived while hibernated.
    std::vector<std::pair<ObjectId, Bytes>> cold_uploaded_;
};

}  // namespace netsession::peer
