#include "peer/netsession_client.hpp"

#include <algorithm>
#include <cassert>

namespace netsession::peer {

namespace {
std::uint64_t intro_key(Guid guid, ObjectId object) noexcept {
    return (guid.hi ^ guid.lo) * 0x9E3779B97F4A7C15ULL ^ (object.hi ^ object.lo);
}

Digest256 corrupted(Digest256 d) noexcept {
    d.bytes[0] ^= 0xFF;  // any bit flip fails verification
    return d;
}
}  // namespace

NetSessionClient::NetSessionClient(net::World& world, control::ControlPlane& plane,
                                   edge::EdgeNetwork& edges, const edge::Catalog& catalog,
                                   PeerRegistry& registry, Guid guid, HostId host,
                                   ClientConfig config, Rng rng)
    : world_(&world),
      plane_(&plane),
      edges_(&edges),
      catalog_(&catalog),
      registry_(&registry),
      guid_(guid),
      host_(host),
      config_(registry.intern_config(config)),
      uploads_enabled_(config.uploads_enabled),
      version_(config.software_version),
      reconnect_delay_s_(config.reconnect_base_s),
      base_up_(world.flows().up_capacity(host)),
      res_(std::make_unique<Resident>()) {
    res_->rng = rng;
    registry_->add(guid_, this);
    // Clients are born offline; with hibernation on, the (nearly empty)
    // resident block is demoted immediately, so constructing a 1M-peer
    // population never holds more than one resident client at a time.
    if (config_->hibernate_offline) hibernate();
}

NetSessionClient::~NetSessionClient() {
    registry_->cold().free(cold_blob_);
    if (registry_->find(guid_) == this) registry_->remove(guid_);
}

// --- hibernation -------------------------------------------------------------
//
// Cold blob layout, in write order (all fields trivially copyable; counts are
// u32; raw pointers are stored verbatim — this is an in-memory snapshot, not
// a disk format). The cache section comes first so the auditor's per-tick
// has_cached() probes stay O(cache entries):
//   Rng::State
//   cache:              n × { ObjectId, SimTime cached_at }
//   chain:              n × SecondaryGuid
//   source_failures:    n × { Guid, int strikes }
//   blacklist:          n × { Guid, SimTime expiry }
//   uploaded_per_object n × { ObjectId, Bytes }
//   pending reports:    n × { DownloadRecord, m × TransferRecord }
//   downloads:          n × { ObjectId, CatalogEntry*, EdgeServer*, epoch,
//                             edge_attempt, bytes_infra, bytes_peers,
//                             start_time, peers_initially_returned,
//                             corrupt_pieces, u8 sequential, u32 piece_count,
//                             ⌈pieces/64⌉ × u64 have-bitmap,
//                             m × { Guid, IpAddr, Bytes } per-source ledger }
// Everything stop()/crash() already cleared (sources, attempted handshakes,
// tokens, watchdogs) is omitted: hibernation only happens while offline, and
// every download is paused with its transfers torn down.

namespace {

void skip_counted(ColdReader& rd, std::size_t elem_bytes) {
    const auto n = rd.get<std::uint32_t>();
    rd.skip<std::uint8_t>(static_cast<std::size_t>(n) * elem_bytes);
}

/// Positions a fresh blob reader at the downloads section.
void skip_to_cold_downloads(ColdReader& rd) {
    rd.skip<Rng::State>(1);
    skip_counted(rd, sizeof(ObjectId) + sizeof(sim::SimTime));      // cache
    skip_counted(rd, sizeof(SecondaryGuid));                        // chain
    skip_counted(rd, sizeof(Guid) + sizeof(int));                   // source_failures
    skip_counted(rd, sizeof(Guid) + sizeof(sim::SimTime));          // blacklist
    skip_counted(rd, sizeof(ObjectId) + sizeof(Bytes));             // uploaded_per_object
    const auto pending = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < pending; ++i) {
        rd.skip<trace::DownloadRecord>(1);
        skip_counted(rd, sizeof(trace::TransferRecord));
    }
}

/// The fixed POD prefix of one cold download entry.
struct ColdDownloadHead {
    ObjectId object;
    const edge::CatalogEntry* entry;
    edge::EdgeServer* edge;
    std::uint32_t epoch;
    std::uint32_t edge_attempt;
    Bytes bytes_infra;
    Bytes bytes_peers;
    sim::SimTime start_time;
    int peers_initially_returned;
    int corrupt_pieces;
    bool sequential;
};

ColdDownloadHead read_cold_download_head(ColdReader& rd) {
    ColdDownloadHead h;
    h.object = rd.get<ObjectId>();
    h.entry = rd.get<const edge::CatalogEntry*>();
    h.edge = rd.get<edge::EdgeServer*>();
    h.epoch = rd.get<std::uint32_t>();
    h.edge_attempt = rd.get<std::uint32_t>();
    h.bytes_infra = rd.get<Bytes>();
    h.bytes_peers = rd.get<Bytes>();
    h.start_time = rd.get<sim::SimTime>();
    h.peers_initially_returned = rd.get<int>();
    h.corrupt_pieces = rd.get<int>();
    h.sequential = rd.get<std::uint8_t>() != 0;
    return h;
}

}  // namespace

void NetSessionClient::write_cold(ColdWriter& w) const {
    const Resident& r = *res_;
    w.put(r.rng.state());
    w.put(static_cast<std::uint32_t>(r.cache.size()));
    for (const auto& [object, when] : r.cache) {
        w.put(object);
        w.put(when);
    }
    w.put_counted(r.chain.data(), r.chain.size());
    w.put(static_cast<std::uint32_t>(r.source_failures.size()));
    for (const auto& [guid, strikes] : r.source_failures) {
        w.put(guid);
        w.put(strikes);
    }
    w.put(static_cast<std::uint32_t>(r.blacklist.size()));
    for (const auto& [guid, expiry] : r.blacklist) {
        w.put(guid);
        w.put(expiry);
    }
    w.put(static_cast<std::uint32_t>(r.uploaded_per_object.size()));
    for (const auto& [object, bytes] : r.uploaded_per_object) {
        w.put(object);
        w.put(bytes);
    }
    w.put(static_cast<std::uint32_t>(r.pending.size()));
    for (const auto& [record, transfers] : r.pending) {
        w.put(record);
        w.put_counted(transfers.data(), transfers.size());
    }
    w.put(static_cast<std::uint32_t>(r.downloads.size()));
    for (const auto& [object, handle] : r.downloads) {
        const Download& d = registry_->downloads().get(handle);
        // Offline invariants stop()/crash() established; the blob relies on
        // them (nothing transfer-related is serialized).
        assert(d.paused && !d.edge_transferring && d.sources.empty() &&
               d.open_attempts.empty() && d.pending_attempts == 0);
        w.put(object);
        w.put(d.entry);
        w.put(d.edge);
        w.put(d.epoch);
        w.put(d.edge_attempt);
        w.put(d.bytes_infra);
        w.put(d.bytes_peers);
        w.put(d.start_time);
        w.put(d.peers_initially_returned);
        w.put(d.corrupt_pieces);
        w.put(static_cast<std::uint8_t>(d.options.sequential ? 1 : 0));
        const auto pieces = static_cast<std::uint32_t>(d.have.size());
        w.put(pieces);
        std::uint64_t word = 0;
        for (std::uint32_t i = 0; i < pieces; ++i) {
            if (d.have.has(i)) word |= std::uint64_t{1} << (i % 64);
            if (i % 64 == 63) {
                w.put(word);
                word = 0;
            }
        }
        if (pieces % 64 != 0) w.put(word);
        w.put(static_cast<std::uint32_t>(d.per_source_bytes.size()));
        for (const auto& [from, detail] : d.per_source_bytes) {
            w.put(from);
            w.put(detail.first);
            w.put(detail.second);
        }
    }
}

void NetSessionClient::hibernate() {
    if (running_ || res_ == nullptr) return;
    if (!config_->hibernate_offline) return;

    // Park the per-download callbacks shell-side (non-POD; the blob holds
    // raw bytes only), in downloads-map insertion order.
    cold_aux_.clear();
    for (const auto& [object, handle] : res_->downloads) {
        Download& d = registry_->downloads().get(handle);
        cold_aux_.push_back(ColdAux{std::move(d.on_finish), std::move(d.options.on_piece)});
    }

    ColdWriter& w = registry_->cold_writer();
    w.clear();
    write_cold(w);
    cold_blob_ = registry_->cold().store(w.data(), w.size());

    // The pooled Download slots go back to the pool — a hibernated client
    // holds no arena slots (the auditor's accounting depends on this).
    for (const auto& [object, handle] : res_->downloads) registry_->downloads().release(handle);
    res_.reset();
}

void NetSessionClient::ensure_resident() {
    if (res_ != nullptr) return;
    res_ = std::make_unique<Resident>();
    Resident& r = *res_;
    ColdReader rd(registry_->cold().data(cold_blob_), cold_blob_.size);
    r.rng.restore(rd.get<Rng::State>());
    const auto ncache = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < ncache; ++i) {
        const auto object = rd.get<ObjectId>();
        const auto when = rd.get<sim::SimTime>();
        r.cache[object] = when;
    }
    const auto nchain = rd.get<std::uint32_t>();
    r.chain.reserve(nchain);
    for (std::uint32_t i = 0; i < nchain; ++i) r.chain.push_back(rd.get<SecondaryGuid>());
    const auto nfail = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nfail; ++i) {
        const auto guid = rd.get<Guid>();
        const auto strikes = rd.get<int>();
        r.source_failures[guid] = strikes;
    }
    const auto nban = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nban; ++i) {
        const auto guid = rd.get<Guid>();
        const auto expiry = rd.get<sim::SimTime>();
        r.blacklist[guid] = expiry;
    }
    const auto nup = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nup; ++i) {
        const auto object = rd.get<ObjectId>();
        const auto bytes = rd.get<Bytes>();
        r.uploaded_per_object[object] = bytes;
    }
    const auto npending = rd.get<std::uint32_t>();
    r.pending.reserve(npending);
    for (std::uint32_t i = 0; i < npending; ++i) {
        const auto record = rd.get<trace::DownloadRecord>();
        const auto ntr = rd.get<std::uint32_t>();
        std::vector<trace::TransferRecord> transfers;
        transfers.reserve(ntr);
        for (std::uint32_t t = 0; t < ntr; ++t)
            transfers.push_back(rd.get<trace::TransferRecord>());
        r.pending.emplace_back(record, std::move(transfers));
    }
    const auto ndl = rd.get<std::uint32_t>();
    auto& pool = registry_->downloads();
    for (std::uint32_t i = 0; i < ndl; ++i) {
        const ColdDownloadHead head = read_cold_download_head(rd);
        const DownloadHandle handle = pool.acquire();
        Download& d = pool.get(handle);
        d.reset();
        d.entry = head.entry;
        d.edge = head.edge;
        d.epoch = head.epoch;  // stale pre-hibernation callbacks must still miss
        d.edge_attempt = head.edge_attempt;
        d.bytes_infra = head.bytes_infra;
        d.bytes_peers = head.bytes_peers;
        d.start_time = head.start_time;
        d.peers_initially_returned = head.peers_initially_returned;
        d.corrupt_pieces = head.corrupt_pieces;
        d.options.sequential = head.sequential;
        d.on_finish = std::move(cold_aux_[i].on_finish);
        d.options.on_piece = std::move(cold_aux_[i].on_piece);
        const auto pieces = rd.get<std::uint32_t>();
        d.have.reset(pieces);
        d.full.reset_full(pieces);
        d.picker.reset(pieces);
        for (std::uint32_t base = 0; base < pieces; base += 64) {
            const auto word = rd.get<std::uint64_t>();
            const std::uint32_t top = std::min(pieces - base, 64u);
            for (std::uint32_t b = 0; b < top; ++b)
                if ((word >> b) & 1u) d.have.set(base + b);
        }
        d.paused = true;
        const auto nsrc = rd.get<std::uint32_t>();
        for (std::uint32_t s = 0; s < nsrc; ++s) {
            const auto from = rd.get<Guid>();
            const auto ip = rd.get<net::IpAddr>();
            const auto bytes = rd.get<Bytes>();
            auto& [slot_ip, slot_total] = d.per_source_bytes[from];
            slot_ip = ip;
            slot_total = bytes;
        }
        r.downloads[head.object] = handle;
    }
    assert(rd.done());
    cold_aux_.clear();
    registry_->cold().free(cold_blob_);
    cold_blob_ = ColdStore::BlobRef{};
    // Upload-ledger deltas that raced hibernation (the ledger is lookup-only,
    // so folding them in late is unobservable).
    for (const auto& [object, bytes] : cold_uploaded_) r.uploaded_per_object[object] += bytes;
    cold_uploaded_.clear();
}

control::PeerDescriptor NetSessionClient::descriptor() const {
    const net::Attachment& a = world_->host(host_).attach;
    const net::CountryInfo& c = net::country(a.location.country);
    return control::PeerDescriptor{guid_, host_,      a.ip,     a.nat,
                                   a.asn, c.id,       c.continent, c.region};
}

control::LoginInfo NetSessionClient::make_login_info() const {
    control::LoginInfo info;
    info.desc = descriptor();
    info.software_version = version_;
    info.uploads_enabled = uploads_enabled_;
    // Last five secondary GUIDs, newest first (§6.2).
    for (std::size_t i = 0; i < info.secondary_guids.size() && i < res_->chain.size(); ++i)
        info.secondary_guids[i] = res_->chain[res_->chain.size() - 1 - i];
    info.cached_objects = cached_objects();
    return info;
}

std::vector<ObjectId> NetSessionClient::cached_objects() const {
    std::vector<ObjectId> out;
    if (res_ != nullptr) {
        out.reserve(res_->cache.size());
        for (const auto& [object, when] : res_->cache) out.push_back(object);
        return out;
    }
    if (!cold_blob_.valid()) return out;
    ColdReader rd(registry_->cold().data(cold_blob_), cold_blob_.size);
    rd.skip<Rng::State>(1);
    const auto n = rd.get<std::uint32_t>();
    const sim::SimTime now = world_->simulator().now();
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto object = rd.get<ObjectId>();
        const auto when = rd.get<sim::SimTime>();
        // Retention expiry is applied lazily on cold entries (their eviction
        // timers no-op while hibernated), mirroring the timer's cutoff.
        if (now - when < config_->cache_retention) out.push_back(object);
    }
    return out;
}

bool NetSessionClient::has_cached(ObjectId object) const {
    if (res_ != nullptr) return res_->cache.contains(object);
    if (!cold_blob_.valid()) return false;
    ColdReader rd(registry_->cold().data(cold_blob_), cold_blob_.size);
    rd.skip<Rng::State>(1);
    const auto n = rd.get<std::uint32_t>();
    const sim::SimTime now = world_->simulator().now();
    for (std::uint32_t i = 0; i < n; ++i) {
        const auto cached = rd.get<ObjectId>();
        const auto when = rd.get<sim::SimTime>();
        if (cached == object) return now - when < config_->cache_retention;
    }
    return false;
}

// --- lifecycle ---------------------------------------------------------------

void NetSessionClient::start() {
    if (running_) return;
    ensure_resident();
    running_ = true;
    // A fresh secondary GUID is chosen every time the software starts (§6.2).
    res_->chain.push_back(SecondaryGuid{res_->rng.next(), res_->rng.next()});

    // Lazy cache eviction for retention that elapsed while offline. The >=
    // mirrors the eviction timer's cutoff exactly (the timer fires at
    // cached_at + retention and evicts there), so a hibernated client — whose
    // timers no-op while it is demoted — converges to the same cache content
    // as a resident one the moment it comes back.
    const auto now = world_->simulator().now();
    res_->evict_scratch.clear();
    for (const auto& [object, when] : res_->cache)
        if (now - when >= config_->cache_retention) res_->evict_scratch.push_back(object);
    for (const auto object : res_->evict_scratch) res_->cache.erase(object);

    // Connectivity discovery, then the persistent control connection. The
    // probe can be silently lost (STUN blackout, partition); a timeout makes
    // sure startup never wedges on it — the client then proceeds with a
    // conservative NAT classification (§3.8 degraded mode).
    const std::uint32_t attempt = ++stun_attempt_;
    stun_pending_ = true;
    plane_->closest_stun(host_).probe(host_, [this, attempt](control::ConnectivityReport) {
        if (!running_ || attempt != stun_attempt_) return;
        const bool was_pending = stun_pending_;
        stun_pending_ = false;
        conservative_nat_ = false;  // fresh, authoritative classification
        if (was_pending) connect_control_plane();
    });
    world_->simulator().schedule_after(sim::seconds(config_->stun_timeout_s), [this, attempt] {
        if (!running_ || attempt != stun_attempt_ || !stun_pending_) return;
        stun_pending_ = false;
        conservative_nat_ = true;
        note_degradation(trace::DegradationKind::stun_timeout);
        connect_control_plane();
    });

    if (config_->resume_on_start)
        for (const auto& [object, handle] : res_->downloads)
            if (registry_->downloads().get(handle).paused) resume_download(object);
}

void NetSessionClient::stop() {
    if (!running_) return;
    running_ = false;

    // Active downloads pause; they can be continued later (§3.3).
    for (const auto& [object, handle] : res_->downloads) {
        Download& d = registry_->downloads().get(handle);
        if (!d.paused) {
            d.paused = true;
            stop_transfers(d, /*notify_remotes=*/true);
        }
    }
    // Downloads we were serving break off.
    for (const auto& [downloader, object] : res_->upload_conns) {
        if (NetSessionClient* remote = registry_->find(downloader)) {
            const Guid self = guid_;
            world_->send(host_, remote->host(),
                         [remote, self, object] { remote->on_source_lost(self, object); });
        }
    }
    res_->upload_conns.clear();
    res_->introductions.clear();

    if (cn_ != nullptr) {
        control::ConnectionNode* cn = cn_;
        const Guid self = guid_;
        world_->send(host_, cn->host(), [cn, self] { cn->logout(self); });
        cn_ = nullptr;
    }
    login_in_flight_ = false;
    stun_pending_ = false;
}

void NetSessionClient::crash() {
    if (!running_) return;
    running_ = false;
    // Downloads pause exactly as on a clean stop (resumable on disk), but
    // nothing is announced: no goodbyes to transfer partners, no CN logout —
    // the session just goes stale server-side.
    for (const auto& [object, handle] : res_->downloads) {
        Download& d = registry_->downloads().get(handle);
        if (!d.paused) {
            d.paused = true;
            stop_transfers(d, /*notify_remotes=*/false);
        }
    }
    res_->upload_conns.clear();
    res_->introductions.clear();
    // Everything still moving through this host — chiefly uploads we were
    // serving — dies with the machine; downloaders' watchdogs must notice.
    world_->drop_host_flows(host_);
    cn_ = nullptr;
    login_in_flight_ = false;
    stun_pending_ = false;
}

// --- control-plane connectivity ------------------------------------------------

void NetSessionClient::connect_control_plane() {
    if (!running_ || cn_ != nullptr || login_in_flight_) return;
    control::ConnectionNode* cn = plane_->closest_cn(host_);
    if (cn == nullptr) {
        // Entire control plane unreachable; keep retrying in the background.
        // Downloads keep working straight off the edge servers (§3.8).
        schedule_reconnect();
        return;
    }
    login_in_flight_ = true;
    const std::uint32_t attempt = ++login_attempt_;
    const control::LoginInfo info = make_login_info();
    world_->send(host_, cn->host(), [this, cn, info, attempt] {
        if (!cn->login(*this, info)) {
            // CN down or its admission limiter deferred us; back off.
            world_->send(cn->host(), host_, [this, attempt] { on_login_failed(attempt); });
            return;
        }
        world_->send(cn->host(), host_, [this, cn, attempt] { on_login_ok(cn, attempt); });
    });
    // Request or reply may be lost outright (CN died mid-handshake, network
    // partition); without this timeout login_in_flight_ would wedge forever.
    world_->simulator().schedule_after(sim::seconds(config_->login_timeout_s), [this, attempt] {
        if (attempt != login_attempt_ || !login_in_flight_) return;
        login_in_flight_ = false;
        note_degradation(trace::DegradationKind::login_timeout);
        schedule_reconnect();
    });
}

void NetSessionClient::on_login_ok(control::ConnectionNode* cn, std::uint32_t attempt) {
    if (attempt != login_attempt_ || cn_ != nullptr || !running_) {
        // Stale success (timed out, superseded, or the client stopped): the
        // CN-side session is a duplicate; close it — unless a newer attempt
        // landed on the very same CN, whose live session must survive.
        if (cn != cn_) {
            const Guid self = guid_;
            world_->send(host_, cn->host(), [cn, self] { cn->logout(self); });
        }
        return;
    }
    login_in_flight_ = false;
    cn_ = cn;
    reconnect_delay_s_ = config_->reconnect_base_s;
    flush_pending_reports();
    kick_downloads();
}

void NetSessionClient::on_login_failed(std::uint32_t attempt) {
    if (attempt != login_attempt_ || !login_in_flight_) return;
    login_in_flight_ = false;
    schedule_reconnect();
}

void NetSessionClient::schedule_reconnect() {
    if (!running_) return;
    // Exponential backoff with jitter keeps reconnection storms smooth when
    // a CN dies with >150k peers attached (§3.8).
    const double delay = reconnect_delay_s_ * (1.0 + res_->rng.uniform());
    reconnect_delay_s_ = std::min(reconnect_delay_s_ * 2.0, config_->reconnect_max_s);
    world_->simulator().schedule_after(sim::seconds(delay), [this] {
        if (running_ && cn_ == nullptr) connect_control_plane();
    });
}

void NetSessionClient::on_disconnected() {
    cn_ = nullptr;
    if (running_) schedule_reconnect();
}

void NetSessionClient::on_re_add_request() {
    if (!running_ || cn_ == nullptr || !uploads_enabled_) return;
    for (const auto& [object, when] : res_->cache) announce_object(object, /*readd=*/true);
}

void NetSessionClient::on_introduction(const control::PeerDescriptor& downloader,
                                       ObjectId object) {
    if (!running_) return;
    res_->introductions.insert(intro_key(downloader.guid, object));
}

void NetSessionClient::on_upgrade_available(std::uint32_t version) {
    if (version <= version_) return;
    // Automated background upgrade, spread over several minutes so the
    // whole population does not restart at once (§3.8).
    const double delay_s = res_->rng.uniform(30.0, 900.0);
    world_->simulator().schedule_after(sim::seconds(delay_s), [this, version] {
        if (version > version_) version_ = version;
    });
}

// --- downloads ------------------------------------------------------------------

void NetSessionClient::begin_download(ObjectId object, DownloadCallback on_finish,
                                      DownloadOptions options) {
    const edge::CatalogEntry* entry = catalog_->find(object);
    assert(entry != nullptr && "download of unpublished object");

    if (Download* known = find_download(object)) {
        // Already known (paused or running): treat as user-initiated resume.
        known->on_finish = std::move(on_finish);
        resume_download(object);
        return;
    }
    if (res_->cache.contains(object)) {
        // Stale copy: the DLM re-downloads (versions must not mix, §3.5).
        res_->cache.erase(object);
        withdraw_object(object);
    }

    NS_OBS_INC_P(metrics_, downloads_started);
    // Pool acquisition: a parked Download (from any client on this host set)
    // is reused with its arrays at capacity; reset() wipes the carried state.
    auto& pool = registry_->downloads();
    const DownloadHandle handle = pool.acquire();
    Download& d = pool.get(handle);
    d.reset();
    d.entry = entry;
    d.have.reset(entry->object.piece_count());
    d.full.reset_full(entry->object.piece_count());
    d.picker.reset(entry->object.piece_count());
    d.edge = &edges_->nearest(host_);
    d.start_time = world_->simulator().now();
    d.on_finish = std::move(on_finish);
    d.options = std::move(options);
    const std::uint32_t epoch = d.epoch;
    res_->downloads[object] = handle;

    request_from_edge(object);
    schedule_watchdog(object);

    // Authenticate to the edge for the p2p search token (§3.5), then query.
    // (`d` stays valid across the map insert: pool slots have stable
    // addresses.)
    const sim::Duration rtt =
        world_->latency(host_, d.edge->host()) + world_->latency(d.edge->host(), host_);
    world_->simulator().schedule_after(rtt, [this, object, epoch] {
        Download* dl = find_download(object);
        if (dl == nullptr || dl->epoch != epoch || dl->paused) return;
        dl->token = dl->edge->authorize(guid_, object);
        dl->has_token = true;
        if (dl->entry->policy.p2p_enabled) query_for_peers(object);
    });
}

std::vector<ObjectId> NetSessionClient::paused_downloads() const {
    std::vector<ObjectId> out;
    if (res_ != nullptr) {
        for (const auto& [object, handle] : res_->downloads)
            if (registry_->downloads().get(handle).paused) out.push_back(object);
        return out;
    }
    // Hibernated: every cold download is paused by construction.
    if (!cold_blob_.valid()) return out;
    ColdReader rd(registry_->cold().data(cold_blob_), cold_blob_.size);
    skip_to_cold_downloads(rd);
    const auto n = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
        const ColdDownloadHead head = read_cold_download_head(rd);
        const auto pieces = rd.get<std::uint32_t>();
        rd.skip<std::uint64_t>((pieces + 63) / 64);
        skip_counted(rd, sizeof(Guid) + sizeof(net::IpAddr) + sizeof(Bytes));
        out.push_back(head.object);
    }
    return out;
}

bool NetSessionClient::download_active(ObjectId object) const {
    const Download* d = find_download(object);
    return d != nullptr && !d->paused;
}

void NetSessionClient::pause_download(ObjectId object) {
    Download* d = find_download(object);
    if (d == nullptr || d->paused) return;
    d->paused = true;
    stop_transfers(*d, /*notify_remotes=*/true);
}

void NetSessionClient::resume_download(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (running_ && !d.paused && !d.edge_transferring) {
        // Not paused, but possibly idle (e.g. freshly re-begun): kick it.
        request_from_edge(object);
        return;
    }
    if (!running_ || !d.paused) return;
    d.paused = false;
    d.has_token = false;
    const std::uint32_t epoch = d.epoch;
    request_from_edge(object);
    schedule_watchdog(object);
    const sim::Duration rtt =
        world_->latency(host_, d.edge->host()) + world_->latency(d.edge->host(), host_);
    world_->simulator().schedule_after(rtt, [this, object, epoch] {
        Download* dl = find_download(object);
        if (dl == nullptr || dl->epoch != epoch || dl->paused) return;
        dl->token = dl->edge->authorize(guid_, object);
        dl->has_token = true;
        if (dl->entry->policy.p2p_enabled) query_for_peers(object);
    });
}

void NetSessionClient::abort_download(ObjectId object, trace::DownloadOutcome outcome) {
    // Aborting while hibernated (a workload cancel event landing on an
    // offline user) wakes the client just long enough to finish the record,
    // then demotes it again.
    const bool was_hibernated = hibernated();
    ensure_resident();
    if (res_->downloads.contains(object)) finish_download(object, outcome);
    if (was_hibernated) hibernate();
}

void NetSessionClient::kick_downloads() {
    std::vector<ObjectId> objects;
    objects.reserve(res_->downloads.size());
    for (const auto& [object, handle] : res_->downloads)
        if (!registry_->downloads().get(handle).paused) objects.push_back(object);
    for (const auto object : objects) {
        Download* d = find_download(object);
        if (d == nullptr) continue;
        if (!d->edge_transferring) request_from_edge(object);
        if (d->entry->policy.p2p_enabled && d->has_token && d->sources.empty())
            query_for_peers(object);
    }
}

// --- edge transfer loop -----------------------------------------------------------

void NetSessionClient::request_from_edge(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (!running_ || d.paused || d.edge_transferring) return;
    std::optional<swarm::PieceIndex> piece;
    if (d.options.sequential) {
        // Streaming: the edge owns the urgent window and may *duplicate* a
        // piece a slow peer is still transferring — the first verified copy
        // wins, so the play head never blocks on a peer's uplink.
        for (swarm::PieceIndex i = 0; i < d.have.size(); ++i)
            if (!d.have.has(i)) {
                piece = i;
                break;
            }
    } else {
        piece = d.picker.pick_from_edge(d.have, res_->rng);
    }
    if (!piece) return;  // everything left is in flight from peers
    if (!d.options.sequential) d.picker.set_in_flight(*piece, true);
    d.edge_piece = *piece;
    d.edge_transferring = true;
    d.edge_started_at = world_->simulator().now();
    const std::uint32_t epoch = d.epoch;
    const std::uint32_t attempt = ++d.edge_attempt;
    edge::EdgeServer* edge = d.edge;
    // The HTTP request crosses the network before the transfer starts. Both
    // the request and the completion validate the attempt generation: if the
    // watchdog declared a stall (and possibly remapped) while this request
    // was in flight, the stale request must not start a competing flow.
    world_->send(host_, edge->host(), [this, object, epoch, attempt, edge, piece = *piece] {
        Download* dl = find_download(object);
        if (dl == nullptr || dl->epoch != epoch || dl->edge_attempt != attempt) return;
        dl->edge_flow = edge->serve_piece(
            host_, guid_, dl->entry->object, piece,
            [this, object, epoch, attempt, piece](Digest256 digest) {
                on_edge_piece(object, epoch, attempt, piece, digest);
            });
    });
}

void NetSessionClient::on_edge_piece(ObjectId object, std::uint32_t epoch, std::uint32_t attempt,
                                     swarm::PieceIndex piece, Digest256 digest) {
    Download* dp = find_download(object);
    if (dp == nullptr || dp->epoch != epoch || dp->edge_attempt != attempt) return;
    Download& d = *dp;
    d.edge_transferring = false;
    d.edge_flow = net::FlowId{};
    d.edge_retry_delay_s = 0;  // the edge path works again; reset the backoff
    if (!d.options.sequential) d.picker.set_in_flight(piece, false);

    if (res_->rng.chance(config_->corruption_prob_edge)) digest = corrupted(digest);
    if (!d.entry->object.verify(piece, digest)) {
        ++d.corrupt_pieces;
        NS_OBS_INC_P(metrics_, corrupt_pieces);
        plane_->monitoring().report_problem(guid_, control::ProblemKind::piece_corruption);
        if (d.corrupt_pieces > config_->max_corrupt_pieces) {
            finish_download(object, trace::DownloadOutcome::failed_system);
            return;
        }
        request_from_edge(object);
        return;
    }

    const Bytes len = d.entry->object.piece_length(piece);
    d.bytes_infra += len;
    NS_OBS_ADD_P(metrics_, bytes_from_edge, len);
    if (d.have.set(piece)) {
        // (A duplicate of a piece a peer delivered meanwhile is paid for but
        // announced only once.)
        if (d.options.on_piece) d.options.on_piece(piece);
    }
    if (d.have.complete()) {
        finish_download(object, trace::DownloadOutcome::completed);
        return;
    }
    request_from_edge(object);
}

// --- p2p side -----------------------------------------------------------------------

void NetSessionClient::query_for_peers(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (!running_ || d.paused || cn_ == nullptr || !d.has_token || d.query_outstanding) return;
    d.query_outstanding = true;
    const std::uint32_t epoch = d.epoch;
    control::ConnectionNode* cn = cn_;
    const Guid self = guid_;
    const edge::AuthToken token = d.token;
    world_->send(host_, cn->host(), [this, cn, self, object, token, epoch] {
        cn->query(self, object, token, /*want=*/40,
                  [this, object, epoch](std::vector<control::PeerDescriptor> peers) {
                      on_query_reply(object, epoch, std::move(peers));
                  });
    });
    // The query or its reply can be lost (CN failure mid-request, partition);
    // clear the outstanding flag so later re-queries are not blocked forever.
    world_->simulator().schedule_after(sim::seconds(config_->query_timeout_s),
                                       [this, object, epoch] {
                                           Download* dl = find_download(object);
                                           if (dl == nullptr || dl->epoch != epoch ||
                                               !dl->query_outstanding)
                                               return;
                                           dl->query_outstanding = false;
                                           note_degradation(trace::DegradationKind::query_timeout);
                                       });
}

void NetSessionClient::on_query_reply(ObjectId object, std::uint32_t epoch,
                                      std::vector<control::PeerDescriptor> peers) {
    Download* dp = find_download(object);
    if (dp == nullptr || dp->epoch != epoch) return;
    Download& d = *dp;
    d.query_outstanding = false;
    if (d.peers_initially_returned < 0)
        d.peers_initially_returned = static_cast<int>(peers.size());
    if (d.paused) return;
    for (const auto& remote : peers) attempt_connection(object, remote);

    // Swarms warm up over time; keep looking while under-sourced
    // ("additional queries are issued until a sufficient number of peer
    // connections succeed", §3.7). `d` is still valid — pool addresses are
    // stable and attempt_connection never finishes a download synchronously.
    if (static_cast<int>(d.sources.size()) + d.pending_attempts < config_->target_peer_sources &&
        d.additional_queries < config_->max_additional_queries) {
        ++d.additional_queries;
        const std::uint32_t requery_epoch = d.epoch;
        world_->simulator().schedule_after(sim::seconds(config_->requery_interval_s),
                                           [this, object, requery_epoch] {
                                               Download* dl = find_download(object);
                                               if (dl == nullptr || dl->epoch != requery_epoch)
                                                   return;
                                               // Allow previously-failed peers another try.
                                               dl->attempted.clear();
                                               query_for_peers(object);
                                           });
    }
}

void NetSessionClient::attempt_connection(ObjectId object, const control::PeerDescriptor& remote) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (static_cast<int>(d.sources.size()) + d.pending_attempts >= config_->max_peer_sources)
        return;
    if (remote.guid == guid_) return;
    if (std::find(d.attempted.begin(), d.attempted.end(), remote.guid) != d.attempted.end())
        return;
    if (std::find_if(d.sources.begin(), d.sources.end(), [&](const PeerSource& s) {
            return s.desc.guid == remote.guid;
        }) != d.sources.end())
        return;
    d.attempted.push_back(remote.guid);

    // A source that failed repeatedly is benched; do not retry it yet.
    if (source_blacklisted(remote.guid)) {
        maybe_need_more_sources(object);
        return;
    }

    NetSessionClient* target = registry_->find(remote.guid);
    if (target == nullptr) {
        maybe_need_more_sources(object);
        return;
    }

    // Coordinated NAT traversal: the CN told both endpoints to connect
    // (§3.7); the punch itself still fails with some probability. Under a
    // STUN outage the client never learned its own NAT type and must assume
    // a conservative one (hole punching still usually works, just worse).
    const net::NatType my_nat = conservative_nat_ ? net::NatType::port_restricted
                                                  : world_->host(host_).attach.nat;
    if (!res_->rng.chance(net::traversal_success_probability(my_nat, remote.nat))) {
        plane_->monitoring().report_problem(guid_, control::ProblemKind::connect_failure);
        maybe_need_more_sources(object);
        return;
    }

    ++d.pending_attempts;
    const std::uint64_t seq = ++attempt_seq_;
    d.open_attempts.insert(seq);
    const std::uint32_t epoch = d.epoch;
    const control::PeerDescriptor me = descriptor();
    world_->send(host_, remote.host, [this, target, me, object, remote, epoch, seq] {
        target->handle_upload_request(me, object,
                                      [this, object, remote, epoch, seq](bool accepted) {
                                          on_connection_result(object, epoch, remote, seq,
                                                               accepted);
                                      });
    });
    // The handshake (or its answer) can be lost; reclaim the pending slot so
    // source accounting does not leak and re-queries stay possible.
    world_->simulator().schedule_after(sim::seconds(config_->query_timeout_s),
                                       [this, object, epoch, seq] {
                                           Download* dl = find_download(object);
                                           if (dl == nullptr || dl->epoch != epoch) return;
                                           if (dl->open_attempts.erase(seq) == 0) return;
                                           if (dl->pending_attempts > 0) --dl->pending_attempts;
                                           maybe_need_more_sources(object);
                                       });
}

void NetSessionClient::on_connection_result(ObjectId object, std::uint32_t epoch,
                                            const control::PeerDescriptor& remote,
                                            std::uint64_t seq, bool accepted) {
    Download* dp = find_download(object);
    if (dp == nullptr || dp->epoch != epoch || dp->open_attempts.erase(seq) == 0) {
        // The download moved on (or the attempt already timed out); release
        // the remote's upload slot.
        if (accepted) {
            if (NetSessionClient* target = registry_->find(remote.guid)) {
                const Guid self = guid_;
                world_->send(host_, remote.host,
                             [target, self, object] { target->on_upload_closed(self, object); });
            }
        }
        return;
    }
    Download& d = *dp;
    if (d.pending_attempts > 0) --d.pending_attempts;
    if (!accepted) {
        maybe_need_more_sources(object);
        return;
    }
    if (d.paused || static_cast<int>(d.sources.size()) >= config_->max_peer_sources) {
        if (NetSessionClient* target = registry_->find(remote.guid)) {
            const Guid self = guid_;
            world_->send(host_, remote.host,
                         [target, self, object] { target->on_upload_closed(self, object); });
        }
        return;
    }
    d.sources.push_back(PeerSource{remote, net::FlowId{}, 0, false, 0, 0, sim::SimTime{}});
    request_from_source(object, remote.guid);
}

void NetSessionClient::maybe_need_more_sources(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (!running_ || d.paused || cn_ == nullptr || !d.entry->policy.p2p_enabled) return;
    const int live = static_cast<int>(d.sources.size()) + d.pending_attempts;
    if (live >= config_->target_peer_sources) return;
    if (d.additional_queries >= config_->max_additional_queries) return;
    if (d.query_outstanding) return;
    ++d.additional_queries;
    query_for_peers(object);
}

void NetSessionClient::request_from_source(ObjectId object, Guid source_guid) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    if (!running_ || d.paused) return;
    const auto sit = std::find_if(d.sources.begin(), d.sources.end(),
                                  [&](const PeerSource& s) { return s.desc.guid == source_guid; });
    if (sit == d.sources.end() || sit->transferring) return;
    PeerSource& src = *sit;

    // A partition may have opened since the source connected; a flow across
    // the cut could never deliver. Treat it like a stalled source.
    if (!world_->reachable(host_, src.desc.host)) {
        note_degradation(trace::DegradationKind::peer_stall);
        note_source_failure(source_guid);
        drop_source(d, source_guid, /*notify_remote=*/false);
        maybe_need_more_sources(object);
        if (!d.edge_transferring) request_from_edge(object);
        return;
    }

    // Streaming: peers prefetch ahead of the urgent window, which belongs to
    // the (fast, reliable) edge connection.
    auto piece = d.options.sequential
                     ? d.picker.pick_sequential(d.have, &d.full, /*skip_urgent=*/2)
                     : d.picker.pick_from_peer(d.have, d.full, res_->rng);
    if (!piece && d.options.sequential) piece = d.picker.pick_sequential(d.have, &d.full);
    if (!piece) return;  // all remaining pieces are in flight; source idles
    d.picker.set_in_flight(*piece, true);
    src.piece = *piece;
    src.transferring = true;
    src.started_at = world_->simulator().now();
    const Bytes len = d.entry->object.piece_length(*piece);
    const Digest256 digest = d.entry->object.correct_transfer_digest(*piece);
    const std::uint32_t epoch = d.epoch;
    const Guid from = src.desc.guid;
    src.flow = world_->flows().start_flow(
        src.desc.host, host_, len, d.entry->policy.upload_rate_cap,
        [this, object, epoch, from, piece = *piece, digest](net::FlowId) {
            on_peer_piece(object, epoch, from, piece, digest);
        });
}

void NetSessionClient::on_peer_piece(ObjectId object, std::uint32_t epoch, Guid from,
                                     swarm::PieceIndex piece, Digest256 digest) {
    Download* dp = find_download(object);
    if (dp == nullptr || dp->epoch != epoch) return;
    Download& d = *dp;
    const auto sit = std::find_if(d.sources.begin(), d.sources.end(),
                                  [&](const PeerSource& s) { return s.desc.guid == from; });
    if (sit == d.sources.end()) return;
    PeerSource& src = *sit;
    src.transferring = false;
    src.flow = net::FlowId{};
    d.picker.set_in_flight(piece, false);

    const Bytes len = d.entry->object.piece_length(piece);
    NetSessionClient* uploader = registry_->find(from);
    if (uploader != nullptr && uploader->corrupt_uploads()) digest = corrupted(digest);
    if (res_->rng.chance(config_->corruption_prob_peer)) digest = corrupted(digest);
    if (!d.entry->object.verify(piece, digest)) {
        // Discard the piece; it is never passed on to other peers (§3.5).
        ++d.corrupt_pieces;
        ++src.corrupt_pieces;
        NS_OBS_INC_P(metrics_, corrupt_pieces);
        plane_->monitoring().report_problem(guid_, control::ProblemKind::piece_corruption);
        if (d.corrupt_pieces > config_->max_corrupt_pieces) {
            finish_download(object, trace::DownloadOutcome::failed_system);
            return;
        }
        if (src.corrupt_pieces >= 3) {
            // A source that repeatedly fails verification has bad data;
            // disconnect it and fill in from elsewhere. It counts toward the
            // blacklist like any other repeated source failure.
            note_source_failure(from);
            drop_source(d, from, /*notify_remote=*/true);
            maybe_need_more_sources(object);
            if (!d.edge_transferring) request_from_edge(object);
            return;
        }
        request_from_source(object, from);
        return;
    }

    d.bytes_peers += len;
    NS_OBS_ADD_P(metrics_, bytes_from_peers, len);
    src.bytes += len;
    res_->source_failures.erase(from);  // a delivered piece clears the strike count
    auto& [ip, total] = d.per_source_bytes[from];
    ip = src.desc.ip;
    total += len;
    if (uploader != nullptr) uploader->note_uploaded(object, len);
    if (d.have.set(piece)) {
        if (d.options.on_piece) d.options.on_piece(piece);
    }

    if (d.have.complete()) {
        finish_download(object, trace::DownloadOutcome::completed);
        return;
    }
    request_from_source(object, from);
    // A completed piece may unblock idle connections (the piece they were
    // waiting on is no longer the only one missing).
    if (!d.edge_transferring) request_from_edge(object);
}

// --- upload side ---------------------------------------------------------------------

void NetSessionClient::handle_upload_request(const control::PeerDescriptor& downloader,
                                             ObjectId object, std::function<void(bool)> reply) {
    bool accept = running_ && uploads_enabled_ && res_->cache.contains(object);
    // Connections come through CN coordination only (hole punching needs it).
    if (accept && !res_->introductions.contains(intro_key(downloader.guid, object))) accept = false;
    if (accept &&
        static_cast<int>(res_->upload_conns.size()) >= config_->max_upload_connections)
        accept = false;
    // "peers upload each object at most a limited number of times" (§3.9):
    // the budget is full-object equivalents of uploaded bytes.
    if (accept) {
        const edge::CatalogEntry* entry = catalog_->find(object);
        const Bytes budget =
            entry == nullptr ? 0
                             : entry->object.size() *
                                   static_cast<Bytes>(config_->max_uploads_per_object);
        if (res_->uploaded_per_object[object] >= budget) {
            accept = false;
            withdraw_object(object);
        }
    }
    if (accept) res_->upload_conns.emplace_back(downloader.guid, object);
    world_->send(host_, downloader.host, [reply = std::move(reply), accept] { reply(accept); });
}

void NetSessionClient::on_upload_closed(Guid downloader, ObjectId object) {
    if (res_ == nullptr) return;  // hibernated: connections were already torn down
    const auto it = std::find(res_->upload_conns.begin(), res_->upload_conns.end(),
                              std::make_pair(downloader, object));
    if (it != res_->upload_conns.end()) res_->upload_conns.erase(it);
}

void NetSessionClient::drop_source(Download& d, Guid source_guid, bool notify_remote) {
    const auto sit = std::find_if(d.sources.begin(), d.sources.end(),
                                  [&](const PeerSource& s) { return s.desc.guid == source_guid; });
    if (sit == d.sources.end()) return;
    if (sit->transferring) {
        world_->flows().cancel_flow(sit->flow);
        d.picker.set_in_flight(sit->piece, false);
    }
    if (notify_remote) {
        if (NetSessionClient* remote = registry_->find(source_guid)) {
            const Guid self = guid_;
            const ObjectId object = d.entry->object.id();
            world_->send(host_, sit->desc.host, [remote, self, object] {
                remote->on_upload_closed(self, object);
            });
        }
    }
    d.sources.erase(sit);
}

void NetSessionClient::on_source_lost(Guid uploader, ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    const auto sit = std::find_if(d.sources.begin(), d.sources.end(),
                                  [&](const PeerSource& s) { return s.desc.guid == uploader; });
    if (sit == d.sources.end()) return;
    if (sit->transferring) {
        world_->flows().cancel_flow(sit->flow);  // partial piece is lost
        d.picker.set_in_flight(sit->piece, false);
    }
    d.sources.erase(sit);
    if (!d.paused) {
        maybe_need_more_sources(object);
        if (!d.edge_transferring) request_from_edge(object);
    }
}

// --- failure hardening -------------------------------------------------------------------

void NetSessionClient::note_degradation(trace::DegradationKind kind) {
    switch (kind) {
        case trace::DegradationKind::edge_stall: NS_OBS_INC_P(metrics_, edge_stalls); break;
        case trace::DegradationKind::edge_remapped: NS_OBS_INC_P(metrics_, edge_remaps); break;
        case trace::DegradationKind::peer_stall: NS_OBS_INC_P(metrics_, peer_stalls); break;
        case trace::DegradationKind::source_blacklisted:
            NS_OBS_INC_P(metrics_, blacklists);
            break;
        case trace::DegradationKind::query_timeout: NS_OBS_INC_P(metrics_, query_timeouts); break;
        case trace::DegradationKind::login_timeout: NS_OBS_INC_P(metrics_, login_timeouts); break;
        case trace::DegradationKind::stun_timeout: NS_OBS_INC_P(metrics_, stun_timeouts); break;
    }
    // Simulator-level telemetry (not part of the CN log schema): recorded
    // directly, because most degradations happen exactly when the control
    // plane is unreachable.
    trace::DegradationRecord rec;
    rec.guid = guid_;
    rec.time = world_->simulator().now();
    rec.kind = kind;
    plane_->trace_log().add(rec);
}

void NetSessionClient::note_source_failure(Guid source) {
    const int failures = ++res_->source_failures[source];
    if (failures < config_->blacklist_failures) return;
    res_->source_failures.erase(source);
    res_->blacklist[source] =
        world_->simulator().now() + sim::seconds(config_->blacklist_duration_s);
    note_degradation(trace::DegradationKind::source_blacklisted);
}

bool NetSessionClient::source_blacklisted(Guid source) {
    const auto it = res_->blacklist.find(source);
    if (it == res_->blacklist.end()) return false;
    if (world_->simulator().now() >= it->second) {
        res_->blacklist.erase(it);  // ban served; lazily expire
        return false;
    }
    return true;
}

void NetSessionClient::sweep_blacklist(sim::SimTime now) {
    // Lazy expiry in source_blacklisted() only fires when the same GUID is
    // looked up again; sources that never come back would accumulate forever
    // at 200k-peer scale. The watchdog ticks call this to keep the table
    // bounded by the set of bans that are actually still in force.
    if (res_->blacklist.empty()) return;
    res_->blacklist_scratch.clear();
    for (const auto& [source, expiry] : res_->blacklist)
        if (now >= expiry) res_->blacklist_scratch.push_back(source);
    for (const Guid source : res_->blacklist_scratch) res_->blacklist.erase(source);
}

void NetSessionClient::for_each_open_download(
    const std::function<void(const Download&)>& fn) const {
    if (res_ == nullptr) return;  // hibernated state is frozen; nothing live to visit
    for (const auto& [object, handle] : res_->downloads) fn(registry_->downloads().get(handle));
}

void NetSessionClient::schedule_watchdog(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    const std::uint32_t epoch = d.epoch;
    d.watchdog = world_->simulator().schedule_after(
        sim::seconds(config_->watchdog_interval_s),
        [this, object, epoch] { watchdog_tick(object, epoch); });
}

void NetSessionClient::watchdog_tick(ObjectId object, std::uint32_t epoch) {
    Download* dp = find_download(object);
    if (dp == nullptr || dp->epoch != epoch || dp->paused) return;
    Download& d = *dp;
    const sim::SimTime now = world_->simulator().now();
    const sim::Duration grace = sim::seconds(config_->stall_grace_s);

    sweep_blacklist(now);

    // Stall detection is liveness-based: a transfer is healthy while its flow
    // exists, however slow it runs. A missing flow past the grace period
    // means the request was refused, lost, or the connection was cut.
    if (d.edge_transferring && !world_->flows().active(d.edge_flow) &&
        now - d.edge_started_at > grace) {
        note_degradation(trace::DegradationKind::edge_stall);
        if (!d.options.sequential) d.picker.set_in_flight(d.edge_piece, false);
        d.edge_transferring = false;
        d.edge_flow = net::FlowId{};
        // The abandoned request may still be crossing the network (its send
        // latency can exceed the grace period); invalidate it so it cannot
        // start a second flow racing the retry and double-counting bytes.
        ++d.edge_attempt;
        // Re-resolve DNS: a failed or partitioned edge maps to the
        // next-nearest live server.
        edge::EdgeServer* fresh = &edges_->nearest(host_);
        if (fresh != d.edge) {
            d.edge = fresh;
            note_degradation(trace::DegradationKind::edge_remapped);
        }
        schedule_edge_retry(object);
    }

    // Dead peer sources: flow gone without a completion (uploader crashed,
    // server cut the cross-partition flow, ...).
    std::vector<Guid> stalled;
    for (const PeerSource& src : d.sources)
        if (src.transferring && !world_->flows().active(src.flow) &&
            now - src.started_at > grace)
            stalled.push_back(src.desc.guid);
    for (const Guid source : stalled) {
        note_degradation(trace::DegradationKind::peer_stall);
        note_source_failure(source);
        drop_source(d, source, /*notify_remote=*/true);
    }
    if (!stalled.empty()) {
        maybe_need_more_sources(object);
        Download* after = find_download(object);
        if (after == nullptr) return;  // re-query finished it? be safe
        if (!after->edge_transferring && after->edge_retry_delay_s == 0)
            request_from_edge(object);
    }

    schedule_watchdog(object);
}

void NetSessionClient::schedule_edge_retry(ObjectId object) {
    Download* dp = find_download(object);
    if (dp == nullptr) return;
    Download& d = *dp;
    NS_OBS_INC_P(metrics_, edge_retries);
    // Capped exponential backoff: no hammering a dead edge every tick, quick
    // recovery once something changes (reset on the next delivered piece).
    d.edge_retry_delay_s = d.edge_retry_delay_s == 0
                               ? config_->edge_retry_base_s
                               : std::min(d.edge_retry_delay_s * 2.0, config_->edge_retry_max_s);
    const std::uint32_t epoch = d.epoch;
    world_->simulator().schedule_after(sim::seconds(d.edge_retry_delay_s),
                                       [this, object, epoch] {
                                           Download* dl = find_download(object);
                                           if (dl == nullptr || dl->epoch != epoch || dl->paused)
                                               return;
                                           if (!dl->edge_transferring) request_from_edge(object);
                                       });
}

// --- terminal handling ------------------------------------------------------------------

void NetSessionClient::stop_transfers(Download& d, bool notify_remotes) {
    ++d.epoch;  // invalidates every async callback of this download
    world_->simulator().cancel(d.watchdog);
    d.watchdog = sim::EventHandle{};
    d.open_attempts.clear();
    d.edge_retry_delay_s = 0;
    if (d.edge_transferring) {
        if (d.edge_flow.valid()) d.edge->abort(d.edge_flow);
        if (!d.options.sequential) d.picker.set_in_flight(d.edge_piece, false);
        d.edge_transferring = false;
        d.edge_flow = net::FlowId{};
    }
    for (PeerSource& src : d.sources) {
        if (src.transferring) {
            world_->flows().cancel_flow(src.flow);
            d.picker.set_in_flight(src.piece, false);
            src.transferring = false;
        }
        if (notify_remotes) {
            if (NetSessionClient* remote = registry_->find(src.desc.guid)) {
                const Guid self = guid_;
                const ObjectId object = d.entry->object.id();
                world_->send(host_, src.desc.host, [remote, self, object] {
                    remote->on_upload_closed(self, object);
                });
            }
        }
    }
    d.sources.clear();
    d.attempted.clear();
    d.pending_attempts = 0;
    d.additional_queries = 0;
    d.query_outstanding = false;
    d.has_token = false;
}

void NetSessionClient::finish_download(ObjectId object, trace::DownloadOutcome outcome) {
    const DownloadHandle* hp = res_->downloads.find_value(object);
    assert(hp != nullptr);
    const DownloadHandle handle = *hp;
    Download& d = registry_->downloads().get(handle);
    stop_transfers(d, /*notify_remotes=*/true);  // also cancels the watchdog

    trace::DownloadRecord rec;
    rec.guid = guid_;
    rec.object = object;
    rec.url_hash = d.entry->object.url_hash();
    rec.cp_code = d.entry->object.provider();
    rec.object_size = d.entry->object.size();
    rec.start = d.start_time;
    rec.end = world_->simulator().now();
    rec.bytes_from_infrastructure = d.bytes_infra;
    rec.bytes_from_peers = d.bytes_peers;
    rec.p2p_enabled = d.entry->policy.p2p_enabled;
    rec.peers_initially_returned = std::max(0, d.peers_initially_returned);
    rec.outcome = outcome;

    if (outcome == trace::DownloadOutcome::completed)
        NS_OBS_INC_P(metrics_, downloads_completed);
    else
        NS_OBS_INC_P(metrics_, downloads_failed);
    NS_OBS_OBSERVE_P(metrics_, download_bytes, d.bytes_infra + d.bytes_peers);
    NS_OBS_OBSERVE_P(metrics_, download_duration_s, (rec.end - rec.start).seconds());

    std::vector<trace::TransferRecord> transfers;
    const net::IpAddr my_ip = world_->host(host_).attach.ip;
    transfers.reserve(d.per_source_bytes.size());
    for (const auto& [from, detail] : d.per_source_bytes) {
        if (detail.second <= 0) continue;
        transfers.push_back(
            trace::TransferRecord{object, from, guid_, detail.first, my_ip, detail.second, rec.end});
    }

    DownloadCallback cb = std::move(d.on_finish);
    res_->downloads.erase(object);
    // Park the state for reuse; `d` must not be touched past this point.
    registry_->downloads().release(handle);

    if (outcome == trace::DownloadOutcome::completed) cache_object(object);
    if (tamper_) tamper_(rec);
    submit_report(rec, std::move(transfers));
    if (cb) cb(rec);
}

void NetSessionClient::submit_report(trace::DownloadRecord record,
                                     std::vector<trace::TransferRecord> transfers) {
    if (cn_ == nullptr) {
        // Usage statistics are batched and uploaded on the next login.
        res_->pending.emplace_back(record, std::move(transfers));
        return;
    }
    control::ConnectionNode* cn = cn_;
    world_->send(host_, cn->host(), [cn, record, transfers = std::move(transfers)] {
        cn->report_download(record);
        for (const auto& t : transfers) cn->report_transfer(t);
    });
}

void NetSessionClient::flush_pending_reports() {
    if (cn_ == nullptr) return;
    auto pending = std::move(res_->pending);
    res_->pending.clear();
    for (auto& [record, transfers] : pending) submit_report(record, std::move(transfers));
}

void NetSessionClient::flush_unfinished() {
    if (res_ != nullptr) {
        for (const auto& [object, handle] : res_->downloads) {
            const Download& d = registry_->downloads().get(handle);
            trace::DownloadRecord rec;
            rec.guid = guid_;
            rec.object = object;
            rec.url_hash = d.entry->object.url_hash();
            rec.cp_code = d.entry->object.provider();
            rec.object_size = d.entry->object.size();
            rec.start = d.start_time;
            rec.end = world_->simulator().now();
            rec.bytes_from_infrastructure = d.bytes_infra;
            rec.bytes_from_peers = d.bytes_peers;
            rec.p2p_enabled = d.entry->policy.p2p_enabled;
            rec.peers_initially_returned = std::max(0, d.peers_initially_returned);
            rec.outcome = d.paused ? trace::DownloadOutcome::aborted_by_user
                                   : trace::DownloadOutcome::in_progress;
            plane_->trace_log().add(rec);
        }
        return;
    }
    // Hibernated: read the downloads straight out of the cold blob. At 1M
    // peers the terminal flush must not rehydrate the (mostly offline)
    // population just to write a few records.
    if (!cold_blob_.valid()) return;
    ColdReader rd(registry_->cold().data(cold_blob_), cold_blob_.size);
    skip_to_cold_downloads(rd);
    const auto n = rd.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < n; ++i) {
        const ColdDownloadHead head = read_cold_download_head(rd);
        const auto pieces = rd.get<std::uint32_t>();
        rd.skip<std::uint64_t>((pieces + 63) / 64);
        skip_counted(rd, sizeof(Guid) + sizeof(net::IpAddr) + sizeof(Bytes));
        trace::DownloadRecord rec;
        rec.guid = guid_;
        rec.object = head.object;
        rec.url_hash = head.entry->object.url_hash();
        rec.cp_code = head.entry->object.provider();
        rec.object_size = head.entry->object.size();
        rec.start = head.start_time;
        rec.end = world_->simulator().now();
        rec.bytes_from_infrastructure = head.bytes_infra;
        rec.bytes_from_peers = head.bytes_peers;
        rec.p2p_enabled = head.entry->policy.p2p_enabled;
        rec.peers_initially_returned = std::max(0, head.peers_initially_returned);
        // Cold downloads are paused by construction (hibernation only
        // happens offline, with every download paused).
        rec.outcome = trace::DownloadOutcome::aborted_by_user;
        plane_->trace_log().add(rec);
    }
}

// --- cache -----------------------------------------------------------------------------

void NetSessionClient::cache_object(ObjectId object) {
    res_->cache[object] = world_->simulator().now();
    res_->uploaded_per_object[object] = 0;  // a fresh copy resets the upload budget
    announce_object(object, /*readd=*/false);
    schedule_eviction(object);

    // Disk budget: evict the oldest copies beyond the cap.
    while (static_cast<int>(res_->cache.size()) > config_->max_cached_objects) {
        auto oldest = res_->cache.begin();
        for (auto it = res_->cache.begin(); it != res_->cache.end(); ++it)
            if (it->second < oldest->second) oldest = it;
        const ObjectId victim = oldest->first;
        res_->cache.erase(victim);
        withdraw_object(victim);
    }
}

void NetSessionClient::schedule_eviction(ObjectId object) {
    world_->simulator().schedule_after(config_->cache_retention, [this, object] {
        // Hibernated: the timer is lost, but start()'s lazy sweep (and the
        // cold-query retention cutoff) apply the same expiry rule.
        if (res_ == nullptr) return;
        const auto it = res_->cache.find(object);
        if (it == res_->cache.end()) return;
        if (world_->simulator().now() - it->second < config_->cache_retention) return;  // renewed
        res_->cache.erase(it);
        withdraw_object(object);
    });
}

void NetSessionClient::announce_object(ObjectId object, bool readd) {
    if (cn_ == nullptr || !uploads_enabled_) return;
    control::ConnectionNode* cn = cn_;
    const Guid self = guid_;
    world_->send(host_, cn->host(),
                 [cn, self, object, readd] { cn->register_copy(self, object, readd); });
}

void NetSessionClient::withdraw_object(ObjectId object) {
    if (cn_ == nullptr) return;
    control::ConnectionNode* cn = cn_;
    const Guid self = guid_;
    world_->send(host_, cn->host(), [cn, self, object] { cn->unregister_copy(self, object); });
}

// --- settings, traffic, mobility, install state -------------------------------------------

void NetSessionClient::set_uploads_enabled(bool enabled) {
    if (uploads_enabled_ == enabled) return;
    uploads_enabled_ = enabled;
    if (cn_ == nullptr) return;
    if (enabled) {
        for (const auto& [object, when] : res_->cache) announce_object(object, /*readd=*/false);
    } else {
        for (const auto& [object, when] : res_->cache) withdraw_object(object);
    }
}

void NetSessionClient::set_user_traffic(bool active) {
    if (user_traffic_ == active) return;
    user_traffic_ = active;
    // Uploads back off while the user's own traffic needs the link (§3.9);
    // downloads are user-initiated and keep their full share. Routed through
    // the world so an active AS degradation stays applied on top.
    world_->set_host_up_capacity(host_, active ? base_up_ * config_->user_traffic_upload_factor
                                               : base_up_);
}

void NetSessionClient::move_to(net::Location location, Asn asn, net::NatType nat) {
    world_->reattach(host_, location, asn, nat);
    if (cn_ != nullptr) {
        // The TCP connection does not survive the move; log in again so the
        // control plane sees the new address.
        control::ConnectionNode* cn = cn_;
        const Guid self = guid_;
        world_->send(host_, cn->host(), [cn, self] { cn->logout(self); });
        cn_ = nullptr;
    }
    if (running_) connect_control_plane();
}

NetSessionClient::InstallState NetSessionClient::snapshot_state() {
    ensure_resident();
    return InstallState{guid_, res_->chain, uploads_enabled_};
}

void NetSessionClient::restore_state(InstallState state) {
    ensure_resident();
    if (registry_->find(guid_) == this) registry_->remove(guid_);
    guid_ = state.guid;
    res_->chain = std::move(state.chain);
    uploads_enabled_ = state.uploads_enabled;
    registry_->add(guid_, this);
}

}  // namespace netsession::peer
