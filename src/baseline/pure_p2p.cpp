#include "baseline/pure_p2p.hpp"

#include <algorithm>
#include <cassert>

namespace netsession::baseline {

// --- Swarm --------------------------------------------------------------------

Swarm::Swarm(net::World& world, const swarm::ContentObject& object, TorrentConfig config, Rng rng)
    : world_(&world), object_(&object), config_(config), rng_(rng) {}

Swarm::~Swarm() = default;

TorrentPeer& Swarm::add_peer(HostId host, bool seed,
                             std::function<void(TorrentPeer&)> on_complete) {
    peers_.push_back(std::make_unique<TorrentPeer>(*this, host, seed, std::move(on_complete)));
    TorrentPeer& peer = *peers_.back();
    peer.start();
    return peer;
}

void Swarm::remove_peer(TorrentPeer& peer) {
    peer.depart();
    const auto it = std::find_if(peers_.begin(), peers_.end(),
                                 [&](const auto& p) { return p.get() == &peer; });
    if (it != peers_.end()) peers_.erase(it);
}

std::vector<TorrentPeer*> Swarm::announce(TorrentPeer& who, int want) {
    // The tracker returns a uniformly random subset — no locality, no NAT
    // pre-filtering (contrast with the DN's selection, §3.7).
    std::vector<TorrentPeer*> out;
    std::vector<TorrentPeer*> candidates;
    candidates.reserve(peers_.size());
    for (const auto& p : peers_)
        if (p.get() != &who) candidates.push_back(p.get());
    for (int i = 0; i < want && !candidates.empty(); ++i) {
        const auto k = rng_.below(candidates.size());
        out.push_back(candidates[k]);
        candidates[k] = candidates.back();
        candidates.pop_back();
    }
    return out;
}

int Swarm::seeds() const {
    int n = 0;
    for (const auto& p : peers_)
        if (p->complete()) ++n;
    return n;
}

// --- TorrentPeer --------------------------------------------------------------

TorrentPeer::TorrentPeer(Swarm& swarm, HostId host, bool seed,
                         std::function<void(TorrentPeer&)> on_complete)
    : swarm_(&swarm),
      host_(host),
      seed_(seed),
      have_(seed ? swarm::PieceMap::full(swarm.object().piece_count())
                 : swarm::PieceMap(swarm.object().piece_count())),
      picker_(swarm.object().piece_count()),
      on_complete_(std::move(on_complete)),
      rng_(swarm.rng().child("torrent-peer-" + std::to_string(host.value))) {}

TorrentPeer::~TorrentPeer() {
    // The choke timer captures `this`; it must not outlive the peer (a peer
    // can be erased from the swarm with its timer still queued).
    swarm_->world().simulator().cancel(choke_timer_);
}

void TorrentPeer::start() {
    active_ = true;
    connect_to_more();
    const std::uint32_t epoch = epoch_;
    choke_timer_ = swarm_->world().simulator().schedule_after(
        sim::seconds(swarm_->config().choke_interval_s), [this, epoch] {
            if (active_ && epoch_ == epoch) choke_round();
        });
}

void TorrentPeer::depart() {
    if (!active_) return;
    active_ = false;
    ++epoch_;
    swarm_->world().simulator().cancel(choke_timer_);
    choke_timer_ = sim::EventHandle{};
    for (auto& conn : conns_) {
        cancel_transfer(conn);
        conn.remote->close_connection(*this);
    }
    conns_.clear();
}

void TorrentPeer::connect_to_more() {
    if (!active_) return;
    const int want = swarm_->config().max_connections - static_cast<int>(conns_.size());
    if (want <= 0) return;
    for (TorrentPeer* candidate : swarm_->announce(*this, want)) {
        if (find_conn(*candidate) != nullptr) continue;
        // Uncoordinated NAT traversal: no rendezvous service, so punching
        // works less often than with NetSession's control plane.
        const auto& world = swarm_->world();
        const double p =
            net::traversal_success_probability(world.host(host_).attach.nat,
                                               world.host(candidate->host()).attach.nat) *
            swarm_->config().uncoordinated_nat_penalty;
        if (!rng_.chance(p)) continue;
        if (!candidate->accept_connection(*this)) continue;
        conns_.push_back(Conn{candidate, true, true, 0, {}, 0, false});
        picker_.add_source(candidate->have());
    }
    request_pieces();
}

bool TorrentPeer::accept_connection(TorrentPeer& remote) {
    if (!active_) return false;
    if (static_cast<int>(conns_.size()) >= swarm_->config().max_connections) return false;
    if (find_conn(remote) != nullptr) return false;
    conns_.push_back(Conn{&remote, true, true, 0, {}, 0, false});
    picker_.add_source(remote.have());
    return true;
}

void TorrentPeer::close_connection(TorrentPeer& remote) {
    const auto it = std::find_if(conns_.begin(), conns_.end(),
                                 [&](const Conn& c) { return c.remote == &remote; });
    if (it == conns_.end()) return;
    cancel_transfer(*it);
    picker_.remove_source(remote.have());
    conns_.erase(it);
}

void TorrentPeer::cancel_transfer(Conn& conn) {
    if (!conn.transferring) return;
    swarm_->world().flows().cancel_flow(conn.flow);
    picker_.set_in_flight(conn.piece, false);
    conn.transferring = false;
    conn.flow = net::FlowId{};
}

TorrentPeer::Conn* TorrentPeer::find_conn(const TorrentPeer& remote) {
    const auto it = std::find_if(conns_.begin(), conns_.end(),
                                 [&](const Conn& c) { return c.remote == &remote; });
    return it == conns_.end() ? nullptr : &*it;
}

const TorrentPeer::Conn* TorrentPeer::find_conn(const TorrentPeer& remote) const {
    const auto it = std::find_if(conns_.begin(), conns_.end(),
                                 [&](const Conn& c) { return c.remote == &remote; });
    return it == conns_.end() ? nullptr : &*it;
}

bool TorrentPeer::is_choking(const TorrentPeer& remote) const {
    const Conn* c = find_conn(remote);
    return c == nullptr || c->am_choking;
}

void TorrentPeer::notify_choke(TorrentPeer& remote, bool choked) {
    Conn* c = find_conn(remote);
    if (c == nullptr) return;
    c->peer_choking = choked;
    if (choked)
        cancel_transfer(*c);
    else
        request_from(*c);
}

void TorrentPeer::notify_have(TorrentPeer& remote, swarm::PieceIndex piece) {
    Conn* c = find_conn(remote);
    if (c == nullptr) return;
    picker_.source_gained(piece);
    if (!c->peer_choking && !c->transferring) request_from(*c);
}

void TorrentPeer::choke_round() {
    if (!active_) return;

    // Tit-for-tat: unchoke the peers that gave us the most since the last
    // round ("Incentives build robustness in BitTorrent", Cohen'03); seeds
    // rank by how much they served, to spread upload capacity.
    std::vector<Conn*> ranked;
    ranked.reserve(conns_.size());
    for (auto& c : conns_) ranked.push_back(&c);
    std::sort(ranked.begin(), ranked.end(), [](const Conn* a, const Conn* b) {
        return a->received_window > b->received_window;
    });

    const int slots = swarm_->config().unchoke_slots;
    std::vector<Conn*> unchoke(ranked.begin(),
                               ranked.begin() + std::min<std::size_t>(ranked.size(),
                                                                      static_cast<std::size_t>(slots)));
    // Optimistic unchoke: a random choked connection gets a chance, which is
    // how fresh peers with nothing to reciprocate bootstrap.
    std::vector<Conn*> choked_pool;
    for (auto& c : conns_)
        if (std::find(unchoke.begin(), unchoke.end(), &c) == unchoke.end())
            choked_pool.push_back(&c);
    for (int i = 0; i < swarm_->config().optimistic_slots && !choked_pool.empty(); ++i) {
        const auto k = rng_.below(choked_pool.size());
        unchoke.push_back(choked_pool[k]);
        choked_pool[k] = choked_pool.back();
        choked_pool.pop_back();
    }

    for (auto& c : conns_) {
        const bool keep_open = std::find(unchoke.begin(), unchoke.end(), &c) != unchoke.end();
        if (c.am_choking == !keep_open) {
            c.received_window = 0;
            continue;
        }
        c.am_choking = !keep_open;
        c.received_window = 0;
        c.remote->notify_choke(*this, c.am_choking);
    }

    connect_to_more();

    const std::uint32_t epoch = epoch_;
    choke_timer_ = swarm_->world().simulator().schedule_after(
        sim::seconds(swarm_->config().choke_interval_s), [this, epoch] {
            if (active_ && epoch_ == epoch) choke_round();
        });
}

void TorrentPeer::request_pieces() {
    for (auto& c : conns_)
        if (!c.peer_choking && !c.transferring) request_from(c);
}

void TorrentPeer::request_from(Conn& conn) {
    if (!active_ || have_.complete() || conn.transferring) return;
    if (conn.remote->is_choking(*this)) return;
    const auto piece = picker_.pick_from_peer(have_, conn.remote->have(), rng_);
    if (!piece) return;
    picker_.set_in_flight(*piece, true);
    conn.piece = *piece;
    conn.transferring = true;
    const Bytes len = swarm_->object().piece_length(*piece);
    TorrentPeer* from = conn.remote;
    conn.flow = swarm_->world().flows().start_flow(
        from->host(), host_, len, net::kUnlimited,
        [this, from, piece = *piece](net::FlowId) { on_piece(from, piece); });
}

void TorrentPeer::on_piece(TorrentPeer* from, swarm::PieceIndex piece) {
    Conn* c = find_conn(*from);
    if (c != nullptr) {
        c->transferring = false;
        c->flow = net::FlowId{};
        c->received_window += swarm_->object().piece_length(piece);
    }
    picker_.set_in_flight(piece, false);
    if (have_.has(piece)) return;
    have_.set(piece);
    const Bytes len = swarm_->object().piece_length(piece);
    downloaded_ += len;
    from->uploaded_ += len;

    for (auto& conn : conns_) conn.remote->notify_have(*this, piece);

    if (have_.complete()) {
        finished_at_ = swarm_->world().simulator().now();
        if (on_complete_) on_complete_(*this);
        return;
    }
    if (c != nullptr) request_from(*c);
    request_pieces();
}

}  // namespace netsession::baseline
