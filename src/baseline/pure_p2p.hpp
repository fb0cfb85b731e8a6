// Pure peer-to-peer CDN baseline: a BitTorrent-style swarm with a central
// tracker, rarest-first piece selection, and tit-for-tat choking — the
// architecture NetSession is contrasted with throughout the paper (§2.1:
// "BitTorrent is an example of a peer-to-peer CDN"; §3.4: "A key difference
// to BitTorrent is the absence of an incentive mechanism").
//
// Used by the architecture-ablation bench and the incentive experiments: no
// edge backstop, no coordinated NAT traversal, reciprocation drives service.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/world.hpp"
#include "swarm/content.hpp"
#include "swarm/picker.hpp"

namespace netsession::baseline {

struct TorrentConfig {
    int unchoke_slots = 3;        // reciprocation unchokes per choke round
    int optimistic_slots = 1;     // optimistic unchoke (lets newcomers bootstrap)
    double choke_interval_s = 10.0;
    int max_connections = 20;
    /// Peers that finish and immediately leave instead of seeding.
    double selfish_leave_probability = 0.5;
    /// NAT traversal succeeds less often without control-plane coordination.
    double uncoordinated_nat_penalty = 0.6;
};

class TorrentPeer;

/// One content swarm: tracker + peers.
class Swarm {
public:
    Swarm(net::World& world, const swarm::ContentObject& object, TorrentConfig config, Rng rng);
    ~Swarm();

    Swarm(const Swarm&) = delete;
    Swarm& operator=(const Swarm&) = delete;

    /// Adds a peer. Seeds start with the complete object. Leechers start
    /// downloading immediately. `on_complete` fires when the last piece
    /// verifies.
    TorrentPeer& add_peer(HostId host, bool seed,
                          std::function<void(TorrentPeer&)> on_complete = {});

    /// Removes a peer (it departs the swarm; transfers it served break off).
    void remove_peer(TorrentPeer& peer);

    /// Tracker announce: a random subset of other swarm members.
    [[nodiscard]] std::vector<TorrentPeer*> announce(TorrentPeer& who, int want);

    [[nodiscard]] const swarm::ContentObject& object() const noexcept { return *object_; }
    [[nodiscard]] net::World& world() noexcept { return *world_; }
    [[nodiscard]] const TorrentConfig& config() const noexcept { return config_; }
    [[nodiscard]] Rng& rng() noexcept { return rng_; }

    [[nodiscard]] int seeds() const;

private:
    net::World* world_;
    const swarm::ContentObject* object_;
    TorrentConfig config_;
    Rng rng_;
    std::vector<std::unique_ptr<TorrentPeer>> peers_;
};

/// One BitTorrent-style client in a swarm.
class TorrentPeer {
public:
    TorrentPeer(Swarm& swarm, HostId host, bool seed,
                std::function<void(TorrentPeer&)> on_complete);
    ~TorrentPeer();

    [[nodiscard]] HostId host() const noexcept { return host_; }
    [[nodiscard]] bool complete() const noexcept { return have_.complete(); }
    [[nodiscard]] bool seeding() const noexcept { return seed_; }
    [[nodiscard]] Bytes downloaded() const noexcept { return downloaded_; }
    [[nodiscard]] Bytes uploaded() const noexcept { return uploaded_; }
    [[nodiscard]] std::optional<sim::SimTime> finished_at() const noexcept { return finished_at_; }
    [[nodiscard]] const swarm::PieceMap& have() const noexcept { return have_; }

    /// Starts participation: tracker announce, connections, choke timer.
    void start();
    /// Departs: closes every connection.
    void depart();

    // --- protocol, called by other peers / the swarm ---------------------------
    bool accept_connection(TorrentPeer& remote);
    void close_connection(TorrentPeer& remote);
    void notify_have(TorrentPeer& remote, swarm::PieceIndex piece);
    void notify_choke(TorrentPeer& remote, bool choked);
    /// Whether we currently choke `remote` (no uploads to it).
    [[nodiscard]] bool is_choking(const TorrentPeer& remote) const;

private:
    struct Conn {
        TorrentPeer* remote = nullptr;
        bool am_choking = true;     // we refuse to upload to remote
        bool peer_choking = true;   // remote refuses to upload to us
        Bytes received_window = 0;  // bytes remote sent us since last choke round
        net::FlowId flow;           // in-flight piece transfer from remote
        swarm::PieceIndex piece = 0;
        bool transferring = false;
    };

    void connect_to_more();
    void choke_round();
    void request_pieces();
    void request_from(Conn& conn);
    void on_piece(TorrentPeer* from, swarm::PieceIndex piece);
    Conn* find_conn(const TorrentPeer& remote);
    [[nodiscard]] const Conn* find_conn(const TorrentPeer& remote) const;
    void cancel_transfer(Conn& conn);

    Swarm* swarm_;
    HostId host_;
    bool seed_;
    bool active_ = false;
    swarm::PieceMap have_;
    swarm::PiecePicker picker_;
    std::vector<Conn> conns_;
    Bytes downloaded_ = 0;
    Bytes uploaded_ = 0;
    std::optional<sim::SimTime> finished_at_;
    std::function<void(TorrentPeer&)> on_complete_;
    Rng rng_;
    std::uint32_t epoch_ = 0;  // invalidates scheduled choke rounds on depart
    // Pending choke-round timer. Must be cancelled when the peer departs or
    // is destroyed: the callback captures `this`, and a peer can be erased
    // from the swarm while its timer is still queued (even the `active_`
    // guard would read freed memory).
    sim::EventHandle choke_timer_;
};

}  // namespace netsession::baseline
