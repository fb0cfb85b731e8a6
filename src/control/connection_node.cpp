#include "control/connection_node.hpp"

#include <algorithm>

#include "control/control_plane.hpp"

namespace netsession::control {

bool ConnectionNode::admit_login() {
    const double rate = plane_->config().login_rate_per_s;
    if (rate <= 0.0) return true;
    const auto now = plane_->world().simulator().now();
    if (login_tokens_ < 0.0) {
        login_tokens_ = plane_->config().login_burst;
        tokens_refilled_at_ = now;
    }
    login_tokens_ = std::min(plane_->config().login_burst,
                             login_tokens_ + rate * (now - tokens_refilled_at_).seconds());
    tokens_refilled_at_ = now;
    if (login_tokens_ < 1.0) {
        ++logins_deferred_;
        plane_->metrics().logins_deferred.inc();
        return false;
    }
    login_tokens_ -= 1.0;
    return true;
}

bool ConnectionNode::login(PeerEndpoint& endpoint, const LoginInfo& info) {
    if (!up_) {
        // Connection refused; the peer's retry logic handles it.
        plane_->metrics().logins_refused.inc();
        return false;
    }
    if (!admit_login()) return false;  // smooth recovery after mass failures (§3.8)
    plane_->metrics().logins.inc();
    sessions_[info.desc.guid] = Session{&endpoint, info.desc, info.uploads_enabled};
    plane_->note_session(info.desc.guid, &endpoint);

    trace::LoginRecord rec;
    rec.guid = info.desc.guid;
    rec.ip = info.desc.ip;
    rec.software_version = info.software_version;
    rec.uploads_enabled = info.uploads_enabled;
    rec.cn = id_;
    rec.time = plane_->world().simulator().now();
    rec.secondary_guids = info.secondary_guids;
    plane_->trace_log().add(rec);

    // A version released while this peer was offline is delivered right
    // after the connection comes up (§3.8).
    const std::uint32_t version = plane_->current_client_version();
    if (version != 0 && version != info.software_version) {
        PeerEndpoint* ep = &endpoint;
        plane_->world().send(host_, info.desc.host,
                             [ep, version] { ep->on_upgrade_available(version); });
    }

    // "Peers appear in the database only when a) uploads are explicitly
    // enabled on the peer, and b) the peer currently has objects to share."
    if (info.uploads_enabled) {
        if (DatabaseNode* dn = plane_->local_dn(region_)) {
            const auto now = plane_->world().simulator().now();
            for (const auto object : info.cached_objects)
                dn->register_copy(object, info.desc, now);
        }
    }
    return true;
}

void ConnectionNode::push_upgrade(std::uint32_t version) {
    if (!up_) return;
    auto& world = plane_->world();
    for (auto& [guid, session] : sessions_) {
        PeerEndpoint* ep = session.endpoint;
        world.send(host_, session.desc.host, [ep, version] { ep->on_upgrade_available(version); });
    }
}

void ConnectionNode::logout(Guid guid) {
    const auto it = sessions_.find(guid);
    if (it == sessions_.end()) return;
    // Withdraw the peer's directory entries: its content is unreachable
    // while it is offline.
    if (DatabaseNode* dn = plane_->local_dn(region_)) dn->remove_peer(guid);
    plane_->drop_session(guid);
    sessions_.erase(it);
}

void ConnectionNode::query(Guid requester, ObjectId object, const edge::AuthToken& token, int want,
                           std::function<void(std::vector<PeerDescriptor>)> reply) {
    auto& world = plane_->world();
    auto& sim = world.simulator();
    plane_->metrics().queries.inc();

    const auto it = sessions_.find(requester);
    if (!up_ || it == sessions_.end()) {
        sim.schedule_after(sim::Duration{0}, [reply = std::move(reply)] { reply({}); });
        return;
    }
    const PeerDescriptor desc = it->second.desc;

    // Authorization: the token proves the requester may obtain this object
    // from the infrastructure (§3.5).
    if (!plane_->authority().validate(token, sim.now()) || token.guid != requester ||
        token.object != object) {
        world.send(host_, desc.host, [reply = std::move(reply)] { reply({}); });
        return;
    }

    DatabaseNode* dn = plane_->local_dn(region_);
    if (dn == nullptr) {
        // No live DN reachable: answer empty; the peer keeps downloading
        // from the edge servers (§3.8).
        world.send(host_, desc.host, [reply = std::move(reply)] { reply({}); });
        return;
    }

    const int capped = std::min(want, plane_->config().max_peers_returned);
    const sim::Duration dn_rtt = world.latency(host_, dn->host()) + world.latency(dn->host(), host_);
    sim.schedule_after(dn_rtt, [this, dn, object, desc, capped, reply = std::move(reply)]() mutable {
        // Selection draws into the CN's reusable scratch buffer (the DN
        // query path allocates nothing once the buffer is warm); only the
        // final reply owns a copy.
        select_scratch_.clear();
        dn->select_into(object, desc, capped, plane_->config().selection, plane_->rng(),
                        select_scratch_);
        // Cross-region widening: if the local DN cannot satisfy the query,
        // ask the other regions' DNs (the CN/DN system is interconnected
        // across regions, §3.7).
        const int threshold = std::min(capped, plane_->config().cross_region_threshold);
        if (static_cast<int>(select_scratch_.size()) < threshold) {
            for (const auto& other : plane_->dns()) {
                if (static_cast<int>(select_scratch_.size()) >= capped) break;
                if (other.get() == dn || !other->up()) continue;
                other->select_into(object, desc,
                                   capped - static_cast<int>(select_scratch_.size()),
                                   plane_->config().selection, plane_->rng(), select_scratch_);
            }
        }
        std::vector<PeerDescriptor> peers(select_scratch_.begin(), select_scratch_.end());
        plane_->metrics().peers_returned.record(static_cast<double>(peers.size()));
        // Instruct the chosen peers to expect (and initiate) a connection
        // with the requester — this is what makes traversal work (§3.7).
        for (const auto& peer : peers) {
            if (PeerEndpoint* ep = plane_->find_endpoint(peer.guid))
                plane_->world().send(host_, peer.host,
                                     [ep, desc, object] { ep->on_introduction(desc, object); });
        }
        plane_->world().send(host_, desc.host,
                             [reply = std::move(reply), peers = std::move(peers)]() mutable {
                                 reply(std::move(peers));
                             });
    });
}

void ConnectionNode::register_copy(Guid guid, ObjectId object, bool readd) {
    if (!up_) return;
    const auto it = sessions_.find(guid);
    if (it == sessions_.end() || !it->second.uploads_enabled) return;
    if (readd)
        plane_->metrics().readds.inc();
    else
        plane_->metrics().copies_registered.inc();
    if (DatabaseNode* dn = plane_->local_dn(region_))
        dn->register_copy(object, it->second.desc, plane_->world().simulator().now(), readd);
}

void ConnectionNode::unregister_copy(Guid guid, ObjectId object) {
    if (!up_) return;
    if (DatabaseNode* dn = plane_->local_dn(region_)) dn->unregister_copy(object, guid);
}

void ConnectionNode::report_download(const trace::DownloadRecord& record) {
    if (!up_) return;
    plane_->metrics().download_reports.inc();
    plane_->accounting().submit(record);
    plane_->monitoring().report_download_outcome(record.outcome ==
                                                 trace::DownloadOutcome::completed);
}

void ConnectionNode::report_transfer(const trace::TransferRecord& record) {
    if (!up_) return;
    plane_->metrics().transfer_reports.inc();
    plane_->trace_log().add(record);
}

void ConnectionNode::fail() {
    up_ = false;
    auto& world = plane_->world();
    for (auto& [guid, session] : sessions_) {
        plane_->drop_session(guid);
        // Peers notice the broken TCP connection after a keepalive timeout.
        PeerEndpoint* ep = session.endpoint;
        world.simulator().schedule_after(sim::seconds(5.0 + plane_->rng().uniform() * 10.0),
                                         [ep] { ep->on_disconnected(); });
    }
    sessions_.clear();
    // A dead CN's peers scatter to other CNs; when this one comes back it
    // refills gradually, so release the peak-sized table now.
    sessions_.shrink_to_fit();
}

void ConnectionNode::issue_re_add() {
    if (!up_) return;
    auto& world = plane_->world();
    const double rate = plane_->config().readd_rate_per_s;
    double offset_s = 0.0;
    for (auto& [guid, session] : sessions_) {
        PeerEndpoint* ep = session.endpoint;
        world.simulator().schedule_after(
            sim::seconds(offset_s) + world.latency(host_, session.desc.host),
            [ep] { ep->on_re_add_request(); });
        offset_s += 1.0 / rate;  // smooth repopulation (§3.8 rate limiting)
    }
}

}  // namespace netsession::control
