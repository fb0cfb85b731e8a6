#include "edge/edge_server.hpp"

#include <cassert>

namespace netsession::edge {

EdgeServer::EdgeServer(EdgeId id, net::World& world, const Catalog& catalog,
                       const TokenAuthority& authority, HostId host, Rate per_connection_cap,
                       EdgeMetrics& metrics)
    : id_(id),
      world_(&world),
      catalog_(&catalog),
      authority_(&authority),
      host_(host),
      per_connection_cap_(per_connection_cap),
      metrics_(&metrics) {}

AuthToken EdgeServer::authorize(Guid guid, ObjectId object) const {
    return authority_->issue(guid, object, world_->simulator().now() + sim::hours(1.0));
}

net::FlowId EdgeServer::serve_piece(HostId client, Guid client_guid,
                                    const swarm::ContentObject& object, swarm::PieceIndex piece,
                                    std::function<void(Digest256)> on_done) {
    assert(catalog_->find(object.id()) != nullptr && "cannot serve unpublished content");
    metrics_->requests.inc();
    if (!online_) {
        metrics_->refusals.inc();
        return net::FlowId{};  // request goes unanswered
    }
    const Bytes len = object.piece_length(piece);
    const DownloadKey key{client_guid, object.id()};
    const ObjectId oid = object.id();
    const Digest256 digest = object.correct_transfer_digest(piece);
    const net::FlowId id = world_->flows().start_flow(
        host_, client, len, per_connection_cap_,
        [this, key, len, digest, oid, done = std::move(on_done)](net::FlowId flow) {
            (void)oid;
            forget_flow(flow);
            ledger_[key] += len;
            total_served_ += len;
            metrics_->pieces_served.inc();
            metrics_->bytes_served.inc(static_cast<std::uint64_t>(len));
            if (done) done(digest);
        });
    live_flows_.push_back(id);
    return id;
}

Bytes EdgeServer::abort(net::FlowId flow) {
    forget_flow(flow);
    return world_->flows().cancel_flow(flow);
}

void EdgeServer::fail() {
    online_ = false;
    // Cut in-flight deliveries without firing completions: from the client's
    // point of view the connection just dies.
    for (const net::FlowId flow : live_flows_) world_->flows().cancel_flow(flow);
    live_flows_.clear();
}

void EdgeServer::forget_flow(net::FlowId flow) {
    for (auto it = live_flows_.begin(); it != live_flows_.end(); ++it) {
        if (*it == flow) {
            live_flows_.erase(it);
            return;
        }
    }
}

Bytes EdgeServer::bytes_served(Guid guid, ObjectId object) const {
    const auto it = ledger_.find(DownloadKey{guid, object});
    return it == ledger_.end() ? 0 : it->second;
}

}  // namespace netsession::edge
