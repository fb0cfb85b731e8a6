#include "edge/edge_network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "net/world_data.hpp"

namespace netsession::edge {

EdgeNetwork::EdgeNetwork(net::World& world, const Catalog& catalog,
                         const EdgeNetworkConfig& config)
    : world_(&world), authority_(config.shared_secret) {
    // For each region, find its heaviest country and host the region's edge
    // servers at that country's center, attached to the country's largest AS.
    Rng placement_rng(0xED6E5EEDULL);
    for (const auto& region : net::regions()) {
        const net::CountryInfo* anchor = nullptr;
        for (const auto& c : net::countries()) {
            if (c.region != region.id) continue;
            if (anchor == nullptr || c.peer_weight > anchor->peer_weight) anchor = &c;
        }
        if (anchor == nullptr) continue;  // region without modelled countries
        for (int k = 0; k < config.servers_per_region; ++k) {
            const Asn asn = world.as_graph().pick_for_country(anchor->id, placement_rng);
            net::HostInfo info;
            info.attach.location = net::Location{anchor->id, 0, anchor->center};
            info.attach.asn = asn;
            info.attach.nat = net::NatType::open;
            info.up = config.server_uplink;
            info.down = net::kUnlimited;
            info.is_server = true;
            const HostId host = world.create_host(info);
            const auto id = EdgeId{static_cast<std::uint16_t>(servers_.size())};
            servers_.push_back(std::make_unique<EdgeServer>(id, world, catalog, authority_, host,
                                                            config.per_connection_cap, metrics_));
        }
    }
    assert(!servers_.empty());
}

EdgeServer& EdgeNetwork::nearest(HostId client) {
    const auto client_point = world_->host(client).attach.location.point;
    EdgeServer* best = nullptr;       // nearest available server
    EdgeServer* best_any = nullptr;   // nearest server, availability ignored
    double best_km = std::numeric_limits<double>::infinity();
    double best_any_km = std::numeric_limits<double>::infinity();
    for (const auto& s : servers_) {
        const double km =
            net::haversine_km(client_point, world_->host(s->host()).attach.location.point);
        if (km < best_any_km) {
            best_any_km = km;
            best_any = s.get();
        }
        if (!s->online() || !world_->reachable(client, s->host())) continue;
        if (km < best_km) {
            best_km = km;
            best = s.get();
        }
    }
    assert(best_any != nullptr);
    return best != nullptr ? *best : *best_any;
}

int EdgeNetwork::fail_region(int region) {
    int changed = 0;
    for (const auto& s : servers_) {
        if (region >= 0 && world_->region_of(s->host()).value != region) continue;
        if (!s->online()) continue;
        s->fail();
        ++changed;
    }
    return changed;
}

int EdgeNetwork::restart_region(int region) {
    int changed = 0;
    for (const auto& s : servers_) {
        if (region >= 0 && world_->region_of(s->host()).value != region) continue;
        if (s->online()) continue;
        s->restart();
        ++changed;
    }
    return changed;
}

std::size_t EdgeNetwork::online_count() const {
    std::size_t n = 0;
    for (const auto& s : servers_) n += s->online() ? 1 : 0;
    return n;
}

Bytes EdgeNetwork::total_bytes_served() const {
    Bytes total = 0;
    for (const auto& s : servers_) total += s->total_bytes_served();
    return total;
}

void EdgeNetwork::register_metrics(obs::Registry& registry) {
    registry.add_counter("edge.requests", &metrics_.requests);
    registry.add_counter("edge.refusals", &metrics_.refusals);
    registry.add_counter("edge.pieces_served", &metrics_.pieces_served);
    registry.add_counter("edge.bytes_served", &metrics_.bytes_served);
    registry.add_computed("edge.online",
                          [this] { return static_cast<double>(online_count()); });
    // One availability gauge per region hosting servers, in first-seen server
    // order (stable: server placement is deterministic).
    std::vector<int> regions;
    for (const auto& s : servers_) {
        const int region = world_->region_of(s->host()).value;
        if (std::find(regions.begin(), regions.end(), region) != regions.end()) continue;
        regions.push_back(region);
        registry.add_computed("edge.region" + std::to_string(region) + ".available",
                              [this, region] {
                                  int online = 0;
                                  int total = 0;
                                  for (const auto& server : servers_) {
                                      if (world_->region_of(server->host()).value != region)
                                          continue;
                                      ++total;
                                      online += server->online() ? 1 : 0;
                                  }
                                  return total == 0 ? 0.0
                                                    : static_cast<double>(online) /
                                                          static_cast<double>(total);
                              });
    }
}

}  // namespace netsession::edge
