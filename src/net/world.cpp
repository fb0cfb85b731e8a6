#include "net/world.hpp"

#include <algorithm>

#include "net/world_data.hpp"

namespace netsession::net {

HostId World::create_host(HostInfo info) {
    if (info.attach.ip.value == 0) info.attach.ip = as_graph_.allocate_ip(info.attach.asn);
    geodb_.register_ip(info.attach.ip, GeoRecord{info.attach.location, info.attach.asn});
    const HostId h = flows_.add_host(info.up, info.down);
    hosts_.push_back(std::move(info));
    if (!as_faults_.empty()) apply_capacity(h);
    return h;
}

void World::reattach(HostId h, Location location, Asn asn, NatType nat) {
    HostInfo& info = hosts_[h.value];
    info.attach.location = location;
    info.attach.asn = asn;
    info.attach.nat = nat;
    info.attach.ip = as_graph_.allocate_ip(asn);
    geodb_.register_ip(info.attach.ip, GeoRecord{location, asn});
    // Moving in or out of a degraded AS changes the effective link speed.
    if (!as_faults_.empty()) apply_capacity(h);
}

double World::as_latency_factor(Asn asn) const {
    const auto it = as_faults_.find(asn.value);
    return it == as_faults_.end() ? 1.0 : it->second.latency_factor;
}

sim::Duration World::latency(HostId a, HostId b) const {
    const Attachment& aa = hosts_[a.value].attach;
    const Attachment& ab = hosts_[b.value].attach;
    const double km = haversine_km(aa.location.point, ab.location.point);
    // ~1 ms of processing, 0.01 ms/km propagation+routing (fibre detours),
    // and a few ms extra when crossing AS boundaries.
    double ms = 1.0 + km * 0.01;
    if (aa.asn != ab.asn) ms += 4.0;
    if (!as_faults_.empty())
        ms *= std::max(as_latency_factor(aa.asn), as_latency_factor(ab.asn));
    return sim::milliseconds(ms);
}

void World::send(HostId from, HostId to, std::function<void()> fn) {
    if (!reachable(from, to)) return;  // partitioned: the message is lost
    if (!as_faults_.empty()) {
        const auto loss_of = [&](Asn asn) {
            const auto it = as_faults_.find(asn.value);
            return it == as_faults_.end() ? 0.0 : it->second.loss;
        };
        const double loss = std::max(loss_of(hosts_[from.value].attach.asn),
                                     loss_of(hosts_[to.value].attach.asn));
        if (loss > 0.0 && fault_rng_.chance(loss)) return;
    }
    sim_->schedule_after(latency(from, to), std::move(fn));
}

void World::set_host_up_capacity(HostId h, Rate up) {
    hosts_[h.value].up = up;
    apply_capacity(h);
}

void World::apply_capacity(HostId h) {
    const HostInfo& info = hosts_[h.value];
    double factor = 1.0;
    if (!info.is_server && !as_faults_.empty()) {
        const auto it = as_faults_.find(info.attach.asn.value);
        if (it != as_faults_.end()) factor = it->second.rate_factor;
    }
    flows_.set_up_capacity(h, info.up == kUnlimited ? info.up : info.up * factor);
    flows_.set_down_capacity(h, info.down == kUnlimited ? info.down : info.down * factor);
}

// --- partitions ---------------------------------------------------------------------------

void World::change_partition(int a, int b, int delta) {
    const int r = static_cast<int>(regions().size());
    if (a < 0) std::swap(a, b);
    if (a < 0 || a >= r || b >= r || a == b) return;
    if (partition_count_.empty()) partition_count_.assign(static_cast<std::size_t>(r) * r, 0);
    const auto bump = [&](int x, int y) {
        auto& fwd = partition_count_[static_cast<std::size_t>(x) * r + y];
        auto& rev = partition_count_[static_cast<std::size_t>(y) * r + x];
        if (delta < 0 && fwd == 0) return;  // unbalanced heal: ignore
        fwd = static_cast<std::uint16_t>(fwd + delta);
        rev = fwd;
        active_partitions_ += delta;
    };
    if (b < 0) {
        for (int other = 0; other < r; ++other)
            if (other != a) bump(a, other);
    } else {
        bump(a, b);
    }
}

void World::partition_regions(int a, int b) {
    change_partition(a, b, +1);
    cut_partitioned_flows();
}

void World::heal_partition(int a, int b) { change_partition(a, b, -1); }

bool World::regions_reachable(RegionId a, RegionId b) const {
    if (active_partitions_ == 0 || a == b) return true;
    const std::size_t r = regions().size();
    return partition_count_[a.value * r + b.value] == 0;
}

bool World::reachable(HostId a, HostId b) const {
    if (active_partitions_ == 0) return true;
    return regions_reachable(region_of(a), region_of(b));
}

void World::cut_partitioned_flows() {
    if (active_partitions_ == 0) return;
    std::vector<FlowId> cut;
    flows_.for_each_active([&](FlowId id, HostId src, HostId dst) {
        if (!reachable(src, dst)) cut.push_back(id);
    });
    for (const FlowId id : cut) flows_.cancel_flow(id);
}

// --- AS degradation & host failure --------------------------------------------------------

void World::AsFault::recompute() noexcept {
    latency_factor = 1.0;
    rate_factor = 1.0;
    double pass = 1.0;  // probability a message survives every layer
    for (const AsFaultLayer& l : layers) {
        latency_factor *= l.latency_factor;
        rate_factor *= l.rate_factor;
        pass *= 1.0 - l.loss;
    }
    rate_factor = std::clamp(rate_factor, 0.01, 1.0);
    loss = std::clamp(1.0 - pass, 0.0, 0.999);
}

std::uint32_t World::degrade_as(Asn asn, double latency_factor, double rate_factor, double loss) {
    AsFault& f = as_faults_[asn.value];
    AsFaultLayer layer;
    layer.token = next_as_fault_token_++;
    layer.latency_factor = std::max(latency_factor, 1.0);
    layer.rate_factor = std::clamp(rate_factor, 0.01, 1.0);
    layer.loss = std::clamp(loss, 0.0, 0.999);
    f.layers.push_back(layer);
    f.recompute();
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        if (hosts_[i].attach.asn == asn)
            apply_capacity(HostId{static_cast<std::uint32_t>(i)});
    return layer.token;
}

void World::restore_as(Asn asn, std::uint32_t token) {
    const auto it = as_faults_.find(asn.value);
    if (it == as_faults_.end()) return;
    auto& layers = it->second.layers;
    const auto layer = std::find_if(layers.begin(), layers.end(),
                                    [token](const AsFaultLayer& l) { return l.token == token; });
    if (layer == layers.end()) return;
    layers.erase(layer);  // preserves order: remaining products stay exact
    if (layers.empty()) {
        as_faults_.erase(it);
    } else {
        it->second.recompute();
    }
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        if (hosts_[i].attach.asn == asn)
            apply_capacity(HostId{static_cast<std::uint32_t>(i)});
}

void World::restore_as(Asn asn) {
    if (as_faults_.erase(asn.value) == 0) return;
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        if (hosts_[i].attach.asn == asn)
            apply_capacity(HostId{static_cast<std::uint32_t>(i)});
}

int World::active_as_degradations() const noexcept {
    int n = 0;
    for (const auto& [asn, fault] : as_faults_) n += static_cast<int>(fault.layers.size());
    return n;
}

int World::drop_host_flows(HostId h) {
    std::vector<FlowId> cut;
    flows_.for_each_active([&](FlowId id, HostId src, HostId dst) {
        if (src == h || dst == h) cut.push_back(id);
    });
    for (const FlowId id : cut) flows_.cancel_flow(id);
    return static_cast<int>(cut.size());
}

}  // namespace netsession::net
