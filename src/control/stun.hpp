// STUN component.
//
// "Peers periodically communicate with STUN components over UDP and TCP to
// determine the details of their connectivity (which are then stored in the
// DN databases) and to enable NAT traversal. This involves a protocol with
// goals similar to [RFC 5389], but NetSession uses a custom implementation."
// (§3.6)
//
// In the simulation the probe is a message round trip that reports the
// peer's public address and classifies its NAT by comparing mappings across
// two server reflexive addresses, as a binding-discovery protocol would.
#pragma once

#include <functional>

#include "control/peer_descriptor.hpp"
#include "net/world.hpp"

namespace netsession::control {

/// Result of a connectivity probe, as stored in the DN database.
struct ConnectivityReport {
    net::IpAddr public_ip;
    net::NatType nat = net::NatType::open;
};

class StunService {
public:
    StunService(net::World& world, HostId host) : world_(&world), host_(host) {}

    [[nodiscard]] HostId host() const noexcept { return host_; }

    /// Runs a probe for `peer`; the report is delivered after two round
    /// trips (binding request + filtering test), as observed by the server.
    /// While offline (STUN blackout fault) or unreachable (partition) the
    /// probe is silently lost — `on_done` never fires and the client must
    /// fall back on a timeout.
    void probe(HostId peer, std::function<void(ConnectivityReport)> on_done);

    /// Fault injection: stops/resumes answering probes.
    void set_online(bool online) noexcept { online_ = online; }
    [[nodiscard]] bool online() const noexcept { return online_; }

    [[nodiscard]] std::int64_t probes_served() const noexcept { return probes_; }

private:
    net::World* world_;
    HostId host_;
    bool online_ = true;
    std::int64_t probes_ = 0;
};

}  // namespace netsession::control
