#include "control/stun.hpp"

namespace netsession::control {

void StunService::probe(HostId peer, std::function<void(ConnectivityReport)> on_done) {
    // Request travels peer -> STUN; the server observes the mapped address
    // and NAT behaviour; the classification comes back after a second round
    // trip (two binding tests are the minimum to detect mapping variance).
    // During a blackout (or across a partition) the probe is simply never
    // answered — the client's probe timeout decides what to do.
    if (!online_ || !world_->reachable(peer, host_)) return;
    const sim::Duration rtt = world_->latency(peer, host_) + world_->latency(host_, peer);
    world_->simulator().schedule_after(rtt + rtt, [this, peer, done = std::move(on_done)] {
        if (!online_) return;  // blackout hit mid-probe: the reply is lost
        ++probes_;
        const auto& attach = world_->host(peer).attach;
        done(ConnectivityReport{attach.ip, attach.nat});
    });
}

}  // namespace netsession::control
