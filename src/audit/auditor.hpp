// Runtime invariant auditor: cross-layer contract checks on a sampled
// simulated-time cadence, designed to run *while faults are active*.
//
// The chaos campaigns of src/fault/ exercise exactly the states where
// subsystem-local assertions are weakest: partitions heal mid-transfer, DNs
// restart into RE-ADD storms, whole ASes degrade and restore in layers. The
// auditor asserts the contracts that span those subsystems:
//
//   flow_capacity      the flow network never allocates more aggregate rate
//                      through a host's uplink/downlink than its capacity
//   byte_conservation  a download's accounted bytes (infra + peers) cover
//                      every piece it verified and holds, and the per-source
//                      ledger sums exactly to the peer-byte total
//   directory          each DN's postings/swarm/live-counter indexes agree
//                      (Directory::audit_consistency), and every registration
//                      points at a client that actually holds or is fetching
//                      the object — in-flight announce/withdraw messages are
//                      legal transients, but a mismatch persisting an hour of
//                      simulated time past its first observation is a real
//                      divergence, e.g. a RE-ADD resurrecting a withdrawn copy
//   stall_bound        no running, unpaused download keeps the same transfer
//                      attempt on a dead flow for longer than twice the
//                      client watchdog bound after the auditor first sees it
//                      dead — the watchdog must have noticed by then
//   arena_accounting   the registry-wide Download pool's live count equals
//                      the number of open downloads across all clients
//
// The auditor follows the obs::Sampler passivity contract: it only *reads*
// simulation state — no RNG stream is touched, no relative event ordering
// changes, no trace record is written — so enabling it cannot change a
// single trace byte (the determinism contract of docs/SIMULATOR.md §3 holds
// with auditing on or off). Builds with NS_AUDIT=OFF compile the periodic
// checks out entirely; the class itself stays available in both flavours so
// tests can call audit_now() directly. Under NS_AUDIT_FATAL (tests/CI) the
// first violation prints every collected report and aborts; otherwise
// violations count into counters() and the run continues (benches, chaos
// campaigns).
#pragma once

#ifndef NS_AUDIT_ENABLED
#define NS_AUDIT_ENABLED 0
#endif
#ifndef NS_AUDIT_FATAL_ENABLED
#define NS_AUDIT_FATAL_ENABLED 0
#endif

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_hash.hpp"
#include "peer/client_config.hpp"
#include "sim/simulator.hpp"

namespace netsession::net {
class World;
}
namespace netsession::control {
class ControlPlane;
}
namespace netsession::peer {
class PeerRegistry;
}
namespace netsession::workload {
class UserDriver;
}

namespace netsession::audit {

struct AuditConfig {
    /// Whether the periodic auditor runs at all. With NS_AUDIT=OFF builds it
    /// never starts regardless; audit_now() works in every build.
    bool enabled = true;
    /// Audit cadence in simulated time. Six hours keeps a month-long run at
    /// ~120 full sweeps — each sweep is O(hosts + flows + registrations).
    sim::Duration interval = sim::hours(6.0);
    /// Abort the process on the first violation (defaults to the build's
    /// NS_AUDIT_FATAL flavour; tests may override per-instance).
    bool fatal = NS_AUDIT_FATAL_ENABLED != 0;
    /// Human-readable violation reports kept for diagnostics.
    int max_reports = 8;
};

/// Per-invariant violation counters.
struct AuditCounters {
    std::int64_t audits_run = 0;
    std::int64_t flow_capacity = 0;
    std::int64_t byte_conservation = 0;
    std::int64_t directory = 0;
    std::int64_t stall_bound = 0;
    std::int64_t arena_accounting = 0;

    [[nodiscard]] std::int64_t total() const noexcept {
        return flow_capacity + byte_conservation + directory + stall_bound + arena_accounting;
    }
};

class Auditor {
public:
    /// All references must outlive the auditor. `client_config` supplies the
    /// watchdog interval/grace the stall bound is derived from.
    Auditor(sim::Simulator& sim, net::World& world, control::ControlPlane& plane,
            peer::PeerRegistry& registry, workload::UserDriver& driver,
            const peer::ClientConfig& client_config, AuditConfig config);

    Auditor(const Auditor&) = delete;
    Auditor& operator=(const Auditor&) = delete;

    /// Starts periodic auditing: one sweep every `interval`, beginning one
    /// interval from now, until `until`. No-op when the config disables it.
    void start(sim::SimTime until);

    /// Takes the closing sweep, exactly once — idempotent.
    void finish();

    /// Runs one full sweep immediately; returns violations found this pass.
    int audit_now();

    [[nodiscard]] const AuditCounters& counters() const noexcept { return counters_; }
    /// First `max_reports` violation descriptions, oldest first.
    [[nodiscard]] const std::vector<std::string>& reports() const noexcept { return reports_; }

private:
    void tick();
    void violation(std::int64_t AuditCounters::*counter, std::string detail);

    int check_flow_capacity();
    int check_byte_conservation();
    int check_directory();
    int check_stall_bound();
    int check_arena_accounting();

    sim::Simulator* sim_;
    net::World* world_;
    control::ControlPlane* plane_;
    peer::PeerRegistry* registry_;
    workload::UserDriver* driver_;
    peer::ClientConfig client_config_;
    AuditConfig config_;
    sim::SimTime until_{};
    bool final_taken_ = false;
    AuditCounters counters_;
    int pass_violations_ = 0;
    std::vector<std::string> reports_;

    // Reusable per-host rate accumulators (flow-capacity sweep).
    std::vector<double> rate_up_;
    std::vector<double> rate_down_;
    // First-seen timestamps for conditions that are legal as transients and
    // violations only when they *persist*: a directory↔client mismatch is an
    // announce/withdraw message in flight until it outlives the message
    // round-trip by a wide margin; a transfer without a flow is merely
    // not-yet-noticed until it outlives the watchdog bound (we observe the
    // flow's absence, not the moment it died). Keyed by a mixed hash of the
    // condition's identity; carried across sweeps so persistence is measured
    // in simulated time, not sweep counts — back-to-back audit_now() calls
    // at one instant can never self-confirm.
    FlatHashMap<std::uint64_t, std::int64_t> dir_first_seen_prev_;
    FlatHashMap<std::uint64_t, std::int64_t> dir_first_seen_cur_;
    FlatHashMap<std::uint64_t, std::int64_t> stall_first_seen_prev_;
    FlatHashMap<std::uint64_t, std::int64_t> stall_first_seen_cur_;
};

}  // namespace netsession::audit
