// The simulated internet: hosts with network attachment (location, AS, IP,
// NAT), a latency model, message passing, and the flow-level data plane.
// Everything above this layer (edge servers, control plane, peers) addresses
// other parties by HostId and communicates through World.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/as_graph.hpp"
#include "net/flow.hpp"
#include "net/geo.hpp"
#include "net/geodb.hpp"
#include "net/nat.hpp"
#include "net/world_data.hpp"
#include "sim/simulator.hpp"

namespace netsession::net {

/// Network attachment of a host at a point in time. Peers can re-attach
/// (mobility, §6.2); servers never do.
struct Attachment {
    Location location;
    Asn asn{};
    IpAddr ip;
    NatType nat = NatType::open;
};

/// Everything the network layer knows about a host.
struct HostInfo {
    Attachment attach;
    Rate up = kUnlimited;
    Rate down = kUnlimited;
    bool is_server = false;
};

class World {
public:
    World(sim::Simulator& sim, AsGraph as_graph)
        : sim_(&sim), flows_(sim), as_graph_(std::move(as_graph)) {}

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    /// Creates a host; allocates an IP in the attachment's AS if none given
    /// and registers it with the geo database.
    HostId create_host(HostInfo info);

    /// Re-attaches a host elsewhere (user mobility / IP churn). A fresh IP is
    /// allocated from the new AS and registered with the geo database.
    void reattach(HostId h, Location location, Asn asn, NatType nat);

    [[nodiscard]] const HostInfo& host(HostId h) const { return hosts_[h.value]; }
    [[nodiscard]] std::size_t host_count() const noexcept { return hosts_.size(); }

    [[nodiscard]] RegionId region_of(HostId h) const {
        return country(hosts_[h.value].attach.location.country).region;
    }

    /// One-way control-message latency between two hosts: propagation from
    /// great-circle distance plus processing/queueing, with an inter-AS hop
    /// penalty. Deterministic; callers add jitter where it matters.
    [[nodiscard]] sim::Duration latency(HostId a, HostId b) const;

    /// Delivers `fn` at the destination after one-way latency. The caller is
    /// responsible for the destination object outliving delivery. Messages
    /// crossing an active partition are dropped, as are messages that lose a
    /// Bernoulli draw against an endpoint AS's fault loss rate.
    void send(HostId from, HostId to, std::function<void()> fn);

    /// Changes a host's nominal link capacity. Prefer these over mutating
    /// `flows()` directly: the world remembers the nominal value and applies
    /// any active AS degradation factor on top, so fault restore does not
    /// clobber throttling (and vice versa).
    void set_host_up_capacity(HostId h, Rate up);

    // --- Fault hooks (driven by fault::FaultEngine; no-cost when unused) ---

    /// Severs communication between two regions; `b < 0` cuts `a` off from
    /// every other region. Messages across the cut are dropped and active
    /// flows crossing it are cancelled (their completions never fire — the
    /// receiving side must detect the stall). Cuts nest: each call needs a
    /// matching heal_partition.
    void partition_regions(int a, int b);
    void heal_partition(int a, int b);
    /// True when `a` and `b` can currently exchange messages / move bytes.
    [[nodiscard]] bool reachable(HostId a, HostId b) const;
    [[nodiscard]] bool regions_reachable(RegionId a, RegionId b) const;

    /// Degrades one AS's links: one-way latency multiplier, link capacity
    /// multiplier applied to attached non-server hosts (clamped to >= 0.01 so
    /// flows slow to a crawl rather than freezing), and per-message loss
    /// probability. Degradations *stack*: each call pushes an independent
    /// layer and returns a token identifying it; overlapping faults compose
    /// (latency/rate multiply, losses combine as 1-Π(1-loss)). Removing a
    /// layer with restore_as(asn, token) recomputes the effective factors
    /// from the remaining layers in order, so restoring every layer lands on
    /// the exact pre-fault state (overlap-restore is byte-exact). Loss draws
    /// come from a dedicated constant-seeded stream and only happen while a
    /// loss fault is active, so fault-free runs are byte-identical to
    /// pre-fault builds.
    std::uint32_t degrade_as(Asn asn, double latency_factor, double rate_factor, double loss);
    void restore_as(Asn asn, std::uint32_t token);
    /// Removes every degradation layer on `asn` (manual injection / tests).
    void restore_as(Asn asn);
    /// Total degradation layers currently active across all ASes.
    [[nodiscard]] int active_as_degradations() const noexcept;

    /// Cancels every active flow touching `h` (host crash / server failure);
    /// completion callbacks are not invoked. Returns how many were cut.
    int drop_host_flows(HostId h);

    [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
    [[nodiscard]] FlowNetwork& flows() noexcept { return flows_; }
    [[nodiscard]] const FlowNetwork& flows() const noexcept { return flows_; }
    [[nodiscard]] AsGraph& as_graph() noexcept { return as_graph_; }
    [[nodiscard]] const AsGraph& as_graph() const noexcept { return as_graph_; }
    [[nodiscard]] GeoDatabase& geodb() noexcept { return geodb_; }
    [[nodiscard]] const GeoDatabase& geodb() const noexcept { return geodb_; }

private:
    /// One active degradation layer on an AS.
    struct AsFaultLayer {
        std::uint32_t token = 0;
        double latency_factor = 1.0;
        double rate_factor = 1.0;
        double loss = 0.0;
    };
    /// All layers on one AS plus the cached effective factors the hot paths
    /// read. Effective values are recomputed as ordered products whenever a
    /// layer is added or removed — never by dividing a factor back out, which
    /// would not round-trip in floating point.
    struct AsFault {
        std::vector<AsFaultLayer> layers;
        double latency_factor = 1.0;
        double rate_factor = 1.0;
        double loss = 0.0;

        void recompute() noexcept;
    };

    /// Reapplies a host's effective capacities from its nominal values and
    /// the active degradation factor of its AS.
    void apply_capacity(HostId h);
    [[nodiscard]] double as_latency_factor(Asn asn) const;
    void change_partition(int a, int b, int delta);
    void cut_partitioned_flows();

    sim::Simulator* sim_;
    FlowNetwork flows_;
    AsGraph as_graph_;
    GeoDatabase geodb_;
    std::vector<HostInfo> hosts_;
    // Fault state. partition_count_ is a regions x regions nesting-count
    // matrix, sized lazily on first cut; lookups are O(1) and fault-free runs
    // take the active_partitions_ == 0 fast path.
    std::vector<std::uint16_t> partition_count_;
    int active_partitions_ = 0;
    std::unordered_map<std::uint32_t, AsFault> as_faults_;  // keyed by Asn::value
    std::uint32_t next_as_fault_token_ = 1;
    Rng fault_rng_{0xFA017FA017FA017ULL};  // loss draws only; constant seed
};

}  // namespace netsession::net
