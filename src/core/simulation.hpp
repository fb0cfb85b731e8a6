// netsession::Simulation — the library's public entry point.
//
// Builds a complete synthetic NetSession deployment (internet model, edge
// servers, control plane, peer population), drives it through a measurement
// window with the configured user-behaviour model, and exposes the resulting
// control-plane trace plus the geo database, ready for the analysis pipeline
// that regenerates the paper's tables and figures.
//
// Typical use (see examples/quickstart.cpp):
//
//   netsession::SimulationConfig config;
//   config.peers = 5000;
//   config.behavior.window = netsession::sim::days(7.0);
//   netsession::Simulation sim(config);
//   sim.run();
//   const auto headline = netsession::analysis::headline_offload(sim.trace());
#pragma once

#include <memory>

#include "accounting/accounting.hpp"
#include "audit/auditor.hpp"
#include "control/control_plane.hpp"
#include "edge/edge_network.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_engine.hpp"
#include "fault/fault_spec.hpp"
#include "net/world.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "peer/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_log.hpp"
#include "workload/behavior.hpp"

namespace netsession {

struct SimulationConfig {
    /// Master seed; every random stream in the deployment derives from it.
    std::uint64_t seed = 1;

    /// Peer population size. The paper's deployment has 26M installations;
    /// synthetic runs are ~10^3 smaller and EXPERIMENTS.md compares shapes
    /// and shares, not absolute totals.
    int peers = 10000;

    net::AsGraphConfig as_graph;
    edge::EdgeNetworkConfig edge;
    control::ControlPlaneConfig control;
    peer::ClientConfig client;
    workload::BehaviorConfig behavior;
    workload::PopulationConfig population;

    /// Minor content providers beyond the ten majors of Tables 2/4.
    int tail_providers = 10;
    /// Upper bound on pieces per object (coarsened swarming, DESIGN.md §4.3).
    std::uint32_t max_pieces = 64;

    /// Forces every object to infrastructure-only delivery — the
    /// "infrastructure CDN" baseline of the architecture ablation.
    bool disable_p2p = false;

    /// Deterministic fault timeline (empty = fault-free run). Applied by the
    /// FaultEngine before the user driver starts; part of the determinism
    /// contract (same seed + same plan ⇒ byte-identical traces).
    fault::FaultPlan faults;

    /// Chaos campaigns expanded (deterministically, from each campaign's own
    /// seed) into additional fault events on top of `faults`. The expansion
    /// happens in run(), against the topology-derived CampaignContext, so
    /// the armed plan is a pure function of the config.
    std::vector<fault::CampaignSpec> campaigns;

    /// Runtime invariant auditor cadence (src/audit/). Periodic sweeps run
    /// only in NS_AUDIT=ON builds; audit_now() works in every build. The
    /// auditor is read-only, so this cannot change trace bytes.
    audit::AuditConfig audit;

    /// Cadence of the domain-metric samples in the trace (format v6). The
    /// sampler reads registered metrics only — it cannot perturb the rest of
    /// the trace.
    obs::SamplerConfig metrics;
};

class Simulation {
public:
    explicit Simulation(SimulationConfig config);

    Simulation(const Simulation&) = delete;
    Simulation& operator=(const Simulation&) = delete;

    /// Creates the population and runs the full measurement window.
    void run();

    /// Hot-path counters from the event engine and the flow network
    /// (scheduled/dispatched/cancelled events, callback heap allocations,
    /// refills, sort-cache hits). Snapshot; cheap to copy. The bench harness
    /// folds these into BENCH_headline.json.
    struct PerfStats {
        sim::Simulator::Stats sim;
        net::FlowNetwork::Stats flows;
    };
    [[nodiscard]] PerfStats perf_stats() const noexcept {
        return PerfStats{sim_.stats(), world_->flows().stats()};
    }

    /// The sampled registry: the domain metrics (`control.*`, `edge.*`,
    /// `client.*`, `driver.*`, `fault.*`), registered at construction in a
    /// stable order (part of the determinism contract — registration order
    /// fixes the v6 metric ids). Implementation counters stay out of it:
    /// read them from perf_stats(), world().flows().pool_stats(),
    /// registry().cold() and registry().downloads().
    [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_registry_; }
    [[nodiscard]] const obs::Registry& metrics() const noexcept { return metrics_registry_; }
    /// The trace sampler (never null after construction).
    [[nodiscard]] obs::Sampler& sampler() noexcept { return *sampler_; }
    /// The invariant auditor (never null after construction; periodic sweeps
    /// only run in NS_AUDIT=ON builds, but audit_now() works everywhere).
    [[nodiscard]] audit::Auditor& auditor() noexcept { return *auditor_; }

    // --- results -----------------------------------------------------------
    [[nodiscard]] const trace::TraceLog& trace() const noexcept { return trace_; }
    [[nodiscard]] trace::TraceLog& trace() noexcept { return trace_; }
    [[nodiscard]] const net::GeoDatabase& geodb() const noexcept { return world_->geodb(); }
    [[nodiscard]] const net::AsGraph& as_graph() const noexcept { return world_->as_graph(); }

    // --- live components (for examples, tests, failure injection) -----------
    [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
    [[nodiscard]] net::World& world() noexcept { return *world_; }
    [[nodiscard]] edge::EdgeNetwork& edges() noexcept { return *edges_; }
    [[nodiscard]] control::ControlPlane& control_plane() noexcept { return *plane_; }
    [[nodiscard]] accounting::AccountingService& accounting() noexcept { return accounting_; }
    [[nodiscard]] workload::UserDriver& driver() noexcept { return *driver_; }
    [[nodiscard]] peer::PeerRegistry& registry() noexcept { return registry_; }
    [[nodiscard]] fault::FaultEngine& faults() noexcept { return *fault_engine_; }
    [[nodiscard]] const workload::CatalogBundle& bundle() const noexcept { return *bundle_; }
    [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }

private:
    SimulationConfig config_;
    sim::Simulator sim_;
    std::unique_ptr<net::World> world_;
    edge::Catalog catalog_;
    std::unique_ptr<workload::CatalogBundle> bundle_;
    std::unique_ptr<edge::EdgeNetwork> edges_;
    trace::TraceLog trace_;
    accounting::AccountingService accounting_;
    std::unique_ptr<control::ControlPlane> plane_;
    peer::PeerRegistry registry_;
    std::unique_ptr<workload::PopulationGenerator> population_;
    std::unique_ptr<workload::UserDriver> driver_;
    std::unique_ptr<fault::FaultEngine> fault_engine_;
    std::unique_ptr<audit::Auditor> auditor_;
    obs::Registry metrics_registry_;
    std::unique_ptr<obs::Sampler> sampler_;

    void register_metrics();
    [[nodiscard]] fault::CampaignContext campaign_context() const;
};

}  // namespace netsession
