#include "core/simulation.hpp"

#include <algorithm>

#include "analysis/recovery.hpp"
#include "net/world_data.hpp"

namespace netsession {

// analysis/ cannot name fault::FaultKind (it sits below fault/ in the
// layering), so it mirrors the enum; core sees both and pins them together.
static_assert(static_cast<int>(analysis::TracedFaultKind::edge_outage) ==
                  static_cast<int>(fault::FaultKind::edge_outage) &&
              static_cast<int>(analysis::TracedFaultKind::region_partition) ==
                  static_cast<int>(fault::FaultKind::region_partition) &&
              static_cast<int>(analysis::TracedFaultKind::as_degradation) ==
                  static_cast<int>(fault::FaultKind::as_degradation) &&
              static_cast<int>(analysis::TracedFaultKind::stun_blackout) ==
                  static_cast<int>(fault::FaultKind::stun_blackout) &&
              static_cast<int>(analysis::TracedFaultKind::mass_churn) ==
                  static_cast<int>(fault::FaultKind::mass_churn) &&
              static_cast<int>(analysis::TracedFaultKind::cn_outage) ==
                  static_cast<int>(fault::FaultKind::cn_outage) &&
              static_cast<int>(analysis::TracedFaultKind::dn_outage) ==
                  static_cast<int>(fault::FaultKind::dn_outage) &&
              static_cast<int>(analysis::TracedFaultKind::flash_crowd) ==
                  static_cast<int>(fault::FaultKind::flash_crowd),
              "analysis::TracedFaultKind must mirror fault::FaultKind");

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)), accounting_(trace_) {
    Rng root(config_.seed);

    world_ = std::make_unique<net::World>(
        sim_, net::AsGraph::generate(config_.as_graph, root.child("as-graph")));

    auto profiles = workload::default_providers(config_.tail_providers);
    if (config_.disable_p2p)
        for (auto& p : profiles) p.allow_p2p = false;
    bundle_ = std::make_unique<workload::CatalogBundle>(std::move(profiles), catalog_,
                                                        root.child("catalog"), config_.max_pieces);

    edges_ = std::make_unique<edge::EdgeNetwork>(*world_, catalog_, config_.edge);

    // The accounting attack filter cross-checks reports against the trusted
    // edge ledger (§3.5).
    accounting_.set_ground_truth([this](Guid guid, ObjectId object) {
        Bytes total = 0;
        for (const auto& server : edges_->servers()) total += server->bytes_served(guid, object);
        return total;
    });

    plane_ = std::make_unique<control::ControlPlane>(*world_, edges_->authority(), trace_,
                                                     accounting_, config_.control,
                                                     root.child("control"));

    population_ = std::make_unique<workload::PopulationGenerator>(
        config_.population, world_->as_graph(), root.child("population"));

    driver_ = std::make_unique<workload::UserDriver>(
        *world_, *plane_, *edges_, *bundle_, *population_, registry_, config_.behavior,
        config_.client, root.child("behavior"));

    fault_engine_ = std::make_unique<fault::FaultEngine>(sim_, *world_, *edges_, *plane_,
                                                         *driver_, trace_, root.child("faults"));

    auditor_ = std::make_unique<audit::Auditor>(sim_, *world_, *plane_, registry_, *driver_,
                                                config_.client, config_.audit);

    register_metrics();
    sampler_ = std::make_unique<obs::Sampler>(sim_, metrics_registry_, trace_, config_.metrics);
}

void Simulation::register_metrics() {
    // Stable registration order = stable v6 metric ids: control plane, edge
    // tier, client population, then the fault timeline. Domain metrics only:
    // engine, flow-solver and memory counters come from perf_stats() and the
    // pool accessors, never from the trace.
    plane_->register_metrics(metrics_registry_);
    edges_->register_metrics(metrics_registry_);
    driver_->register_metrics(metrics_registry_);

    metrics_registry_.add_computed("fault.applied", [this] {
        return static_cast<double>(fault_engine_->faults_applied());
    });
    metrics_registry_.add_computed("fault.restored", [this] {
        return static_cast<double>(fault_engine_->faults_restored());
    });
    metrics_registry_.add_computed("fault.active", [this] {
        return static_cast<double>(fault_engine_->faults_applied() -
                                   fault_engine_->faults_restored());
    });
}

void Simulation::run() {
    driver_->create_users(config_.peers);
    fault::FaultPlan plan = config_.faults;
    if (!config_.campaigns.empty())
        fault::append_campaigns(plan, config_.campaigns, campaign_context());
    fault_engine_->arm(plan);
    const sim::SimTime window_end =
        sim::SimTime{} + config_.behavior.warmup + config_.behavior.window;
    sampler_->start(window_end);
    auditor_->start(window_end);
    driver_->run();
    sampler_->finish();
    auditor_->finish();
}

fault::CampaignContext Simulation::campaign_context() const {
    // Pure function of the deterministic topology: region count from the
    // static region table, AS candidates from the generated AS graph — the
    // largest access (eyeball) networks, where degradations actually land.
    fault::CampaignContext ctx;
    ctx.regions = static_cast<int>(net::regions().size());
    std::vector<const net::AsInfo*> access;
    for (const net::AsInfo& info : world_->as_graph().all())
        if (info.tier == 3) access.push_back(&info);
    std::sort(access.begin(), access.end(), [](const net::AsInfo* a, const net::AsInfo* b) {
        if (a->size_weight != b->size_weight) return a->size_weight > b->size_weight;
        return a->asn.value < b->asn.value;
    });
    const std::size_t take = std::min<std::size_t>(access.size(), 64);
    ctx.asns.reserve(take);
    for (std::size_t i = 0; i < take; ++i) ctx.asns.push_back(access[i]->asn.value);
    return ctx;
}

}  // namespace netsession
