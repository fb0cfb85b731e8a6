#include "core/simulation.hpp"

#include <algorithm>

#include "common/parallel.hpp"
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
    // Sizes the analysis runtime for post-run measurement passes; the
    // simulation itself stays single-threaded regardless.
    if (config_.threads > 0) parallel::set_thread_count(config_.threads);

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
    // tier, client population, then the engine-level computed gauges.
    plane_->register_metrics(metrics_registry_);
    edges_->register_metrics(metrics_registry_);
    driver_->register_metrics(metrics_registry_);

    metrics_registry_.add_computed("flow.active", [this] {
        const auto s = world_->flows().stats();
        return static_cast<double>(s.flows_started - s.flows_completed - s.flows_cancelled);
    });
    metrics_registry_.add_computed("flow.started", [this] {
        return static_cast<double>(world_->flows().stats().flows_started);
    });
    metrics_registry_.add_computed("flow.completed", [this] {
        return static_cast<double>(world_->flows().stats().flows_completed);
    });
    metrics_registry_.add_computed("flow.cancelled", [this] {
        return static_cast<double>(world_->flows().stats().flows_cancelled);
    });
    metrics_registry_.add_computed("flow.refills", [this] {
        return static_cast<double>(world_->flows().stats().refills);
    });
    metrics_registry_.add_computed("flow.resort_hits", [this] {
        return static_cast<double>(world_->flows().stats().resort_hits);
    });
    metrics_registry_.add_computed("flow.resort_misses", [this] {
        return static_cast<double>(world_->flows().stats().resort_misses);
    });
    metrics_registry_.add_computed("sim.events_scheduled",
                           [this] { return static_cast<double>(sim_.stats().scheduled); });
    metrics_registry_.add_computed("sim.events_dispatched",
                           [this] { return static_cast<double>(sim_.stats().dispatched); });
    metrics_registry_.add_computed("sim.events_cancelled",
                           [this] { return static_cast<double>(sim_.stats().cancelled); });
    metrics_registry_.add_computed("sim.callback_heap_allocs", [this] {
        return static_cast<double>(sim_.stats().callback_heap_allocs);
    });

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

    // mem.* — storage accounting for the arena pools and flat-hash tables.
    // All values are pure functions of the simulation history (slot counts,
    // chunk counts, load factors), so they are safe to sample into the trace;
    // process RSS is *not* and lives in obs/process_memory.hpp instead.
    metrics_registry_.add_computed("mem.swarm_pool_bytes_reserved", [this] {
        std::size_t total = 0;
        for (const auto& dn : plane_->dns()) total += dn->memory_stats().pool_bytes_reserved;
        return static_cast<double>(total);
    });
    metrics_registry_.add_computed("mem.swarm_pool_live", [this] {
        std::size_t total = 0;
        for (const auto& dn : plane_->dns()) total += dn->memory_stats().pool_live;
        return static_cast<double>(total);
    });
    metrics_registry_.add_computed("mem.directory_table_load", [this] {
        double worst = 0.0;
        for (const auto& dn : plane_->dns())
            worst = std::max(worst, dn->memory_stats().table_load_factor);
        return worst;
    });
    metrics_registry_.add_computed("mem.download_pool_bytes_reserved", [this] {
        return static_cast<double>(registry_.downloads().bytes_reserved());
    });
    metrics_registry_.add_computed("mem.download_pool_live", [this] {
        return static_cast<double>(registry_.downloads().live());
    });
    metrics_registry_.add_computed("mem.flow_pool_bytes_reserved", [this] {
        return static_cast<double>(world_->flows().pool_stats().bytes_reserved);
    });
    metrics_registry_.add_computed("mem.flow_pool_live", [this] {
        return static_cast<double>(world_->flows().pool_stats().live);
    });
    metrics_registry_.add_computed("mem.client_table_load",
                                   [this] { return registry_.table_load_factor(); });
    // Hibernation accounting (PR 9): how much of the population is demoted to
    // the cold arena, and what it costs there.
    metrics_registry_.add_computed("mem.cold_bytes_reserved", [this] {
        return static_cast<double>(registry_.cold().bytes_reserved());
    });
    metrics_registry_.add_computed("mem.cold_bytes_live", [this] {
        return static_cast<double>(registry_.cold().bytes_live());
    });
    metrics_registry_.add_computed("mem.cold_records", [this] {
        return static_cast<double>(registry_.cold().records());
    });

#if NS_AUDIT_ENABLED
    // Registered last, and only in audit builds: default-build metric ids
    // stay byte-identical to audit-free binaries.
    auditor_->register_metrics(metrics_registry_);
#endif
}

void Simulation::run() {
    driver_->create_users(config_.peers);
    fault::FaultPlan plan = config_.faults;
    if (!config_.campaigns.empty())
        fault::append_campaigns(plan, config_.campaigns, campaign_context());
    fault_engine_->arm(plan);
    const sim::SimTime window_end =
        sim::SimTime{} + config_.behavior.warmup + config_.behavior.window;
#if NS_METRICS_ENABLED
    sampler_->start(window_end);
#endif
#if NS_AUDIT_ENABLED
    auditor_->start(window_end);
#endif
    driver_->run();
#if NS_METRICS_ENABLED
    sampler_->finish();
#endif
#if NS_AUDIT_ENABLED
    auditor_->finish();
#endif
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
