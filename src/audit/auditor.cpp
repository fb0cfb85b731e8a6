#include "audit/auditor.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "control/control_plane.hpp"
#include "control/database_node.hpp"
#include "edge/catalog.hpp"
#include "net/world.hpp"
#include "peer/netsession_client.hpp"
#include "peer/registry.hpp"
#include "workload/behavior.hpp"

namespace netsession::audit {

namespace {

std::uint64_t mix64(std::uint64_t x) noexcept {
    // splitmix64 finalizer.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t registration_key(Guid guid, ObjectId object) noexcept {
    std::uint64_t h = mix64(guid.hi);
    h = mix64(h ^ guid.lo);
    h = mix64(h ^ object.hi);
    return mix64(h ^ object.lo);
}

}  // namespace

Auditor::Auditor(sim::Simulator& sim, net::World& world, control::ControlPlane& plane,
                 peer::PeerRegistry& registry, workload::UserDriver& driver,
                 const peer::ClientConfig& client_config, AuditConfig config)
    : sim_(&sim), world_(&world), plane_(&plane), registry_(&registry), driver_(&driver),
      client_config_(client_config), config_(config) {}

void Auditor::start(sim::SimTime until) {
    if (!config_.enabled || config_.interval.us <= 0) return;
    until_ = until;
    if (sim_->now() + config_.interval > until_) return;
    sim_->schedule_after(config_.interval, [this] { tick(); });
}

void Auditor::tick() {
    audit_now();
    if (sim_->now() + config_.interval > until_) return;
    sim_->schedule_after(config_.interval, [this] { tick(); });
}

void Auditor::finish() {
    if (!config_.enabled || final_taken_) return;
    final_taken_ = true;
    audit_now();
}

int Auditor::audit_now() {
    ++counters_.audits_run;
    pass_violations_ = 0;
    check_flow_capacity();
    check_byte_conservation();
    check_directory();
    check_stall_bound();
    check_arena_accounting();
    if (pass_violations_ > 0 && config_.fatal) {
        std::fprintf(stderr, "audit: %d invariant violation(s) at t=%.3f days\n", pass_violations_,
                     sim_->now().us / 86.4e9);
        for (const std::string& r : reports_) std::fprintf(stderr, "audit:   %s\n", r.c_str());
        std::abort();
    }
    return pass_violations_;
}

void Auditor::violation(std::int64_t AuditCounters::*counter, std::string detail) {
    counters_.*counter += 1;
    ++pass_violations_;
    if (static_cast<int>(reports_.size()) < config_.max_reports)
        reports_.push_back(std::move(detail));
}

int Auditor::check_flow_capacity() {
    const int before = pass_violations_;
    const net::FlowNetwork& flows = world_->flows();
    rate_up_.assign(flows.host_count(), 0.0);
    rate_down_.assign(flows.host_count(), 0.0);
    flows.for_each_active([&](net::FlowId id, HostId src, HostId dst) {
        const Rate r = flows.current_rate(id);
        rate_up_[src.value] += r;
        rate_down_[dst.value] += r;
    });
    for (std::size_t h = 0; h < flows.host_count(); ++h) {
        const HostId host{static_cast<std::uint32_t>(h)};
        const Rate up = flows.up_capacity(host);
        const Rate down = flows.down_capacity(host);
        // Max-min fair fills allocate exactly; allow only fp summation slack.
        const auto over = [](double used, double cap) {
            return std::isfinite(cap) && used > cap * (1.0 + 1e-6) + 1.0;
        };
        if (over(rate_up_[h], up)) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "flow_capacity: host %zu uplink %.1f > cap %.1f", h,
                          rate_up_[h], up);
            violation(&AuditCounters::flow_capacity, buf);
        }
        if (over(rate_down_[h], down)) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "flow_capacity: host %zu downlink %.1f > cap %.1f", h,
                          rate_down_[h], down);
            violation(&AuditCounters::flow_capacity, buf);
        }
    }
    return pass_violations_ - before;
}

int Auditor::check_byte_conservation() {
    const int before = pass_violations_;
    for (const auto& client : driver_->clients()) {
        client->for_each_open_download([&](const peer::Download& d) {
            if (d.entry == nullptr) return;
            const swarm::ContentObject& object = d.entry->object;
            Bytes held = 0;
            for (swarm::PieceIndex i = 0; i < object.piece_count(); ++i)
                if (d.have.size() > i && d.have.has(i)) held += object.piece_length(i);
            // Every held piece was delivered and accounted; duplicates (a
            // piece paid for twice in an edge/peer race) only push the
            // accounted total *above* the held bytes, never below.
            const Bytes accounted = d.bytes_infra + d.bytes_peers;
            if (accounted < held) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "byte_conservation: guid %s holds %" PRIu64
                              " bytes but accounted only %" PRIu64,
                              client->guid().to_string().c_str(), held, accounted);
                violation(&AuditCounters::byte_conservation, buf);
            }
            // The per-source ledger and the peer-byte total are incremented
            // at the same site; they must agree exactly at all times.
            Bytes per_source = 0;
            for (const auto& [guid, entry] : d.per_source_bytes) per_source += entry.second;
            if (per_source != d.bytes_peers) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "byte_conservation: guid %s per-source ledger %" PRIu64
                              " != peer bytes %" PRIu64,
                              client->guid().to_string().c_str(), per_source, d.bytes_peers);
                violation(&AuditCounters::byte_conservation, buf);
            }
        });
    }
    return pass_violations_ - before;
}

int Auditor::check_directory() {
    const int before = pass_violations_;
    const sim::SimTime now = sim_->now();
    // Announce/withdraw messages are legitimately in flight for seconds;
    // one simulated hour is orders of magnitude past any message round-trip
    // or re-login storm drain, so a mismatch older than that is a real
    // divergence (e.g. a RE-ADD resurrecting a withdrawn copy).
    const sim::Duration stale_bound = sim::hours(1.0);
    dir_first_seen_cur_.clear();
    for (const auto& dn : plane_->dns()) {
        const int inconsistent = dn->directory().audit_consistency();
        if (inconsistent != 0) {
            char buf[128];
            std::snprintf(buf, sizeof(buf), "directory: DN %u indexes disagree (%d)",
                          dn->id().value, inconsistent);
            violation(&AuditCounters::directory, buf);
        }
        dn->directory().for_each_registration([&](Guid guid, ObjectId object) {
            const peer::NetSessionClient* client = registry_->find(guid);
            const bool holds = client != nullptr && (client->has_cached(object) ||
                                                     client->download_active(object));
            if (holds) return;
            const std::uint64_t key = registration_key(guid, object);
            const std::int64_t* prev = dir_first_seen_prev_.find_value(key);
            const std::int64_t first = prev != nullptr ? *prev : now.us;
            dir_first_seen_cur_[key] = first;
            if (now.us - first > stale_bound.us) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "directory: DN %u registration (guid %s) stale for %.0fs",
                              dn->id().value, guid.to_string().c_str(), (now.us - first) / 1e6);
                violation(&AuditCounters::directory, buf);
            }
        });
    }
    std::swap(dir_first_seen_prev_, dir_first_seen_cur_);
    return pass_violations_ - before;
}

int Auditor::check_stall_bound() {
    const int before = pass_violations_;
    const sim::SimTime now = sim_->now();
    // The client watchdog declares a stall within interval + grace of the
    // flow dying. The auditor observes the flow's *absence*, not the moment
    // it died (a flow can run healthily for minutes before a fault cuts it),
    // so persistence is measured from the sweep that first saw the transfer
    // dead: the same attempt still dead twice the watchdog bound later means
    // the watchdog never fired.
    const sim::Duration bound =
        sim::seconds(2.0 * (client_config_.watchdog_interval_s + client_config_.stall_grace_s));
    const net::FlowNetwork& flows = world_->flows();
    stall_first_seen_cur_.clear();
    const auto dead_for = [&](std::uint64_t key) {
        const std::int64_t* prev = stall_first_seen_prev_.find_value(key);
        const std::int64_t first = prev != nullptr ? *prev : now.us;
        stall_first_seen_cur_[key] = first;
        return sim::Duration{now.us - first};
    };
    for (const auto& client : driver_->clients()) {
        if (!client->running()) continue;
        const Guid guid = client->guid();
        client->for_each_open_download([&](const peer::Download& d) {
            if (d.paused) return;
            if (d.edge_transferring && !flows.active(d.edge_flow)) {
                // started_at identifies the attempt: a retry resets it, so a
                // stale first-seen entry can never indict a fresh attempt.
                std::uint64_t key = mix64(guid.hi);
                key = mix64(key ^ guid.lo);
                key = mix64(key ^ static_cast<std::uint64_t>(d.edge_started_at.us));
                const sim::Duration dead = dead_for(key);
                if (dead > bound) {
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "stall_bound: guid %s edge transfer dead for %.0fs unnoticed",
                                  guid.to_string().c_str(), dead.us / 1e6);
                    violation(&AuditCounters::stall_bound, buf);
                }
            }
            for (const peer::PeerSource& src : d.sources) {
                if (!src.transferring || flows.active(src.flow)) continue;
                std::uint64_t key = mix64(guid.hi);
                key = mix64(key ^ guid.lo);
                key = mix64(key ^ src.desc.guid.hi);
                key = mix64(key ^ src.desc.guid.lo);
                key = mix64(key ^ static_cast<std::uint64_t>(src.started_at.us));
                const sim::Duration dead = dead_for(key);
                if (dead > bound) {
                    char buf[160];
                    std::snprintf(buf, sizeof(buf),
                                  "stall_bound: guid %s peer transfer dead for %.0fs unnoticed",
                                  guid.to_string().c_str(), dead.us / 1e6);
                    violation(&AuditCounters::stall_bound, buf);
                }
            }
        });
    }
    std::swap(stall_first_seen_prev_, stall_first_seen_cur_);
    return pass_violations_ - before;
}

int Auditor::check_arena_accounting() {
    const int before = pass_violations_;
    std::size_t open = 0;
    for (const auto& client : driver_->clients())
        open += static_cast<std::size_t>(client->open_downloads());
    const std::size_t live = registry_->downloads().live();
    if (open != live) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "arena_accounting: download pool live %zu != %zu open downloads", live, open);
        violation(&AuditCounters::arena_accounting, buf);
    }
    return pass_violations_ - before;
}

}  // namespace netsession::audit
