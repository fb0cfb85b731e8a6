#include "workload/behavior.hpp"

#include <algorithm>
#include <cmath>

namespace netsession::workload {

UserDriver::UserDriver(net::World& world, control::ControlPlane& plane, edge::EdgeNetwork& edges,
                       const CatalogBundle& bundle, PopulationGenerator& population,
                       peer::PeerRegistry& registry, BehaviorConfig behavior,
                       peer::ClientConfig base, Rng rng)
    : world_(&world),
      plane_(&plane),
      edges_(&edges),
      bundle_(&bundle),
      population_(&population),
      registry_(&registry),
      behavior_(behavior),
      base_config_(base),
      rng_(rng) {}

int UserDriver::region_column(CountryId country) {
    const net::CountryInfo& c = net::country(country);
    if (c.alpha2 == "US")
        return net::region(c.region).name == std::string_view("US-West") ? 1 : 0;
    if (c.alpha2 == "IN") return 3;
    if (c.alpha2 == "CN") return 4;
    switch (c.continent) {
        case net::Continent::north_america:
        case net::Continent::south_america: return 2;
        case net::Continent::asia: return 5;
        case net::Continent::europe: return 6;
        case net::Continent::africa: return 7;
        case net::Continent::oceania: return 8;
    }
    return 6;
}

void UserDriver::create_users(int n) {
    users_.reserve(users_.size() + static_cast<std::size_t>(n));
    clients_.reserve(clients_.size() + static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        User u;
        u.home = population_->next();
        u.rng = rng_.child("user-" + std::to_string(users_.size()));
        u.region = region_column(u.home.location.country);
        u.preferred_provider = bundle_->sample_install_provider_index(u.region, u.rng);
        u.always_on = u.rng.chance(behavior_.frac_always_on);

        // Mobility class.
        const double m = u.rng.uniform();
        // Dual-homed users attach through a *different* provider at the
        // second location; with the heavy-tailed AS sizes a fresh draw often
        // lands on the same dominant AS, so re-draw a few times.
        const auto different_asn = [&](Asn home) {
            Asn alt = home;
            for (int tries = 0; tries < 8 && alt == home; ++tries)
                alt = world_->as_graph().pick_for_country(u.home.location.country, u.rng);
            return alt;
        };
        if (m < behavior_.frac_dual_near) {
            u.mobility = Mobility::dual_near;
            u.alt_location = population_->location_near(u.home.location, 6.0);
            u.alt_asn = different_asn(u.home.asn);
        } else if (m < behavior_.frac_dual_near + behavior_.frac_dual_far) {
            u.mobility = Mobility::dual_far;
            u.alt_location = population_->location_in(u.home.location.country);
            u.alt_asn = different_asn(u.home.asn);
        } else if (m < behavior_.frac_dual_near + behavior_.frac_dual_far +
                           behavior_.frac_traveler) {
            u.mobility = Mobility::traveler;
        }

        // Install-state anomaly class.
        const double a = u.rng.uniform();
        if (a < behavior_.frac_update_failure)
            u.anomaly = Anomaly::update_failure;
        else if (a < behavior_.frac_update_failure + behavior_.frac_restored_backup)
            u.anomaly = Anomaly::restored_backup;
        else if (a < behavior_.frac_update_failure + behavior_.frac_restored_backup +
                         behavior_.frac_reimaged)
            u.anomaly = Anomaly::reimaged;
        else if (a < behavior_.frac_update_failure + behavior_.frac_restored_backup +
                         behavior_.frac_reimaged + behavior_.frac_irregular)
            u.anomaly = Anomaly::irregular;

        // Host + client.
        net::HostInfo info;
        info.attach.location = u.home.location;
        info.attach.asn = u.home.asn;
        info.attach.nat = u.home.nat;
        info.up = u.home.up;
        info.down = u.home.down;
        const HostId host = world_->create_host(info);

        peer::ClientConfig cfg = base_config_;
        cfg.uploads_enabled = u.rng.chance(
            bundle_->profiles()[u.preferred_provider].default_uploads_enabled);
        const Guid guid{u.rng.next(), u.rng.next()};
        auto client = std::make_unique<peer::NetSessionClient>(
            *world_, *plane_, *edges_, bundle_->catalog(), *registry_, guid, host, cfg,
            u.rng.child("client"));
        client->set_metrics(&client_metrics_);
        u.client = client.get();

        if (u.rng.chance(behavior_.corruptor_fraction)) u.client->set_corrupt_uploads(true);

        // Accounting attackers inflate the infrastructure byte counts in
        // their reports (to distort the provider's bill).
        if (behavior_.attacker_fraction > 0 && u.rng.chance(behavior_.attacker_fraction)) {
            const double inflation = behavior_.attacker_inflation;
            u.client->set_report_tamper([inflation](trace::DownloadRecord& r) {
                r.bytes_from_infrastructure = static_cast<Bytes>(
                    static_cast<double>(r.bytes_from_infrastructure + 1) * inflation);
            });
        }

        // Upload-setting toggles, scheduled independently of sessions.
        const bool initially_enabled = cfg.uploads_enabled;
        const double toggle_prob = initially_enabled ? behavior_.toggle_prob_initially_enabled
                                                     : behavior_.toggle_prob_initially_disabled;
        if (u.rng.chance(toggle_prob)) {
            peer::NetSessionClient* cl = u.client;
            // Toggles land inside the measurement window so Table 3 sees
            // them between logins.
            const auto t1 = behavior_.warmup +
                            sim::seconds(u.rng.uniform(0.1, 0.9) * behavior_.window.seconds());
            world_->simulator().schedule_at(sim::SimTime{} + t1, [cl, initially_enabled] {
                cl->set_uploads_enabled(!initially_enabled);
            });
            if (u.rng.chance(behavior_.second_toggle_fraction)) {
                const auto t2 = t1 + sim::seconds(u.rng.uniform(0.05, 0.1) *
                                                  behavior_.window.seconds());
                world_->simulator().schedule_at(sim::SimTime{} + t2, [cl, initially_enabled] {
                    cl->set_uploads_enabled(initially_enabled);
                });
            }
        }

        clients_.push_back(std::move(client));
        users_.push_back(std::move(u));
        schedule_session(users_.size() - 1);
    }
}

double UserDriver::local_hour(const net::GeoPoint& p) const {
    const double gmt_h = world_->simulator().now().hours();
    const double offset = std::round(p.lon / 15.0);
    double h = std::fmod(gmt_h + offset, 24.0);
    if (h < 0) h += 24.0;
    return h;
}

sim::SimTime UserDriver::next_session_time(User& u) const {
    // Thinned inhomogeneous Poisson process with diurnal intensity in the
    // user's local time.
    const double lambda_max =
        behavior_.sessions_per_day / 24.0 / 3600.0 * diurnal_peak();  // per second
    double t = world_->simulator().now().seconds();
    for (int guard = 0; guard < 10000; ++guard) {
        t += u.rng.exponential(1.0 / lambda_max);
        const double gmt_h = t / 3600.0;
        const double offset = std::round(u.home.location.point.lon / 15.0);
        double lh = std::fmod(gmt_h + offset, 24.0);
        if (lh < 0) lh += 24.0;
        if (u.rng.uniform() * diurnal_peak() <= diurnal_intensity(lh))
            return sim::SimTime{static_cast<std::int64_t>(t * 1e6)};
    }
    return sim::SimTime{static_cast<std::int64_t>(t * 1e6)};
}

void UserDriver::schedule_session(std::size_t idx) {
    User& u = users_[idx];
    const sim::SimTime at = next_session_time(u);
    if (at.us >= (behavior_.warmup + behavior_.window).us) return;  // beyond the window
    world_->simulator().schedule_at(at, [this, idx] { start_session(idx); });
}

void UserDriver::start_session(std::size_t idx) {
    User& u = users_[idx];
    if (u.client->running()) {  // overlapping schedule; just extend usage
        schedule_session(idx);
        return;
    }
    ++sessions_started_;
    ++u.sessions;
    apply_mobility(u);
    apply_anomaly_pre(u);
    u.client->start();
    roster_.add(static_cast<std::uint32_t>(idx), u.client);

    // Session length.
    const double median =
        u.always_on ? behavior_.always_on_hours_median : behavior_.session_hours_median;
    const double hours =
        std::clamp(u.rng.lognormal(std::log(median), behavior_.session_hours_sigma), 0.05, 72.0);
    world_->simulator().schedule_after(sim::hours(hours), [this, idx] { end_session(idx); });

    // Resume paused downloads (the DLM lets users continue, §3.3).
    for (const auto object : u.client->paused_downloads())
        if (u.rng.chance(behavior_.resume_probability)) u.client->resume_download(object);

    // Download demand this session.
    const double sessions_per_month = behavior_.sessions_per_day * 30.0;
    const double p = behavior_.downloads_per_peer_per_month / sessions_per_month;
    int launches = static_cast<int>(p);
    if (u.rng.chance(p - static_cast<double>(launches))) ++launches;
    for (int i = 0; i < launches; ++i) {
        const double at_h = u.rng.uniform() * hours * 0.8;
        world_->simulator().schedule_after(sim::hours(at_h), [this, idx] { launch_download(idx); });
    }

    // User-traffic episodes throttle uploads (§3.9).
    if (u.rng.chance(behavior_.user_traffic_episodes_per_session)) {
        const double at_h = u.rng.uniform() * hours;
        peer::NetSessionClient* cl = u.client;
        world_->simulator().schedule_after(sim::hours(at_h), [this, cl] {
            cl->set_user_traffic(true);
            world_->simulator().schedule_after(sim::minutes(behavior_.user_traffic_minutes),
                                               [cl] { cl->set_user_traffic(false); });
        });
    }
}

void UserDriver::end_session(std::size_t idx) {
    User& u = users_[idx];
    u.client->stop();
    roster_.remove(static_cast<std::uint32_t>(idx));
    // Anomalies snapshot/scramble install state while it is still resident;
    // only then is the now-offline client demoted to the ColdStore.
    apply_anomaly_post(u);
    u.client->hibernate();
    schedule_session(idx);
}

void UserDriver::launch_download(std::size_t idx) {
    User& u = users_[idx];
    if (!u.client->running()) return;  // session ended before the launch fired

    const ObjectId object = u.rng.chance(behavior_.provider_loyalty)
                                ? bundle_->sample_object_of(u.preferred_provider, u.rng)
                                : bundle_->sample_object(u.region, u.rng);
    if (u.client->download_active(object)) return;
    ++downloads_requested_;

    peer::NetSessionClient* cl = u.client;
    auto done = std::make_shared<bool>(false);
    cl->begin_download(object, [this, done](const trace::DownloadRecord&) {
        *done = true;
        ++downloads_finished_;
    });

    // The user's patience: if the download outlasts it, they terminate it —
    // which is why large files are aborted more often (Fig 7).
    const double patience_s = std::clamp(
        u.rng.lognormal(std::log(behavior_.patience_median_s), behavior_.patience_sigma), 30.0,
        30.0 * 86400.0);
    world_->simulator().schedule_after(sim::seconds(patience_s), [cl, object, done] {
        if (*done) return;
        cl->abort_download(object, trace::DownloadOutcome::aborted_by_user);
    });

    // Some users change their mind almost immediately.
    if (u.rng.chance(behavior_.immediate_abort_prob)) {
        const double at_s = u.rng.uniform(10.0, 120.0);
        world_->simulator().schedule_after(sim::seconds(at_s), [cl, object, done] {
            if (*done) return;
            cl->abort_download(object, trace::DownloadOutcome::aborted_by_user);
        });
    }
    // And some downloads die of non-system causes (disk full, ...).
    if (u.rng.chance(behavior_.disk_full_prob)) {
        const double at_s = u.rng.uniform(30.0, 900.0);
        world_->simulator().schedule_after(sim::seconds(at_s), [cl, object, done] {
            if (*done) return;
            cl->abort_download(object, trace::DownloadOutcome::failed_other);
        });
    }
    // Baseline system failures not tied to corrupt swarm data.
    if (u.rng.chance(behavior_.system_failure_prob)) {
        const double at_s = u.rng.uniform(30.0, 1800.0);
        world_->simulator().schedule_after(sim::seconds(at_s), [cl, object, done] {
            if (*done) return;
            cl->abort_download(object, trace::DownloadOutcome::failed_system);
        });
    }
}

void UserDriver::apply_mobility(User& u) {
    // Home routers renew DHCP leases; the peer comes up on a fresh IP in
    // the same network (the paper sees 5.15 distinct IPs per GUID).
    const bool dhcp = u.rng.chance(behavior_.dhcp_churn_prob);
    switch (u.mobility) {
        case Mobility::stationary:
            if (dhcp) u.client->move_to(u.home.location, u.home.asn, u.home.nat);
            return;
        case Mobility::dual_near:
        case Mobility::dual_far: {
            const bool go_alt = u.rng.chance(0.45);
            if (go_alt == u.at_alt) {
                if (dhcp)
                    u.client->move_to(u.at_alt ? u.alt_location : u.home.location,
                                      u.at_alt ? u.alt_asn : u.home.asn, u.home.nat);
                return;
            }
            u.at_alt = go_alt;
            if (go_alt)
                u.client->move_to(u.alt_location, u.alt_asn, u.home.nat);
            else
                u.client->move_to(u.home.location, u.home.asn, u.home.nat);
            return;
        }
        case Mobility::traveler: {
            if (u.rng.chance(behavior_.traveler_move_prob)) {
                const CountryId country = population_->sample_country();
                const net::Location loc = population_->location_in(country);
                const Asn asn = world_->as_graph().pick_for_country(country, u.rng);
                u.client->move_to(loc, asn, u.home.nat);
                u.at_alt = true;
            } else if (u.at_alt) {
                u.client->move_to(u.home.location, u.home.asn, u.home.nat);
                u.at_alt = false;
            }
            return;
        }
    }
}

void UserDriver::apply_anomaly_pre(User& u) {
    if (u.anomaly == Anomaly::reimaged && u.have_snapshot) {
        // Internet-cafe machine: restored to the golden image every time.
        u.client->restore_state(u.saved);
    }
}

void UserDriver::apply_anomaly_post(User& u) {
    // Rollbacks and tampering must happen *inside* the measurement window —
    // the warm-up trace is discarded, and a branch whose edges were only
    // ever reported during warm-up is invisible to the Fig 12 analysis
    // (exactly as a pre-trace rollback would be invisible to the paper).
    const bool in_window = world_->simulator().now() >= sim::SimTime{} + behavior_.warmup;
    switch (u.anomaly) {
        case Anomaly::none:
            return;
        case Anomaly::reimaged:
            // The golden image is made early; every later session is rolled
            // back to it (branches keep forming all through the window).
            if (!u.have_snapshot && u.sessions >= 1) {
                u.saved = u.client->snapshot_state();
                u.have_snapshot = true;
            }
            return;
        case Anomaly::update_failure:
            // Snapshot after a session in the window, roll back right after
            // the next one: the lost session's secondary GUID becomes a
            // one-vertex branch.
            if (u.anomaly_phase == 0 && in_window && u.sessions >= 2) {
                u.saved = u.client->snapshot_state();
                u.have_snapshot = true;
                u.anomaly_phase = 1;
            } else if (u.anomaly_phase == 1) {
                u.client->restore_state(u.saved);
                u.anomaly_phase = 2;  // done
            }
            return;
        case Anomaly::restored_backup:
            // Deep rollback: restore a snapshot several sessions old.
            if (u.anomaly_phase == 0 && in_window && u.sessions >= 2) {
                u.saved = u.client->snapshot_state();
                u.have_snapshot = true;
                u.anomaly_phase = 1;
                u.anomaly_marker = u.sessions;
            } else if (u.anomaly_phase == 1 && u.sessions >= u.anomaly_marker + 4) {
                u.client->restore_state(u.saved);
                u.anomaly_phase = 2;
            }
            return;
        case Anomaly::irregular:
            // "we have seen users experiment with manually modifying data in
            // configuration files" (§6.2) — repeatedly scramble the recent
            // chain, so successive login reports contradict each other.
            if (in_window && u.anomaly_phase < 3 && u.sessions >= 2) {
                auto state = u.client->snapshot_state();
                if (state.chain.size() >= 3) {
                    const std::size_t window =
                        std::min<std::size_t>(5, state.chain.size());
                    const std::size_t base = state.chain.size() - window;
                    const std::size_t i = base + u.rng.below(window);
                    const std::size_t j = base + u.rng.below(window);
                    std::swap(state.chain[i], state.chain[j]);
                    u.client->restore_state(std::move(state));
                    ++u.anomaly_phase;
                }
            }
            return;
    }
}

int UserDriver::crash_peers(double fraction, Rng& rng) {
    // Deterministic: the roster is visited in creation order (matching the
    // old full-array scan, which only drew for running clients) and the
    // draws come from the fault engine's dedicated stream.
    int crashed = 0;
    roster_.for_each_in_creation_order([&](std::uint32_t user, peer::NetSessionClient* client) {
        if (!rng.chance(fraction)) return;
        client->crash();
        roster_.remove(user);
        client->hibernate();
        ++crashed;
    });
    return crashed;
}

int UserDriver::flash_crowd(double fraction, Rng& rng) {
    // Everyone wants the same object at once (breaking news, patch release).
    const ObjectId object = bundle_->sample_object(/*region=*/6, rng);
    int launched = 0;
    roster_.for_each_in_creation_order([&](std::uint32_t, peer::NetSessionClient* cl) {
        if (!rng.chance(fraction)) return;
        if (cl->download_active(object)) return;
        ++launched;
        const double at_s = rng.uniform(0.0, 60.0);
        world_->simulator().schedule_after(sim::seconds(at_s), [this, cl, object] {
            if (!cl->running() || cl->download_active(object)) return;
            ++downloads_requested_;
            cl->begin_download(object,
                               [this](const trace::DownloadRecord&) { ++downloads_finished_; });
        });
    });
    return launched;
}

void UserDriver::register_metrics(obs::Registry& registry) {
    client_metrics_.register_with(registry);
    registry.add_computed("driver.downloads_requested",
                          [this] { return static_cast<double>(downloads_requested_); });
    registry.add_computed("driver.downloads_finished",
                          [this] { return static_cast<double>(downloads_finished_); });
    registry.add_computed("driver.sessions_started",
                          [this] { return static_cast<double>(sessions_started_); });
    registry.add_computed("driver.clients_running",
                          [this] { return static_cast<double>(roster_.size()); });
}

void UserDriver::run() {
    auto& simulator = world_->simulator();
    if (behavior_.warmup.us > 0) {
        // Let swarms form, then discard the warm-up trace: the measurement
        // window observes a system in steady state, like the paper's.
        simulator.run_until(sim::SimTime{} + behavior_.warmup);
        plane_->trace_log().clear();
    }
    simulator.run_until(sim::SimTime{} + behavior_.warmup + behavior_.window);
    for (auto& client : clients_) client->flush_unfinished();
}

}  // namespace netsession::workload
