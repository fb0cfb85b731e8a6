// The user-behaviour model: sessions, download requests, pauses/aborts,
// setting toggles, mobility, user traffic, and install-state anomalies
// (clone / re-image / rollback). Drives a population of NetSessionClients
// through a measurement window and is the knob box every Table/Figure
// behaviour traces back to (see DESIGN.md §3).
#pragma once

#include <memory>
#include <vector>

#include "peer/netsession_client.hpp"
#include "workload/hot_roster.hpp"
#include "workload/population.hpp"
#include "workload/providers.hpp"

namespace netsession::workload {

struct BehaviorConfig {
    /// Measurement window (the paper's trace covers October 2012).
    sim::Duration window = sim::days(30.0);
    /// Warm-up before the window: the system runs and swarms form, then the
    /// trace is cleared. NetSession had been operating for five years when
    /// the paper's data was collected.
    sim::Duration warmup = sim::days(10.0);

    // Sessions: the NetSession Interface runs whenever the user is logged in
    // (§3.4); sessions follow a diurnal pattern in the peer's local time.
    double sessions_per_day = 1.4;
    double session_hours_median = 4.0;
    double session_hours_sigma = 0.9;
    /// Fraction of machines that stay logged in nearly around the clock
    /// (office desktops, always-on home machines). NetSession runs as a
    /// persistent background application whenever the user is logged in
    /// (§3.4), so these peers dominate instantaneous upload capacity.
    double frac_always_on = 0.25;
    double always_on_hours_median = 18.0;

    // Download demand.
    double downloads_per_peer_per_month = 2.5;
    /// Probability a download request goes to the user's install provider
    /// (brand affinity; sharpens Table 4's per-customer separation).
    double provider_loyalty = 0.85;
    /// Probability a paused download is resumed at the next session.
    double resume_probability = 0.8;

    // Abort model (§5.2/Fig 7): users give up on downloads that outlast
    // their patience, so long (large) downloads are terminated more often.
    double patience_median_s = 21600.0;
    double patience_sigma = 1.5;
    double immediate_abort_prob = 0.025;  // user changes mind right away
    double disk_full_prob = 0.004;        // "other" failure causes
    /// Fraction of peers whose cached data is silently corrupt; their
    /// uploads drive the "too many corrupted content blocks" failures
    /// (§5.2: 0.1% infra vs 0.2% p2p system-related failures).
    double corruptor_fraction = 0.0012;
    /// Baseline system-failure probability affecting any download.
    double system_failure_prob = 0.001;

    // Upload-setting toggles (Table 3): almost nobody changes the default.
    double toggle_prob_initially_disabled = 0.0004;
    double toggle_prob_initially_enabled = 0.019;
    double second_toggle_fraction = 0.05;

    /// Probability that a session starts on a fresh DHCP lease (new IP,
    /// same AS and location). Drives Table 1's 5.15 IPs per GUID.
    double dhcp_churn_prob = 0.1;

    // Mobility mix (§6.2); remainder of the population is stationary.
    double frac_dual_near = 0.03;   // second location <10 km, different AS
    double frac_dual_far = 0.14;    // second location far away, different AS
    double frac_traveler = 0.05;    // roams across countries / VPN exits
    double traveler_move_prob = 0.3;

    // Install-state anomalies (Fig 12). Fractions are shaped so trees are
    // ~0.6% of GUID graphs with the paper's pattern mix.
    double frac_update_failure = 0.0028;   // one-vertex rollback   (46% of trees)
    double frac_restored_backup = 0.0004;  // deep rollback         (6%)
    double frac_reimaged = 0.0014;         // golden-image restores (24%)
    double frac_irregular = 0.0014;        // config-file tampering (24%)

    // The user's own traffic (uploads back off, §3.9).
    double user_traffic_episodes_per_session = 0.6;
    double user_traffic_minutes = 40.0;

    // Compromised peers inflating their usage reports (§6.2 / [1]).
    double attacker_fraction = 0.0;
    double attacker_inflation = 5.0;
};

/// Owns the peer population and drives it through the window.
class UserDriver {
public:
    UserDriver(net::World& world, control::ControlPlane& plane, edge::EdgeNetwork& edges,
               const CatalogBundle& bundle, PopulationGenerator& population,
               peer::PeerRegistry& registry, BehaviorConfig behavior, peer::ClientConfig base,
               Rng rng);

    /// Creates `n` users and schedules their behaviour across the window.
    void create_users(int n);

    /// Runs the simulator to the end of the window and flushes unfinished
    /// downloads into the trace.
    void run();

    // --- fault hooks (driven by fault::FaultEngine) -------------------------
    /// Abruptly crashes each currently-running client with probability
    /// `fraction` (mass churn; no goodbyes — remote watchdogs must notice).
    /// Deterministic given `rng`; returns how many clients crashed.
    int crash_peers(double fraction, Rng& rng);
    /// Flash crowd: a `fraction` of the running clients request the same
    /// object within the next minute. Returns how many launches were queued.
    int flash_crowd(double fraction, Rng& rng);

    [[nodiscard]] std::vector<std::unique_ptr<peer::NetSessionClient>>& clients() noexcept {
        return clients_;
    }
    [[nodiscard]] std::int64_t downloads_requested() const noexcept { return downloads_requested_; }
    [[nodiscard]] std::int64_t downloads_finished() const noexcept { return downloads_finished_; }
    [[nodiscard]] std::int64_t sessions_started() const noexcept { return sessions_started_; }

    /// Registers the population-wide client metrics block (the registry's,
    /// shared by every client this driver creates) plus driver-level
    /// behaviour gauges.
    void register_metrics(obs::Registry& registry);
    [[nodiscard]] peer::ClientMetrics& client_metrics() noexcept { return registry_->metrics(); }

    /// Maps a country to the paper's nine-column report region (used for
    /// provider affinity).
    [[nodiscard]] static int region_column(CountryId country);

private:
    enum class Mobility : std::uint8_t { stationary, dual_near, dual_far, traveler };
    enum class Anomaly : std::uint8_t { none, update_failure, restored_backup, reimaged, irregular };

    struct User {
        peer::NetSessionClient* client = nullptr;
        PeerSpec home;
        net::Location alt_location;
        Asn alt_asn{};
        Mobility mobility = Mobility::stationary;
        Anomaly anomaly = Anomaly::none;
        int region = 6;  // report-region column
        std::size_t preferred_provider = 0;
        bool always_on = false;
        Rng rng{0};
        int sessions = 0;
        bool at_alt = false;
        // Anomaly machinery.
        bool have_snapshot = false;
        peer::NetSessionClient::InstallState saved{};
        int anomaly_phase = 0;
        int anomaly_marker = 0;  // session count when the snapshot was taken
    };

    [[nodiscard]] double local_hour(const net::GeoPoint& p) const;
    [[nodiscard]] sim::SimTime next_session_time(User& u) const;
    void schedule_session(std::size_t idx);
    void start_session(std::size_t idx);
    void end_session(std::size_t idx);
    void launch_download(std::size_t idx);
    void apply_mobility(User& u);
    void apply_anomaly_pre(User& u);
    void apply_anomaly_post(User& u);

    net::World* world_;
    control::ControlPlane* plane_;
    edge::EdgeNetwork* edges_;
    const CatalogBundle* bundle_;
    PopulationGenerator* population_;
    peer::PeerRegistry* registry_;
    BehaviorConfig behavior_;
    peer::ClientConfig base_config_;
    Rng rng_;
    std::vector<std::unique_ptr<peer::NetSessionClient>> clients_;
    std::vector<User> users_;
    /// Dense SoA roster of the currently-running clients; the full clients_
    /// array is cold storage the per-tick/fault paths never scan.
    HotRoster roster_;
    std::int64_t downloads_requested_ = 0;
    std::int64_t downloads_finished_ = 0;
    std::int64_t sessions_started_ = 0;
};

}  // namespace netsession::workload
