// Recovery analysis: pairs the trace's fault timeline (format v8) into
// per-fault time-to-recover measurements.
//
// For every fault the FaultEngine recorded, this module measures how the
// deployment behaved during the fault and how quickly it came back after the
// restore:
//
//   * delivery recovery — the hourly download completion rate (completed /
//     terminal attempts) dipping during the fault and climbing back above
//     the SLO threshold afterwards; `recover_hours` is the time from the
//     restore to the first healthy bucket
//   * login-storm drain (cn_outage) — a CN region restart triggers a
//     re-login storm; drained when the per-bucket login count falls back to
//     ~the pre-fault baseline
//   * RE-ADD reconvergence (dn_outage) — a DN restart triggers RE-ADD
//     fan-out from the CNs; drained when the sampled `control.readds` rate
//     (the trace's metrics section) falls back to ~the pre-fault baseline
//   * degradation pressure — client-observed degradations and blacklist
//     churn (source_blacklisted events) while the fault was active
//
// bench_robustness turns these into SLO gates and BENCH_headline.json's
// "recovery" section; `nstrace recovery` prints them as a table.
//
// Layering: analysis/ sits below fault/, so the fault kind stays the raw
// trace byte here, mirrored as TracedFaultKind (core/simulation.cpp
// static_asserts the two enums agree value-for-value).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/trace_log.hpp"

namespace netsession::analysis {

/// Mirror of fault::FaultKind as it appears in FaultRecord::kind.
enum class TracedFaultKind : std::uint8_t {
    edge_outage,
    region_partition,
    as_degradation,
    stun_blackout,
    mass_churn,
    cn_outage,
    dn_outage,
    flash_crowd,
};

[[nodiscard]] std::string_view to_string(TracedFaultKind k) noexcept;

struct RecoveryOptions {
    /// Delivery completion rate counted as "recovered".
    double delivery_threshold = 0.95;
    /// Time-bucket width for the delivery/login/readd series.
    sim::Duration bucket = sim::hours(1.0);
    /// How long after the restore to look for recovery before declaring the
    /// fault never-recovered.
    sim::Duration horizon = sim::hours(48.0);
};

/// Recovery measurements for one fault-timeline entry.
struct FaultRecovery {
    int index = 0;  ///< position in the armed FaultPlan (FaultRecord::index)
    TracedFaultKind kind = TracedFaultKind::edge_outage;
    sim::SimTime onset{};
    /// Restore time; equals `onset` for one-shot kinds (mass_churn /
    /// flash_crowd strike instantaneously and recovery runs from the onset).
    sim::SimTime restore{};
    /// False when the trace holds no restore for a non-one-shot fault
    /// (permanent fault, or the window closed first): recovery cannot be
    /// evaluated, recover_hours stays -1, and the fault is excluded from
    /// RecoveryReport::all_recovered.
    bool evaluable = false;
    /// Lowest delivery completion rate of any non-empty bucket while the
    /// fault was active (1.0 when no download terminated during it).
    double min_delivery_during = 1.0;
    /// Hours from the restore until delivery first met the threshold again;
    /// 0 when it never dipped. Negative = not recovered within the horizon.
    double recover_hours = -1.0;
    /// Client-observed degradation events while the fault was active.
    std::int64_t degradations = 0;
    /// source_blacklisted events while the fault was active.
    std::int64_t blacklist_churn = 0;
    /// cn_outage only: hours after restore until the re-login storm drained
    /// back to ~the pre-fault rate. -1 elsewhere / never drained.
    double login_drain_hours = -1.0;
    /// dn_outage only: hours after restore until the RE-ADD rate (sampled
    /// `control.readds` metric) drained back to ~the pre-fault rate. -1
    /// elsewhere, without metrics, or never drained.
    double readd_drain_hours = -1.0;
};

struct RecoveryReport {
    std::vector<FaultRecovery> faults;  ///< onset order
    /// Max recover_hours over evaluable faults that did recover (0 if none).
    double worst_recover_hours = 0.0;
    /// Every evaluable fault recovered within the horizon.
    bool all_recovered = true;
};

/// Builds the report from a trace. Pure read; tolerates traces whose warm-up
/// clear dropped the onset of a fault (such restores are skipped).
[[nodiscard]] RecoveryReport recovery_report(const trace::TraceLog& trace,
                                             const RecoveryOptions& options = {});

}  // namespace netsession::analysis
