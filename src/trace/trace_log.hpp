// The trace store: append-only logs the simulated control plane writes and
// the analysis pipeline reads, mirroring the paper's one-month data set.
// Since format v6 it also carries the sampled metrics time series (the obs
// sampler's periodic registry snapshots) plus the metric-name table the
// points index into.
//
// Each record section is a plain std::vector of POD records: the simulator
// appends to it, trace/serialize.cpp reads a saved file straight into it, and
// writers (the anonymizer, tests) mutate it like any other vector.
#pragma once

#include <cassert>
#include <string>
#include <string_view>
#include <vector>

#include "trace/records.hpp"

namespace netsession::trace {

class TraceLog {
public:
    void add(DownloadRecord r) { downloads_.push_back(r); }
    void add(const LoginRecord& r) { logins_.push_back(r); }
    void add(const TransferRecord& r) { transfers_.push_back(r); }
    void add(const DnRegistrationRecord& r) { registrations_.push_back(r); }
    void add(const DegradationRecord& r) { degradations_.push_back(r); }
    void add(const FaultRecord& r) { fault_events_.push_back(r); }
    void add(const MetricPointRecord& r) {
        assert(r.metric < metric_names_.size() && "metric id must be interned first");
        metric_points_.push_back(r);
    }

    [[nodiscard]] const std::vector<DownloadRecord>& downloads() const noexcept {
        return downloads_;
    }
    [[nodiscard]] std::vector<DownloadRecord>& downloads() noexcept { return downloads_; }
    [[nodiscard]] const std::vector<LoginRecord>& logins() const noexcept { return logins_; }
    [[nodiscard]] std::vector<LoginRecord>& logins() noexcept { return logins_; }
    [[nodiscard]] const std::vector<TransferRecord>& transfers() const noexcept {
        return transfers_;
    }
    [[nodiscard]] std::vector<TransferRecord>& transfers() noexcept { return transfers_; }
    [[nodiscard]] const std::vector<DnRegistrationRecord>& registrations() const noexcept {
        return registrations_;
    }
    [[nodiscard]] std::vector<DnRegistrationRecord>& registrations() noexcept {
        return registrations_;
    }
    [[nodiscard]] const std::vector<DegradationRecord>& degradations() const noexcept {
        return degradations_;
    }
    [[nodiscard]] std::vector<DegradationRecord>& degradations() noexcept { return degradations_; }
    [[nodiscard]] const std::vector<FaultRecord>& fault_events() const noexcept {
        return fault_events_;
    }
    [[nodiscard]] std::vector<FaultRecord>& fault_events() noexcept { return fault_events_; }

    // --- metrics time series (format v6) ------------------------------------
    /// Interns a metric series name, returning its stable id. Ids are
    /// assigned in first-intern order, which the obs sampler keeps
    /// deterministic (registration order of the registry).
    std::uint32_t intern_metric(std::string_view name) {
        for (std::uint32_t i = 0; i < metric_names_.size(); ++i)
            if (metric_names_[i] == name) return i;
        metric_names_.emplace_back(name);
        return static_cast<std::uint32_t>(metric_names_.size() - 1);
    }
    [[nodiscard]] const std::vector<std::string>& metric_names() const noexcept {
        return metric_names_;
    }
    [[nodiscard]] const std::vector<MetricPointRecord>& metric_points() const noexcept {
        return metric_points_;
    }
    [[nodiscard]] std::vector<MetricPointRecord>& metric_points() noexcept {
        return metric_points_;
    }
    /// Restores a loaded name table (trace/serialize only).
    void set_metric_names(std::vector<std::string> names) { metric_names_ = std::move(names); }

    /// Drops every log record (used at the end of a warm-up phase: the
    /// paper's trace is a one-month window of a system that had been running
    /// for years). The metric-name table survives — it is registration
    /// state, not log content — but warm-up sample points are dropped with
    /// everything else.
    void clear() {
        downloads_.clear();
        logins_.clear();
        transfers_.clear();
        registrations_.clear();
        degradations_.clear();
        fault_events_.clear();
        metric_points_.clear();
    }

    /// Total log entries across record kinds (Table 1's "log entries" row).
    /// Degradation telemetry, fault-timeline entries, and metric samples are
    /// deliberately excluded: none has a counterpart in the paper's CN log
    /// schema, and including them would shift the Table-1 comparison
    /// whenever faults are injected or sampling cadence changes.
    [[nodiscard]] std::size_t total_entries() const noexcept {
        return downloads_.size() + logins_.size() + transfers_.size() + registrations_.size();
    }

    /// Emits the download log as TSV (one line per record) for offline
    /// plotting; returns the number of rows written.
    std::size_t write_downloads_tsv(const std::string& path) const;

private:
    std::vector<DownloadRecord> downloads_;
    std::vector<LoginRecord> logins_;
    std::vector<TransferRecord> transfers_;
    std::vector<DnRegistrationRecord> registrations_;
    std::vector<DegradationRecord> degradations_;
    std::vector<FaultRecord> fault_events_;
    std::vector<std::string> metric_names_;
    std::vector<MetricPointRecord> metric_points_;
};

}  // namespace netsession::trace
