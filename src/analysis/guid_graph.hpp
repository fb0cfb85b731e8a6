// Secondary-GUID graph analysis (paper §6.2, Fig 12).
//
// Each client start picks a fresh secondary GUID and the last five are
// reported at login. Grouping reports by primary GUID and linking successive
// secondary GUIDs yields, for a healthy installation, a linear chain
// (1 → 2 → 3 → ...). Branches indicate the installation was rolled back to an
// earlier state (failed update, restored backup) or cloned/re-imaged.
#pragma once

#include <cstdint>
#include <string_view>

#include "analysis/login_index.hpp"
#include "trace/trace_log.hpp"

namespace netsession::analysis {

enum class GuidGraphPattern : std::uint8_t {
    linear_chain,        // expected for normal installations (99.4% in the paper)
    long_plus_short,     // one long branch + a single one-vertex branch (46.2% of trees)
    two_long_branches,   // e.g. a restored backup (6.2%)
    several_branches,    // re-imaging / cloning, e.g. internet cafes (23.5%)
    irregular,           // everything else
};

[[nodiscard]] constexpr std::string_view to_string(GuidGraphPattern p) noexcept {
    switch (p) {
        case GuidGraphPattern::linear_chain: return "linear_chain";
        case GuidGraphPattern::long_plus_short: return "long_plus_short";
        case GuidGraphPattern::two_long_branches: return "two_long_branches";
        case GuidGraphPattern::several_branches: return "several_branches";
        case GuidGraphPattern::irregular: return "irregular";
    }
    return "unknown";
}

struct GuidGraphStats {
    /// Graphs with at least three vertices, as in the paper.
    std::int64_t graphs = 0;
    std::int64_t linear_chains = 0;
    std::int64_t long_plus_short = 0;
    std::int64_t two_long_branches = 0;
    std::int64_t several_branches = 0;
    std::int64_t irregular = 0;

    [[nodiscard]] std::int64_t trees() const noexcept { return graphs - linear_chains; }
    [[nodiscard]] double linear_fraction() const noexcept {
        return graphs == 0 ? 0.0
                           : static_cast<double>(linear_chains) / static_cast<double>(graphs);
    }
};

/// Builds and classifies the per-primary-GUID secondary graphs, one per
/// GUID history of the index.
[[nodiscard]] GuidGraphStats classify_guid_graphs(const LoginIndex& logins);

/// The same, from the login log (builds the LoginIndex).
[[nodiscard]] GuidGraphStats classify_guid_graphs(const trace::TraceLog& log);

}  // namespace netsession::analysis
