#include "core/scenario_io.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>

#include "net/world_data.hpp"

namespace netsession {

namespace {

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos) return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

bool parse_bool(const std::string& v, bool& out) {
    if (v == "true" || v == "1" || v == "yes") {
        out = true;
        return true;
    }
    if (v == "false" || v == "0" || v == "no") {
        out = false;
        return true;
    }
    return false;
}

/// One settable knob: how to apply a value string, and how to print it.
struct Knob {
    std::function<bool(SimulationConfig&, const std::string&)> set;
    std::function<std::string(const SimulationConfig&)> get;
    const char* comment;
};

template <typename Get, typename Set>
Knob double_knob(Get get, Set set, const char* comment) {
    return Knob{[set](SimulationConfig& c, const std::string& v) {
                    try {
                        std::size_t used = 0;
                        const double d = std::stod(v, &used);
                        if (used != v.size()) return false;
                        set(c, d);
                        return true;
                    } catch (...) {
                        return false;
                    }
                },
                [get](const SimulationConfig& c) {
                    char buf[48];
                    std::snprintf(buf, sizeof(buf), "%g", get(c));
                    return std::string(buf);
                },
                comment};
}

/// A whole-number knob: the value must be a plain decimal integer in
/// [lo, hi], and prints back exactly. Parsing through double would round
/// values above 2^53, and a float-to-integer cast of an out-of-range value is
/// undefined; from_chars takes a '-' only for signed fields.
template <typename Get, typename Set,
          typename T = std::invoke_result_t<Get, const SimulationConfig&>>
Knob int_knob(Get get, Set set, std::type_identity_t<T> lo, std::type_identity_t<T> hi,
              const char* comment) {
    return Knob{[set, lo, hi](SimulationConfig& c, const std::string& v) {
                    T x{};
                    const char* end = v.data() + v.size();
                    const auto [ptr, ec] = std::from_chars(v.data(), end, x);
                    if (ec != std::errc{} || ptr != end || x < lo || x > hi) return false;
                    set(c, x);
                    return true;
                },
                [get](const SimulationConfig& c) { return std::to_string(get(c)); },
                comment};
}

template <typename Get, typename Set>
Knob bool_knob(Get get, Set set, const char* comment) {
    return Knob{[set](SimulationConfig& c, const std::string& v) {
                    bool b = false;
                    if (!parse_bool(v, b)) return false;
                    set(c, b);
                    return true;
                },
                [get](const SimulationConfig& c) {
                    return std::string(get(c) ? "true" : "false");
                },
                comment};
}

const std::map<std::string, Knob>& knobs() {
    constexpr int kMaxInt = std::numeric_limits<int>::max();
    static const std::map<std::string, Knob> table = {
        {"seed", int_knob([](const SimulationConfig& c) { return c.seed; },
                          [](SimulationConfig& c, std::uint64_t v) { c.seed = v; }, 0,
                          std::numeric_limits<std::uint64_t>::max(),
                          "master seed; every random stream derives from it")},
        {"peers", int_knob([](const SimulationConfig& c) { return c.peers; },
                           [](SimulationConfig& c, int v) { c.peers = v; }, 0, kMaxInt,
                           "peer population size")},
        {"window_days",
         double_knob([](const SimulationConfig& c) { return c.behavior.window.seconds() / 86400; },
                     [](SimulationConfig& c, double v) { c.behavior.window = sim::days(v); },
                     "measurement window length")},
        {"warmup_days",
         double_knob([](const SimulationConfig& c) { return c.behavior.warmup.seconds() / 86400; },
                     [](SimulationConfig& c, double v) { c.behavior.warmup = sim::days(v); },
                     "warm-up before the trace window (swarms form, trace discarded)")},
        {"downloads_per_peer_per_month",
         double_knob(
             [](const SimulationConfig& c) { return c.behavior.downloads_per_peer_per_month; },
             [](SimulationConfig& c, double v) { c.behavior.downloads_per_peer_per_month = v; },
             "download demand intensity")},
        {"sessions_per_day",
         double_knob([](const SimulationConfig& c) { return c.behavior.sessions_per_day; },
                     [](SimulationConfig& c, double v) { c.behavior.sessions_per_day = v; },
                     "mean machine sessions per day")},
        {"frac_always_on",
         double_knob([](const SimulationConfig& c) { return c.behavior.frac_always_on; },
                     [](SimulationConfig& c, double v) { c.behavior.frac_always_on = v; },
                     "share of machines logged in ~around the clock")},
        {"attacker_fraction",
         double_knob([](const SimulationConfig& c) { return c.behavior.attacker_fraction; },
                     [](SimulationConfig& c, double v) { c.behavior.attacker_fraction = v; },
                     "share of peers submitting inflated usage reports")},
        {"total_ases",
         // Every country needs an AS; every AS needs a /12 address block.
         int_knob([](const SimulationConfig& c) { return c.as_graph.total_ases; },
                  [](SimulationConfig& c, int v) { c.as_graph.total_ases = v; },
                  static_cast<int>(net::countries().size()), net::AsGraphConfig::kMaxAses,
                  "autonomous systems in the synthetic topology")},
        {"tail_providers",
         int_knob([](const SimulationConfig& c) { return c.tail_providers; },
                  [](SimulationConfig& c, int v) { c.tail_providers = v; }, 0, kMaxInt,
                  "minor content providers beyond the ten majors")},
        {"max_pieces",
         int_knob([](const SimulationConfig& c) { return c.max_pieces; },
                  [](SimulationConfig& c, std::uint32_t v) { c.max_pieces = v; }, 1,
                  std::numeric_limits<std::uint32_t>::max(),
                  "piece-count cap per object (simulation granularity)")},
        {"max_peers_returned",
         int_knob([](const SimulationConfig& c) { return c.control.max_peers_returned; },
                  [](SimulationConfig& c, int v) { c.control.max_peers_returned = v; }, 0,
                  kMaxInt, "DN answer size cap (paper: 40)")},
        {"cross_region_threshold",
         int_knob([](const SimulationConfig& c) { return c.control.cross_region_threshold; },
                  [](SimulationConfig& c, int v) { c.control.cross_region_threshold = v; }, 0,
                  kMaxInt, "widen DN search below this local answer size (0 = strict local)")},
        {"max_peer_sources",
         int_knob([](const SimulationConfig& c) { return c.client.max_peer_sources; },
                  [](SimulationConfig& c, int v) { c.client.max_peer_sources = v; }, 0, kMaxInt,
                  "concurrent p2p sources per download")},
        {"max_upload_connections",
         int_knob([](const SimulationConfig& c) { return c.client.max_upload_connections; },
                  [](SimulationConfig& c, int v) { c.client.max_upload_connections = v; }, 0,
                  kMaxInt, "concurrent upload connections per peer")},
        {"cache_retention_days",
         double_knob(
             [](const SimulationConfig& c) { return c.client.cache_retention.seconds() / 86400; },
             [](SimulationConfig& c, double v) { c.client.cache_retention = sim::days(v); },
             "how long completed downloads stay shareable")},
        {"disable_p2p", bool_knob([](const SimulationConfig& c) { return c.disable_p2p; },
                                  [](SimulationConfig& c, bool v) { c.disable_p2p = v; },
                                  "true = infrastructure-only baseline")},
        {"random_selection",
         bool_knob(
             [](const SimulationConfig& c) {
                 return c.control.selection.strategy ==
                        control::SelectionPolicy::Strategy::random;
             },
             [](SimulationConfig& c, bool v) {
                 c.control.selection.strategy = v ? control::SelectionPolicy::Strategy::random
                                                  : control::SelectionPolicy::Strategy::locality_aware;
             },
             "true = tracker-style random peer selection (ablation)")},
    };
    return table;
}

}  // namespace

Result<SimulationConfig> parse_scenario(const std::string& text) {
    SimulationConfig config;
    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        line = trim(line);
        if (line.empty()) continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return Error{Error::Code::invalid_argument,
                         "line " + std::to_string(line_no) + ": expected key = value"};
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key == "fault") {
            // Repeated key: each line appends one event to the fault plan.
            auto event = fault::parse_fault_event(value);
            if (!event)
                return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                                ": " + event.error().message};
            config.faults.events.push_back(event.value());
            continue;
        }
        if (key == "campaign") {
            // Repeated key: each line declares one chaos campaign, expanded
            // deterministically into fault events when the run starts.
            auto spec = fault::parse_campaign(value);
            if (!spec)
                return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                                ": " + spec.error().message};
            config.campaigns.push_back(spec.value());
            continue;
        }
        const auto it = knobs().find(key);
        if (it == knobs().end())
            return Error{Error::Code::invalid_argument,
                         "line " + std::to_string(line_no) + ": unknown key '" + key + "'"};
        if (!it->second.set(config, value))
            return Error{Error::Code::invalid_argument, "line " + std::to_string(line_no) +
                                                            ": bad value '" + value + "' for '" +
                                                            key + "'"};
    }
    return config;
}

Result<SimulationConfig> load_scenario(const std::string& path) {
    std::ifstream in(path);
    if (!in)
        return Error{Error::Code::not_found, "cannot open scenario file '" + path + "'"};
    std::ostringstream text;
    text << in.rdbuf();
    return parse_scenario(text.str());
}

std::string describe_scenario(const SimulationConfig& config) {
    std::string out = "# NetSession scenario\n";
    for (const auto& [key, knob] : knobs())
        out += key + " = " + knob.get(config) + "  # " + knob.comment + "\n";
    if (!config.faults.empty()) {
        out += "# fault timeline (docs/ROBUSTNESS.md); times in days from t=0\n";
        for (const auto& event : config.faults.events)
            out += "fault = " + fault::to_string(event) + "\n";
    }
    if (!config.campaigns.empty()) {
        out += "# chaos campaigns (docs/ROBUSTNESS.md); expanded from each seed at run start\n";
        for (const auto& spec : config.campaigns)
            out += "campaign = " + fault::to_string(spec) + "\n";
    }
    return out;
}

bool write_scenario_template(const std::string& path) {
    std::ofstream out(path);
    if (!out) return false;
    out << describe_scenario(SimulationConfig{});
    return static_cast<bool>(out);
}

}  // namespace netsession
