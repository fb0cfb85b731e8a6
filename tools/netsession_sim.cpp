// netsession_sim — run NetSession deployments from scenario files.
//
//   netsession_sim template <scenario.ini>          write a commented template
//   netsession_sim run <scenario.ini> [out.nstrace] run it; optionally save
//                                                   the trace data set
//
// The saved .nstrace can be inspected with `nstrace` or fed to the analysis
// pipeline.
#include <cstdio>
#include <string>

#include "analysis/measurement.hpp"
#include "common/format.hpp"
#include "core/scenario_io.hpp"
#include "trace/serialize.hpp"

namespace {

using namespace netsession;

int usage() {
    std::fprintf(stderr, "usage: netsession_sim template <scenario.ini>\n"
                         "       netsession_sim run <scenario.ini> [out.nstrace]\n");
    return 2;
}

int cmd_run(const std::string& scenario_path, const std::string& out_path) {
    auto loaded = load_scenario(scenario_path);
    if (!loaded) {
        std::fprintf(stderr, "netsession_sim: %s\n", loaded.error().message.c_str());
        return 1;
    }
    const SimulationConfig config = loaded.value();
    std::printf("Scenario %s:\n%s\n", scenario_path.c_str(),
                describe_scenario(config).c_str());

    Simulation sim(config);
    sim.run();

    const auto& log = sim.trace();
    std::printf("Trace: %zu entries (%zu downloads, %zu logins, %zu transfers)\n",
                log.total_entries(), log.downloads().size(), log.logins().size(),
                log.transfers().size());
    const auto headline = analysis::headline_offload(log);
    std::printf("Peer efficiency %s, offload %s, p2p files %s\n",
                format_percent(headline.mean_peer_efficiency).c_str(),
                format_percent(headline.overall_offload).c_str(),
                format_percent(headline.p2p_enabled_file_fraction).c_str());
    const auto outcomes = analysis::outcome_stats(log);
    std::printf("Completion %s over %s terminal downloads\n",
                format_percent(outcomes.all.completed).c_str(),
                format_count(outcomes.all.n).c_str());

    if (!out_path.empty()) {
        if (!trace::save_dataset(log, sim.geodb(), out_path)) {
            std::fprintf(stderr, "netsession_sim: cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::printf("Saved trace data set to %s (inspect with nstrace)\n", out_path.c_str());
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string command = argv[1];
    if (command == "template") {
        if (!write_scenario_template(argv[2])) {
            std::fprintf(stderr, "netsession_sim: cannot write %s\n", argv[2]);
            return 1;
        }
        std::printf("Wrote scenario template to %s\n", argv[2]);
        return 0;
    }
    if (command == "run") return cmd_run(argv[2], argc > 3 ? argv[3] : "");
    return usage();
}
