// Sampler cadence, v6 metric-record round trips, and the byte-identity
// guarantee for sampled runs.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>

#include "core/simulation.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "sim/simulator.hpp"
#include "trace/serialize.hpp"
#include "trace/trace_log.hpp"

namespace netsession::obs {
namespace {

struct Fixture {
    sim::Simulator sim;
    trace::TraceLog log;
    Registry registry;
    Counter events;

    Fixture() { registry.add_counter("test.events", &events); }
};

TEST(Sampler, TakesOneSamplePerIntervalPlusClosingSample) {
    Fixture f;
    SamplerConfig config;
    config.interval = sim::hours(1.0);
    Sampler sampler(f.sim, f.registry, f.log, config);
    // Ticks fire at 1h..9h; the 10h tick lands at `until` and becomes the
    // closing sample, for 10 total.
    sampler.start(sim::SimTime{} + sim::hours(10.0));
    f.sim.run();
    sampler.finish();  // already closed by the 10h tick — must not duplicate
    EXPECT_EQ(sampler.samples_taken(), 10u);
    EXPECT_EQ(f.log.metric_points().size(), 10u);
    ASSERT_EQ(f.log.metric_names().size(), 1u);
    EXPECT_EQ(f.log.metric_names()[0], "test.events");
    // Snapshots carry the counter value at their sample time.
    EXPECT_EQ(f.log.metric_points().front().time, sim::SimTime{} + sim::hours(1.0));
    EXPECT_EQ(f.log.metric_points().back().time, sim::SimTime{} + sim::hours(10.0));
}

TEST(Sampler, FinishClosesRunsWhoseCadenceMissesTheWindowEnd) {
    Fixture f;
    SamplerConfig config;
    config.interval = sim::hours(4.0);
    Sampler sampler(f.sim, f.registry, f.log, config);
    sampler.start(sim::SimTime{} + sim::hours(10.0));
    f.sim.run_until(sim::SimTime{} + sim::hours(10.0));
    // Ticks at 4h and 8h; the 12h tick never fires inside the window, so the
    // explicit finish() supplies the 10h closing sample.
    EXPECT_EQ(sampler.samples_taken(), 2u);
    sampler.finish();
    sampler.finish();
    EXPECT_EQ(sampler.samples_taken(), 3u) << "finish() is idempotent";
}

TEST(Sampler, HistogramsExpandIntoCountAndSumSeries) {
    Fixture f;
    Histogram h;
    h.record(100.0);
    h.record(300.0);
    f.registry.add_histogram("test.sizes", &h);
    SamplerConfig config;
    Sampler sampler(f.sim, f.registry, f.log, config);
    sampler.sample_now();
    const auto& names = f.log.metric_names();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "test.events");
    EXPECT_EQ(names[1], "test.sizes.count");
    EXPECT_EQ(names[2], "test.sizes.sum");
    ASSERT_EQ(f.log.metric_points().size(), 3u);
    EXPECT_DOUBLE_EQ(f.log.metric_points()[1].value, 2.0);
    EXPECT_DOUBLE_EQ(f.log.metric_points()[2].value, 400.0);
}

TEST(Sampler, WarmupClearKeepsNamesDropsPoints) {
    // UserDriver::run() clears the trace at the warm-up boundary. Interned
    // series ids must survive that clear or every post-warm-up point would
    // dangle.
    Fixture f;
    SamplerConfig config;
    Sampler sampler(f.sim, f.registry, f.log, config);
    sampler.sample_now();
    ASSERT_FALSE(f.log.metric_points().empty());
    f.log.clear();
    EXPECT_TRUE(f.log.metric_points().empty());
    ASSERT_EQ(f.log.metric_names().size(), 1u) << "name table survives the warm-up clear";
    sampler.sample_now();
    EXPECT_EQ(f.log.metric_points().size(), 1u);
    EXPECT_EQ(f.log.metric_points()[0].metric, 0u) << "same interned id after clear";
}

TEST(Sampler, MetricSectionRoundTripsThroughSerialization) {
    Fixture f;
    f.events.inc(7);
    SamplerConfig config;
    config.interval = sim::hours(2.0);
    Sampler sampler(f.sim, f.registry, f.log, config);
    sampler.start(sim::SimTime{} + sim::hours(6.0));
    f.sim.run();

    trace::Dataset original;
    original.log = f.log;
    const std::string path = ::testing::TempDir() + "/metrics_roundtrip.nstrace";
    ASSERT_TRUE(trace::save_dataset(original, path));
    trace::Dataset loaded;
    ASSERT_TRUE(trace::load_dataset(loaded, path));

    ASSERT_EQ(loaded.log.metric_names(), original.log.metric_names());
    const auto& a = original.log.metric_points();
    const auto& b = loaded.log.metric_points();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].metric, b[i].metric);
        EXPECT_EQ(a[i].value, b[i].value) << "bit-exact doubles, not approximate";
    }
    std::filesystem::remove(path);
}

TEST(Sampler, SampledRunsAreByteIdenticalForSameSeed) {
    // The byte-identity contract (docs/SIMULATOR.md §3) extends to the v6
    // metrics section: sampling is driven purely by simulated time and the
    // registry, so two identical runs serialize identically.
    SimulationConfig config;
    config.seed = 1234;
    config.peers = 200;
    config.behavior.warmup = sim::days(1.0);
    config.behavior.window = sim::days(1.0);
    config.behavior.downloads_per_peer_per_month = 25.0;
    config.as_graph.total_ases = 200;

    const auto run_once = [&](const std::string& path) {
        Simulation s(config);
        s.run();
        EXPECT_FALSE(s.trace().metric_points().empty()) << "sampler must have run";
        trace::Dataset dataset;
        dataset.log = s.trace();
        ASSERT_TRUE(trace::save_dataset(dataset, path));
    };
    const auto dir = std::filesystem::temp_directory_path();
    const std::string path_a = (dir / "ns_sampled_a.nstrace").string();
    const std::string path_b = (dir / "ns_sampled_b.nstrace").string();
    run_once(path_a);
    run_once(path_b);
    const auto read_all = [](const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    EXPECT_TRUE(read_all(path_a) == read_all(path_b))
        << "sampled traces differ between identical runs";
    std::filesystem::remove(path_a);
    std::filesystem::remove(path_b);
}

TEST(Sampler, SimulationSamplesDomainMetricsOnly) {
    // The trace carries what the deployment did, never how the simulator
    // did it: engine, flow-solver and memory counters stay out of the
    // sampled registry, so a layout or bookkeeping change cannot move a
    // trace byte.
    SimulationConfig config;
    config.seed = 3;
    config.peers = 50;
    config.as_graph.total_ases = 200;
    Simulation s(config);
    ASSERT_GT(s.metrics().size(), 0u);
    for (const auto& e : s.metrics().entries()) {
        const std::string_view name = e.name;
        EXPECT_TRUE(name.starts_with("control.") || name.starts_with("edge.") ||
                    name.starts_with("client.") || name.starts_with("driver.") ||
                    name.starts_with("fault."))
            << name << " is not a domain metric";
    }
}

}  // namespace
}  // namespace netsession::obs
