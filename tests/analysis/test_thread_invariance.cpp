// The determinism contract of the parallel analysis runtime, end to end:
// the full measurement pipeline must produce bitwise-identical results for
// every thread count (docs/PARALLELISM.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/pipeline.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace netsession {
namespace {

struct ThreadCountGuard {
    ~ThreadCountGuard() { parallel::set_thread_count(0); }
};

/// A dataset big enough that every record scan spans multiple chunks (the
/// regime where a merge-order bug would actually change results).
trace::Dataset synthetic_dataset() {
    trace::Dataset dataset;
    Rng rng(23);
    const int peers = 1500;
    const int downloads_per_peer = 20;  // 30k downloads >> kGrain
    std::vector<net::IpAddr> ips;
    for (int p = 0; p < peers; ++p) {
        const auto u = static_cast<std::uint64_t>(p + 1);
        const Guid guid{u, 3};
        const net::IpAddr ip{0x0A000000u + static_cast<std::uint32_t>(u)};
        ips.push_back(ip);
        dataset.geodb.register_ip(
            ip, net::GeoRecord{net::Location{CountryId{static_cast<std::uint16_t>(p % 30)},
                                             static_cast<std::uint32_t>(p % 5),
                                             {rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)}},
                               Asn{static_cast<std::uint32_t>(100 + p % 40)}});

        trace::LoginRecord login;
        login.guid = guid;
        login.ip = ip;
        login.time = sim::SimTime{static_cast<std::int64_t>(p) * 1000};
        login.uploads_enabled = (p % 3) != 0;
        for (std::size_t i = 0; i < 5; ++i) login.secondary_guids[i] = SecondaryGuid{u, 5 - i};
        dataset.log.add(login);

        for (int d = 0; d < downloads_per_peer; ++d) {
            trace::DownloadRecord rec;
            rec.guid = guid;
            rec.object = ObjectId{1 + rng.next() % 400, 1};
            rec.url_hash = rec.object.hi;
            rec.object_size = static_cast<Bytes>(rng.range(1'000'000, 500'000'000));
            rec.start = login.time;
            rec.end = rec.start + sim::seconds(rng.uniform(5.0, 1000.0));
            rec.p2p_enabled = (d % 4) != 0;
            rec.bytes_from_peers = rec.p2p_enabled ? rec.object_size / 3 : 0;
            rec.bytes_from_infrastructure = rec.object_size - rec.bytes_from_peers;
            rec.cp_code = CpCode{static_cast<std::uint32_t>(1 + d % 4)};
            rec.peers_initially_returned = static_cast<int>(rng.below(41));
            rec.outcome = trace::DownloadOutcome::completed;
            dataset.log.add(rec);

            if (rec.p2p_enabled && p > 0) {
                trace::TransferRecord t;
                t.object = rec.object;
                t.from_guid = Guid{1 + rng.next() % u, 3};
                t.to_guid = guid;
                t.from_ip = ips[static_cast<std::size_t>(t.from_guid.hi - 1)];
                t.to_ip = ip;
                t.bytes = rec.bytes_from_peers;
                t.time = rec.end;
                dataset.log.add(t);
            }
        }
    }
    return dataset;
}

TEST(ThreadInvariance, PipelineFingerprintIdenticalAcrossThreadCounts) {
    ThreadCountGuard guard;
    const trace::Dataset dataset = synthetic_dataset();
    ASSERT_GT(dataset.log.downloads().size(), 2 * parallel::detail::kGrain)
        << "dataset must span multiple chunks for this test to mean anything";

    parallel::set_thread_count(1);
    const analysis::PipelineResult serial = analysis::run_full_pipeline(dataset);
    const std::uint64_t serial_fp = analysis::fingerprint(serial);

    for (const int threads : {2, 8}) {
        parallel::set_thread_count(threads);
        const analysis::PipelineResult result = analysis::run_full_pipeline(dataset);
        EXPECT_EQ(analysis::fingerprint(result), serial_fp) << "threads=" << threads;
        // Spot-check a float-heavy output directly so a fingerprint bug
        // can't mask a real divergence.
        EXPECT_EQ(result.workload.size_all.samples(), serial.workload.size_all.samples())
            << "threads=" << threads;
        EXPECT_EQ(result.headline.mean_peer_efficiency, serial.headline.mean_peer_efficiency)
            << "threads=" << threads;
    }
}

TEST(ThreadInvariance, FingerprintDetectsChangedResults) {
    ThreadCountGuard guard;
    parallel::set_thread_count(2);
    const trace::Dataset dataset = synthetic_dataset();
    analysis::PipelineResult a = analysis::run_full_pipeline(dataset);
    const std::uint64_t fp = analysis::fingerprint(a);
    a.headline.mean_peer_efficiency += 1e-12;
    EXPECT_NE(analysis::fingerprint(a), fp) << "fingerprint must see single-bit changes";
}

TEST(ThreadInvariance, ParallelMetricsRegisterAndRead) {
    // The pool's counters (perfbench's parallel.* metrics) record a pipeline
    // pass: the configured thread count, pooled jobs and ordered merges.
    ThreadCountGuard guard;
    parallel::set_thread_count(3);
    parallel::reset_stats();
    EXPECT_EQ(parallel::stats().threads, 3);
    EXPECT_EQ(parallel::stats().jobs, 0u);

    const trace::Dataset dataset = synthetic_dataset();
    (void)analysis::run_full_pipeline(dataset);
    const parallel::StatsSnapshot after = parallel::stats();
    EXPECT_EQ(after.threads, 3);
    EXPECT_GT(after.jobs, 0u);
    EXPECT_GT(after.chunks, 0u);
    EXPECT_GT(after.merges, 0u);
}

}  // namespace
}  // namespace netsession
