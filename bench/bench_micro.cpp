// Hot-path microbenchmarks (google-benchmark): the primitives the simulator
// leans on at scale.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>

#include "analysis/guid_graph.hpp"
#include "analysis/pipeline.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "control/directory.hpp"
#include "net/flow.hpp"
#include "sim/simulator.hpp"
#include "swarm/picker.hpp"
#include "trace/serialize.hpp"
#include "workload/distributions.hpp"

namespace {

using namespace netsession;

void BM_Sha256_1MiB(benchmark::State& state) {
    const std::string data(1 << 20, 'x');
    for (auto _ : state) {
        benchmark::DoNotOptimize(Sha256::hash(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_Sha256_1MiB);

void BM_HmacToken(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(hmac_sha256("edge-secret", "guid|object|expiry"));
    }
}
BENCHMARK(BM_HmacToken);

void BM_RngNext(benchmark::State& state) {
    Rng rng(1);
    for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
    workload::ZipfSampler zipf(static_cast<std::size_t>(state.range(0)), 1.1);
    Rng rng(2);
    for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample)->Arg(100)->Arg(10000);

void BM_EventQueue(benchmark::State& state) {
    for (auto _ : state) {
        sim::Simulator sim;
        Rng rng(3);
        for (int i = 0; i < 1000; ++i)
            sim.schedule_at(sim::SimTime{static_cast<std::int64_t>(rng.below(1'000'000))}, [] {});
        sim.run();
        benchmark::DoNotOptimize(sim.events_dispatched());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void BM_EventChurn(benchmark::State& state) {
    // The engine's worst case: a sustained schedule/cancel/dispatch mix, the
    // pattern flow rescheduling produces at scale. One iteration churns 1M
    // scheduled events with ~25% cancelled before they fire.
    constexpr int kOps = 1'000'000;
    for (auto _ : state) {
        sim::Simulator sim;
        Rng rng(11);
        std::array<sim::EventHandle, 4096> ring{};
        std::size_t head = 0;
        std::int64_t t = 0;
        std::uint64_t fired = 0;
        for (int i = 0; i < kOps; ++i) {
            const std::uint64_t r = rng.next();
            if ((r & 3u) == 0 && ring[head].valid()) sim.cancel(ring[head]);
            ring[head] = sim.schedule_at(sim::SimTime{t + static_cast<std::int64_t>(r % 10'000)},
                                         [&fired] { ++fired; });
            head = (head + 1) % ring.size();
            if ((i & 1023) == 0) {
                t += 1'000;
                sim.run_until(sim::SimTime{t});
            }
        }
        sim.run();
        benchmark::DoNotOptimize(fired);
        benchmark::DoNotOptimize(sim.events_dispatched());
    }
    state.SetItemsProcessed(state.iterations() * kOps);
}
BENCHMARK(BM_EventChurn);

void BM_FlowLifecycle(benchmark::State& state) {
    // Flow start/complete/cancel churn on a random mesh of constrained
    // hosts — exercises adjacency maintenance and the water-fill refills.
    constexpr int kFlows = 10'000;
    for (auto _ : state) {
        sim::Simulator sim;
        net::FlowNetwork net(sim);
        Rng rng(13);
        std::vector<HostId> hosts;
        for (int i = 0; i < 200; ++i)
            hosts.push_back(net.add_host(rng.uniform(1e4, 1e6), rng.uniform(1e4, 1e6)));
        std::vector<net::FlowId> live;
        int done = 0;
        for (int i = 0; i < kFlows; ++i) {
            const auto s = rng.below(hosts.size());
            auto d = rng.below(hosts.size());
            if (d == s) d = (d + 1) % hosts.size();
            live.push_back(net.start_flow(hosts[s], hosts[d],
                                          static_cast<Bytes>(rng.range(10'000, 500'000)),
                                          net::kUnlimited, [&](net::FlowId) { ++done; }));
            if ((i & 3) == 0 && !live.empty()) {
                const auto k = rng.below(live.size());
                net.cancel_flow(live[k]);
                live[k] = live.back();
                live.pop_back();
            }
            if ((i & 63) == 0) sim.run_until(sim.now() + sim::seconds(1.0));
        }
        sim.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * kFlows);
}
BENCHMARK(BM_FlowLifecycle);

void BM_DirectorySelect(benchmark::State& state) {
    control::Directory dir;
    const ObjectId object{1, 1};
    Rng rng(4);
    const auto n = state.range(0);
    for (std::int64_t i = 1; i <= n; ++i) {
        control::PeerDescriptor d;
        d.guid = Guid{static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i)};
        d.host = HostId{static_cast<std::uint32_t>(i)};
        d.asn = Asn{static_cast<std::uint32_t>(10 + i % 50)};
        d.country = CountryId{static_cast<std::uint16_t>(i % 20)};
        d.continent = static_cast<net::Continent>(i % 6);
        d.nat = static_cast<net::NatType>(rng.below(net::kNatTypeCount));
        dir.add(object, d);
    }
    control::PeerDescriptor requester;
    requester.guid = Guid{999999, 999999};
    requester.asn = Asn{12};
    requester.country = CountryId{2};
    requester.continent = net::Continent::europe;
    requester.nat = net::NatType::full_cone;
    const control::SelectionPolicy policy;
    for (auto _ : state) {
        benchmark::DoNotOptimize(dir.select(object, requester, 40, policy, rng));
    }
}
BENCHMARK(BM_DirectorySelect)->Arg(100)->Arg(1000)->Arg(10000);

void BM_FlowChurn(benchmark::State& state) {
    // Start/finish flows against a hub with many spokes — the reallocation
    // hot path.
    for (auto _ : state) {
        sim::Simulator sim;
        net::FlowNetwork net(sim);
        const HostId hub = net.add_host(1e6, 1e6);
        std::vector<HostId> spokes;
        for (int i = 0; i < 50; ++i) spokes.push_back(net.add_host(1e5, 1e5));
        int done = 0;
        for (int i = 0; i < 200; ++i)
            net.start_flow(hub, spokes[static_cast<std::size_t>(i) % spokes.size()], 50000,
                           net::kUnlimited, [&](net::FlowId) { ++done; });
        sim.run();
        benchmark::DoNotOptimize(done);
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_FlowChurn);

void BM_PiecePick(benchmark::State& state) {
    swarm::PiecePicker picker(128);
    swarm::PieceMap local(128);
    const auto remote = swarm::PieceMap::full(128);
    Rng rng(5);
    for (int i = 0; i < 64; ++i) local.set(static_cast<swarm::PieceIndex>(i * 2));
    for (auto _ : state) benchmark::DoNotOptimize(picker.pick_from_peer(local, remote, rng));
}
BENCHMARK(BM_PiecePick);

void BM_GuidGraphClassify(benchmark::State& state) {
    // 200 installations x 30 login reports each.
    trace::TraceLog log;
    Rng rng(7);
    for (int g = 0; g < 200; ++g) {
        const Guid guid{static_cast<std::uint64_t>(g + 1), 1};
        for (int start = 1; start <= 30; ++start) {
            trace::LoginRecord r;
            r.guid = guid;
            for (int i = 0; i < 5 && start - i >= 1; ++i)
                r.secondary_guids[static_cast<std::size_t>(i)] =
                    SecondaryGuid{static_cast<std::uint64_t>(g + 1),
                                  static_cast<std::uint64_t>(start - i)};
            log.add(r);
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::classify_guid_graphs(log));
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_GuidGraphClassify);

/// A dense synthetic dataset exercising every measurement: logins with
/// secondary-GUID chains, a zipf-ish object mix of downloads, p2p transfers
/// between geolocated peers.
trace::Dataset synthetic_analysis_dataset(int peers, int downloads_per_peer) {
    trace::Dataset dataset;
    Rng rng(17);
    std::vector<net::IpAddr> ips;
    ips.reserve(static_cast<std::size_t>(peers));
    for (int p = 0; p < peers; ++p) {
        const auto u = static_cast<std::uint64_t>(p + 1);
        const Guid guid{u, 77};
        const net::IpAddr ip{0x0A000000u + static_cast<std::uint32_t>(u)};
        ips.push_back(ip);

        net::GeoRecord geo;
        geo.location.country = CountryId{static_cast<std::uint16_t>(p % 40)};
        geo.location.point = {rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)};
        geo.asn = Asn{static_cast<std::uint32_t>(100 + p % 64)};
        dataset.geodb.register_ip(ip, geo);

        trace::LoginRecord login;
        login.guid = guid;
        login.ip = ip;
        login.time = sim::SimTime{static_cast<std::int64_t>(p) * 1000};
        login.uploads_enabled = (p % 3) != 0;
        for (std::size_t i = 0; i < 5; ++i)
            login.secondary_guids[i] = SecondaryGuid{u, 5 - i};
        dataset.log.add(login);

        for (int d = 0; d < downloads_per_peer; ++d) {
            trace::DownloadRecord rec;
            rec.guid = guid;
            rec.object = ObjectId{1 + rng.next() % 500, 1};
            rec.url_hash = rec.object.hi;
            rec.object_size = static_cast<Bytes>(rng.range(1'000'000, 1'000'000'000));
            rec.start = login.time;
            rec.end = rec.start + sim::seconds(rng.uniform(10.0, 3600.0));
            rec.p2p_enabled = (d % 4) != 0;
            rec.bytes_from_peers = rec.p2p_enabled ? rec.object_size / 2 : 0;
            rec.bytes_from_infrastructure = rec.object_size - rec.bytes_from_peers;
            rec.cp_code = CpCode{static_cast<std::uint32_t>(1 + d % 3)};
            rec.peers_initially_returned = static_cast<int>(rng.below(41));
            rec.outcome = trace::DownloadOutcome::completed;
            dataset.log.add(rec);

            if (rec.p2p_enabled && p > 0) {
                trace::TransferRecord t;
                t.object = rec.object;
                t.from_guid = Guid{1 + rng.next() % u, 77};
                t.to_guid = guid;
                t.from_ip = ips[static_cast<std::size_t>(t.from_guid.hi - 1)];
                t.to_ip = ip;
                t.bytes = rec.bytes_from_peers;
                t.time = rec.end;
                dataset.log.add(t);

                trace::DnRegistrationRecord reg;
                reg.object = rec.object;
                reg.guid = guid;
                reg.time = rec.end;
                dataset.log.add(reg);
            }
        }
    }
    return dataset;
}

void BM_MeasurementPipeline(benchmark::State& state) {
    // The full §4-§6 measurement pipeline over a multi-chunk dataset — the
    // pass the parallel runtime (common/parallel.hpp) exists to speed up.
    const trace::Dataset dataset = synthetic_analysis_dataset(2000, 10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::fingerprint(analysis::run_full_pipeline(dataset)));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dataset.log.total_entries()));
}
BENCHMARK(BM_MeasurementPipeline);

void BM_DatasetLoad(benchmark::State& state) {
    // Cached-dataset load: the fread path every fig/table bench and nstrace
    // take to read a saved trace.
    const trace::Dataset dataset = synthetic_analysis_dataset(2000, 10);
    const std::string path = "/tmp/bench_dataset_load.nstrace";
    if (!trace::save_dataset(dataset, path)) {
        state.SkipWithError("save_dataset failed");
        return;
    }
    for (auto _ : state) {
        trace::Dataset loaded;
        benchmark::DoNotOptimize(trace::load_dataset(loaded, path));
        benchmark::DoNotOptimize(loaded.log.total_entries());
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dataset.log.total_entries()));
}
BENCHMARK(BM_DatasetLoad);

void BM_TraceSerializeRoundTrip(benchmark::State& state) {
    trace::Dataset dataset;
    Rng rng(9);
    for (int i = 0; i < 5000; ++i) {
        trace::DownloadRecord d;
        d.guid = Guid{rng.next(), rng.next()};
        d.object = ObjectId{rng.next(), rng.next()};
        d.object_size = 100_MB;
        dataset.log.add(d);
    }
    const std::string path = "/tmp/bench_roundtrip.nstrace";
    for (auto _ : state) {
        benchmark::DoNotOptimize(trace::save_dataset(dataset, path));
        trace::Dataset loaded;
        benchmark::DoNotOptimize(trace::load_dataset(loaded, path));
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(state.iterations() * 5000);
}
BENCHMARK(BM_TraceSerializeRoundTrip);

}  // namespace

BENCHMARK_MAIN();
