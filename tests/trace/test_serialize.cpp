// Dataset (de)serialisation round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

#include "net/world_data.hpp"
#include "trace/serialize.hpp"

namespace netsession::trace {
namespace {

constexpr std::size_t kSampleGeoEntries = 65;

Dataset sample_dataset() {
    Dataset d;
    DownloadRecord dl;
    dl.guid = Guid{1, 2};
    dl.object = ObjectId{3, 4};
    dl.url_hash = 99;
    dl.cp_code = CpCode{1000};
    dl.object_size = 123_MB;
    dl.start = sim::SimTime{1};
    dl.end = sim::SimTime{2};
    dl.bytes_from_infrastructure = 23_MB;
    dl.bytes_from_peers = 100_MB;
    dl.p2p_enabled = true;
    dl.peers_initially_returned = 7;
    dl.outcome = DownloadOutcome::completed;
    d.log.add(dl);

    LoginRecord login;
    login.guid = dl.guid;
    login.ip = net::IpAddr{0x0A000001};
    login.software_version = 80;
    login.uploads_enabled = true;
    login.cn = CnId{3};
    login.time = sim::SimTime{5};
    login.secondary_guids[0] = SecondaryGuid{7, 8};
    d.log.add(login);

    TransferRecord t;
    t.object = dl.object;
    t.from_guid = Guid{9, 9};
    t.to_guid = dl.guid;
    t.from_ip = net::IpAddr{0x0A000002};
    t.to_ip = login.ip;
    t.bytes = 55;
    t.time = sim::SimTime{6};
    d.log.add(t);

    d.log.add(DnRegistrationRecord{dl.object, dl.guid, sim::SimTime{7}});
    d.log.add(DegradationRecord{dl.guid, sim::SimTime{10}, DegradationKind::peer_stall});

    FaultRecord fault;
    fault.time = sim::SimTime{11};
    fault.param = 0.25;
    fault.asn = 3;
    fault.index = 2;
    fault.kind = 4;
    fault.phase = 1;
    fault.region = 6;
    d.log.add(fault);

    // v6 metrics section: one interned series with two samples.
    const std::uint32_t metric = d.log.intern_metric("edge.bytes_served");
    d.log.add(MetricPointRecord{sim::SimTime{8}, 1.5, metric, 0});
    d.log.add(MetricPointRecord{sim::SimTime{9}, 2.25, metric, 0});

    d.geodb.register_ip(login.ip,
                        net::GeoRecord{net::Location{CountryId{17}, 4, {48.1, 11.5}}, Asn{1001}});
    // Enough further entries that the geo table spans several hash buckets.
    const auto countries = static_cast<std::uint32_t>(net::countries().size());
    for (std::uint32_t i = 1; i < kSampleGeoEntries; ++i) {
        const CountryId country{static_cast<std::uint16_t>(i % countries)};
        d.geodb.register_ip(net::IpAddr{0x0B000000u + i * 7919u},
                            net::GeoRecord{net::Location{country, i, {0.5 * i, -0.25 * i}},
                                           Asn{2000 + i}});
    }
    return d;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Serialize, RoundTripPreservesEverything) {
    const Dataset original = sample_dataset();
    const std::string path = ::testing::TempDir() + "/roundtrip.nstrace";
    ASSERT_TRUE(save_dataset(original, path));

    Dataset loaded;
    ASSERT_TRUE(load_dataset(loaded, path));
    ASSERT_EQ(loaded.log.downloads().size(), 1u);
    const auto& dl = loaded.log.downloads()[0];
    EXPECT_EQ(dl.guid, (Guid{1, 2}));
    EXPECT_EQ(dl.object_size, 123_MB);
    EXPECT_EQ(dl.bytes_from_peers, 100_MB);
    EXPECT_EQ(dl.outcome, DownloadOutcome::completed);
    EXPECT_EQ(dl.peers_initially_returned, 7);

    ASSERT_EQ(loaded.log.logins().size(), 1u);
    EXPECT_EQ(loaded.log.logins()[0].secondary_guids[0], (SecondaryGuid{7, 8}));
    EXPECT_TRUE(loaded.log.logins()[0].uploads_enabled);
    ASSERT_EQ(loaded.log.transfers().size(), 1u);
    EXPECT_EQ(loaded.log.transfers()[0].bytes, 55);
    ASSERT_EQ(loaded.log.registrations().size(), 1u);
    EXPECT_EQ(loaded.log.registrations()[0].time, sim::SimTime{7});

    ASSERT_EQ(loaded.log.degradations().size(), 1u);
    EXPECT_EQ(loaded.log.degradations()[0].guid, (Guid{1, 2}));
    EXPECT_EQ(loaded.log.degradations()[0].time, sim::SimTime{10});
    EXPECT_EQ(loaded.log.degradations()[0].kind, DegradationKind::peer_stall);

    ASSERT_EQ(loaded.log.fault_events().size(), 1u);
    const FaultRecord& fault = loaded.log.fault_events()[0];
    EXPECT_EQ(fault.time, sim::SimTime{11});
    EXPECT_EQ(fault.param, 0.25);
    EXPECT_EQ(fault.asn, 3u);
    EXPECT_EQ(fault.index, 2);
    EXPECT_EQ(fault.kind, 4);
    EXPECT_EQ(fault.phase, 1);
    EXPECT_EQ(fault.region, 6);
    EXPECT_EQ(fault.region_b, -1);

    ASSERT_EQ(loaded.log.metric_names().size(), 1u);
    EXPECT_EQ(loaded.log.metric_names()[0], "edge.bytes_served");
    ASSERT_EQ(loaded.log.metric_points().size(), 2u);
    EXPECT_EQ(loaded.log.metric_points()[0].time, sim::SimTime{8});
    EXPECT_EQ(loaded.log.metric_points()[0].value, 1.5);
    EXPECT_EQ(loaded.log.metric_points()[1].value, 2.25);
    EXPECT_EQ(loaded.log.metric_points()[1].metric, 0u);

    ASSERT_EQ(loaded.geodb.size(), kSampleGeoEntries);
    const auto geo = loaded.geodb.lookup(net::IpAddr{0x0A000001});
    ASSERT_TRUE(geo.has_value());
    EXPECT_EQ(geo->asn.value, 1001u);
    EXPECT_EQ(geo->location.country.value, 17);
    EXPECT_DOUBLE_EQ(geo->location.point.lat, 48.1);
    std::remove(path.c_str());
}

TEST(Serialize, LoadReplacesExistingContents) {
    const std::string path = ::testing::TempDir() + "/replace.nstrace";
    ASSERT_TRUE(save_dataset(sample_dataset(), path));
    Dataset target = sample_dataset();  // already populated
    ASSERT_TRUE(load_dataset(target, path));
    EXPECT_EQ(target.log.downloads().size(), 1u) << "load clears previous records";
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails) {
    Dataset d;
    EXPECT_FALSE(load_dataset(d, "/nonexistent/definitely/missing.nstrace"));
}

TEST(Serialize, CorruptMagicRejected) {
    const std::string path = ::testing::TempDir() + "/bad.nstrace";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a trace file at all";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    Dataset d;
    EXPECT_FALSE(load_dataset(d, path));
    std::remove(path.c_str());
}

TEST(Serialize, TruncatedFileRejected) {
    // Every proper prefix: the cuts land inside the header, the section
    // counts, the alignment padding, every record array, the metric-name
    // table and the geo table.
    const std::string path = ::testing::TempDir() + "/trunc.nstrace";
    ASSERT_TRUE(save_dataset(sample_dataset(), path));
    const auto size = static_cast<off_t>(read_file(path).size());
    for (off_t len = size - 1; len >= 0; --len) {
        ASSERT_EQ(truncate(path.c_str(), len), 0);
        Dataset d;
        EXPECT_FALSE(load_dataset(d, path)) << "prefix of " << len << " of " << size << " bytes";
    }
    std::remove(path.c_str());
}

TEST(Serialize, FailedLoadLeavesTargetUntouched) {
    const std::string path = ::testing::TempDir() + "/trunc_keep.nstrace";
    ASSERT_TRUE(save_dataset(sample_dataset(), path));
    std::FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

    // The target already holds good data; a failed load must not clobber it.
    Dataset target = sample_dataset();
    target.log.add(DnRegistrationRecord{ObjectId{42, 42}, Guid{42, 42}, sim::SimTime{100}});
    EXPECT_FALSE(load_dataset(target, path));
    ASSERT_EQ(target.log.registrations().size(), 2u);
    EXPECT_EQ(target.log.registrations()[1].guid, (Guid{42, 42}));
    EXPECT_EQ(target.log.downloads().size(), 1u);
    EXPECT_EQ(target.geodb.size(), kSampleGeoEntries);
    std::remove(path.c_str());
}

TEST(Serialize, SaveIsAtomicReplace) {
    const std::string path = ::testing::TempDir() + "/atomic.nstrace";
    const std::string tmp = path + ".tmp";
    ASSERT_TRUE(save_dataset(sample_dataset(), path));
    struct stat st;
    EXPECT_NE(stat(tmp.c_str(), &st), 0) << "no temp file left behind after success";

    // Force the next save to fail at temp-file creation: a directory squats
    // on the temp path. The existing cache must survive intact.
    ASSERT_EQ(mkdir(tmp.c_str(), 0755), 0);
    Dataset bigger = sample_dataset();
    bigger.log.add(DnRegistrationRecord{ObjectId{5, 5}, Guid{5, 5}, sim::SimTime{50}});
    EXPECT_FALSE(save_dataset(bigger, path));
    ASSERT_EQ(rmdir(tmp.c_str()), 0);

    Dataset loaded;
    ASSERT_TRUE(load_dataset(loaded, path)) << "old cache must still be valid";
    EXPECT_EQ(loaded.log.registrations().size(), 1u) << "old contents, not the failed write";
    std::remove(path.c_str());
}

TEST(Serialize, LoadedSectionsAreMutable) {
    const std::string path = ::testing::TempDir() + "/mutable.nstrace";
    ASSERT_TRUE(save_dataset(sample_dataset(), path));
    Dataset loaded;
    ASSERT_TRUE(load_dataset(loaded, path));
    // The loaded data set owns its records: rewriting or deleting the file
    // afterwards cannot reach them.
    ASSERT_EQ(truncate(path.c_str(), 0), 0);
    std::remove(path.c_str());

    const Bytes before = loaded.log.downloads()[0].object_size;
    loaded.log.downloads().front().object_size = before + 1;
    EXPECT_EQ(loaded.log.downloads()[0].object_size, before + 1);
    loaded.log.add(DownloadRecord{});
    EXPECT_EQ(loaded.log.downloads().size(), 2u);
    loaded.log.add(DnRegistrationRecord{ObjectId{5, 5}, Guid{5, 5}, sim::SimTime{50}});
    EXPECT_EQ(loaded.log.registrations().size(), 2u);
}

TEST(Serialize, SaveLoadSaveIsByteIdentical) {
    // The geo table is written in IP order, not in the hash map's iteration
    // order, which depends on the map's insertion history: a loaded data set
    // re-saves to the same bytes.
    const std::string first = ::testing::TempDir() + "/resave_a.nstrace";
    const std::string second = ::testing::TempDir() + "/resave_b.nstrace";
    ASSERT_TRUE(save_dataset(sample_dataset(), first));
    Dataset loaded;
    ASSERT_TRUE(load_dataset(loaded, first));
    ASSERT_EQ(loaded.geodb.size(), kSampleGeoEntries);
    ASSERT_TRUE(save_dataset(loaded, second));
    const std::string bytes = read_file(first);
    ASSERT_GT(bytes.size(), kSampleGeoEntries * 32);
    EXPECT_TRUE(bytes == read_file(second)) << "a re-save changed the file";
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(Serialize, UnknownGeoCountryRejected) {
    // The analysis indexes the static country table with a geo entry's
    // country, so the load must refuse an id past its end.
    const std::string path = ::testing::TempDir() + "/country.nstrace";
    const auto countries = static_cast<std::uint16_t>(net::countries().size());
    const auto with_country = [](std::uint16_t country) {
        Dataset d = sample_dataset();
        d.geodb.register_ip(net::IpAddr{0x0C000001},
                            net::GeoRecord{net::Location{CountryId{country}, 1, {1.0, 2.0}},
                                           Asn{7}});
        return d;
    };

    ASSERT_TRUE(save_dataset(with_country(countries - 1), path));
    Dataset d;
    EXPECT_TRUE(load_dataset(d, path)) << "the last country in the table is valid";

    ASSERT_TRUE(save_dataset(with_country(countries), path));
    Dataset rejected;
    EXPECT_FALSE(load_dataset(rejected, path));
    EXPECT_EQ(rejected.geodb.size(), 0u);
    std::remove(path.c_str());
}

TEST(Serialize, EmptyDatasetRoundTrips) {
    const std::string path = ::testing::TempDir() + "/empty.nstrace";
    ASSERT_TRUE(save_dataset(Dataset{}, path));
    Dataset d;
    ASSERT_TRUE(load_dataset(d, path));
    EXPECT_EQ(d.log.total_entries(), 0u);
    EXPECT_EQ(d.geodb.size(), 0u);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace netsession::trace
