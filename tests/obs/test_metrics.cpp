// Registry semantics: instrument types, bucket boundaries, registration
// rules, and the JSON exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace netsession::obs {
namespace {

// --- Histogram bucketing ------------------------------------------------------

TEST(Histogram, SmallValuesLandInBucketZero) {
    EXPECT_EQ(Histogram::bucket_of(0.0), 0);
    EXPECT_EQ(Histogram::bucket_of(0.5), 0);
    EXPECT_EQ(Histogram::bucket_of(1.0), 0);
    EXPECT_EQ(Histogram::bucket_of(-4.0), 0) << "negatives clamp to bucket 0";
    EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0);
}

TEST(Histogram, ExactPowersOfTwoAreInclusiveUpperBoundaries) {
    // Bucket b covers (2^(b-1), 2^b]: an exact power of two belongs to its
    // own bucket, anything measurably above it spills into the next. (An
    // increment of one ulp can vanish inside log2's rounding, so probe with a
    // small relative offset instead.)
    for (int b = 1; b < 40; ++b) {
        const double hi = Histogram::bucket_hi(b);
        EXPECT_EQ(Histogram::bucket_of(hi), b) << "2^" << b << " inclusive";
        EXPECT_EQ(Histogram::bucket_of(hi * 1.001), b + 1) << "just above 2^" << b;
        EXPECT_EQ(Histogram::bucket_of(hi - hi / 4), b) << "interior of bucket " << b;
    }
}

TEST(Histogram, BoundariesAreConsistent) {
    for (int b = 0; b < Histogram::kBuckets; ++b) {
        EXPECT_LT(Histogram::bucket_lo(b), Histogram::bucket_hi(b));
        if (b > 0) { EXPECT_EQ(Histogram::bucket_lo(b), Histogram::bucket_hi(b - 1)); }
    }
    EXPECT_EQ(Histogram::bucket_lo(0), 0.0);
}

TEST(Histogram, HugeValuesClampIntoLastBucket) {
    EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, 200)), Histogram::kBuckets - 1);
    EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<double>::max()),
              Histogram::kBuckets - 1);
    // The largest representable uint64 byte count still fits the range.
    EXPECT_LT(Histogram::bucket_of(1.8e19), Histogram::kBuckets);
}

TEST(Histogram, RecordAccumulatesCountSumMean) {
    Histogram h;
    EXPECT_EQ(h.mean(), 0.0) << "empty histogram has mean 0, not NaN";
    h.record(2.0);
    h.record(6.0);
    h.record(1.0);
    EXPECT_EQ(h.count, 3u);
    EXPECT_DOUBLE_EQ(h.sum, 9.0);
    EXPECT_DOUBLE_EQ(h.mean(), 3.0);
    EXPECT_EQ(h.buckets[0], 1u);  // 1.0
    EXPECT_EQ(h.buckets[1], 1u);  // 2.0
    EXPECT_EQ(h.buckets[3], 1u);  // 6.0 in (4, 8]
}

// --- Counter ------------------------------------------------------------------

TEST(Counter, OverflowWrapsModulo2To64) {
    Counter c;
    c.value = std::numeric_limits<std::uint64_t>::max();
    c.inc();
    EXPECT_EQ(c.get(), 0u) << "unsigned wrap is well-defined, not UB";
    c.inc(5);
    EXPECT_EQ(c.get(), 5u);
}

// --- Registry -----------------------------------------------------------------

TEST(Registry, PreservesRegistrationOrder) {
    Counter a, b;
    Histogram h;
    Registry r;
    r.add_counter("z.second", &b);
    r.add_counter("a.first", &a);
    r.add_histogram("m.hist", &h);
    r.add_computed("m.computed", [] { return 42.0; });
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r.entries()[0].name, "z.second") << "order is registration, not lexicographic";
    EXPECT_EQ(r.entries()[1].name, "a.first");
    EXPECT_EQ(r.entries()[3].name, "m.computed");
}

TEST(Registry, DuplicateNamesIgnoredFirstWins) {
    Counter first, second;
    Registry r;
    r.add_counter("dup", &first);
    r.add_counter("dup", &second);
    ASSERT_EQ(r.size(), 1u);
    first.inc(7);
    second.inc(100);
    EXPECT_DOUBLE_EQ(Registry::scalar_value(*r.find("dup")), 7.0);
}

TEST(Registry, ScalarValuePerKind) {
    Counter c;
    c.inc(3);
    Histogram h;
    h.record(10.0);
    h.record(20.0);
    Registry r;
    r.add_counter("c", &c);
    r.add_histogram("h", &h);
    r.add_computed("f", [] { return -1.0; });
    EXPECT_DOUBLE_EQ(Registry::scalar_value(*r.find("c")), 3.0);
    EXPECT_DOUBLE_EQ(Registry::scalar_value(*r.find("h")), 2.0) << "histogram scalar = count";
    EXPECT_DOUBLE_EQ(Registry::scalar_value(*r.find("f")), -1.0);
    EXPECT_EQ(r.find("missing"), nullptr);
}

// --- Exporters ----------------------------------------------------------------

TEST(Export, JsonIsDeterministicAndComplete) {
    Counter c;
    c.inc(41);
    Histogram h;
    h.record(3.0);
    h.record(1000.0);
    Registry r;
    r.add_counter("edge.requests", &c);
    r.add_histogram("client.download_bytes", &h);
    r.add_computed("edge.online", [] { return 19.0; });
    const std::string json = to_json(r);
    EXPECT_EQ(json, to_json(r)) << "same state must render identically";
    EXPECT_NE(json.find("\"edge.requests\": 41"), std::string::npos) << json;
    EXPECT_NE(json.find("\"edge.online\": 19"), std::string::npos) << json;
    EXPECT_NE(json.find("\"client.download_bytes\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
    // Sparse buckets: two observations -> exactly two [hi, n] pairs.
    EXPECT_NE(json.find("[4, 1]"), std::string::npos) << json;
    EXPECT_NE(json.find("[1024, 1]"), std::string::npos) << json;
    EXPECT_EQ(json.find("[2, "), std::string::npos) << "empty buckets omitted: " << json;
}

}  // namespace
}  // namespace netsession::obs
