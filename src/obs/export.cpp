#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

namespace netsession::obs {

namespace {

/// Shortest decimal form that round-trips the double exactly — deterministic
/// across runs and standard-conforming printf implementations, and stable
/// enough for byte-exact golden files.
std::string fmt_double(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer the shorter %g form when it round-trips (keeps integers and
    // simple fractions human-readable in golden files).
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%g", v);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    return back == v ? shorter : buf;
}

std::string fmt_u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
}

}  // namespace

std::string to_json(const Registry& registry, int indent) {
    const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
    const std::string pad2 = pad + pad;
    const std::string pad3 = pad2 + pad;
    std::string out = "{\n";
    const auto& entries = registry.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        out += pad + "\"" + e.name + "\": ";
        switch (e.kind) {
            case Kind::counter: out += fmt_u64(e.counter->value); break;
            case Kind::gauge: out += fmt_double(Registry::scalar_value(e)); break;
            case Kind::histogram: {
                const Histogram& h = *e.histogram;
                out += "{\n";
                out += pad2 + "\"count\": " + fmt_u64(h.count) + ",\n";
                out += pad2 + "\"sum\": " + fmt_double(h.sum) + ",\n";
                out += pad2 + "\"mean\": " + fmt_double(h.mean()) + ",\n";
                out += pad2 + "\"buckets\": [";
                bool first = true;
                for (int b = 0; b < Histogram::kBuckets; ++b) {
                    const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
                    if (n == 0) continue;
                    out += first ? "\n" : ",\n";
                    first = false;
                    out += pad3 + "[" + fmt_double(Histogram::bucket_hi(b)) + ", " + fmt_u64(n) +
                           "]";
                }
                out += first ? "]" : "\n" + pad2 + "]";
                out += "\n" + pad + "}";
                break;
            }
        }
        out += i + 1 < entries.size() ? ",\n" : "\n";
    }
    out += "}\n";
    return out;
}

}  // namespace netsession::obs
