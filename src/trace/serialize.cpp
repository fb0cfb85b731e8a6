#include "trace/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "net/world_data.hpp"

namespace netsession::trace {

namespace {

constexpr std::uint64_t kMagic = 0x4E53545243455231ULL;  // "NSTRCE" v1
// v4: padding-free record layouts — the dump of a run is now a pure function
// of the simulation (no indeterminate padding bytes), so identical runs
// produce byte-identical files.
// v5: degradation-telemetry section (fault injection / data-plane hardening).
// v6: sampled-metrics section — a metric-name table plus the obs sampler's
// time-series points (observability layer, docs/OBSERVABILITY.md).
// v7: POD record payloads start on 64-byte-aligned file offsets (zero
// padding). The reader skips the padding; the layout is kept so every v8
// file ever written still loads.
// v8: fault-timeline section — the FaultEngine's onset/restore records,
// which recovery analysis pairs into per-fault time-to-recover (chaos
// campaigns, docs/ROBUSTNESS.md).
constexpr std::uint32_t kVersion = 8;
constexpr std::size_t kSectionAlign = 64;

struct FileCloser {
    void operator()(std::FILE* f) const noexcept {
        if (f != nullptr) std::fclose(f);
    }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Streaming writer that tracks the absolute file offset (for alignment
/// padding) and latches the first failure — callers check ok() once at the
/// end instead of threading bool through every write.
class Writer {
public:
    explicit Writer(std::FILE* f) noexcept : f_(f) {}

    [[nodiscard]] bool ok() const noexcept { return ok_; }

    template <typename T>
    void pod(const T& v) {
        bytes(&v, sizeof(T));
    }

    void bytes(const void* p, std::size_t n) {
        if (!ok_ || n == 0) return;
        if (std::fwrite(p, 1, n, f_) != n) {
            ok_ = false;
            return;
        }
        offset_ += n;
    }

    /// Pads with zeros to the next kSectionAlign boundary.
    void align() {
        static constexpr unsigned char zeros[kSectionAlign] = {};
        const std::size_t rem = offset_ % kSectionAlign;
        if (rem != 0) bytes(zeros, kSectionAlign - rem);
    }

private:
    std::FILE* f_;
    std::size_t offset_ = 0;
    bool ok_ = true;
};

template <typename T>
void write_section(Writer& w, const std::vector<T>& v) {
    w.pod(static_cast<std::uint64_t>(v.size()));
    w.align();
    w.bytes(v.data(), v.size() * sizeof(T));
}

void write_strings(Writer& w, const std::vector<std::string>& v) {
    w.pod(static_cast<std::uint64_t>(v.size()));
    for (const auto& s : v) {
        w.pod(static_cast<std::uint64_t>(s.size()));
        w.bytes(s.data(), s.size());
    }
}

/// Streaming reader, the mirror of Writer: tracks the absolute file offset
/// (to skip the writer's alignment padding) against the file size measured
/// at open, so every count is checked against the bytes left before anything
/// is allocated for it. Record sections are fread straight into their vectors.
class Reader {
public:
    Reader(std::FILE* f, std::uint64_t size) noexcept : f_(f), size_(size) {}

    template <typename T>
    [[nodiscard]] bool pod(T& v) {
        return bytes(&v, sizeof(T));
    }

    [[nodiscard]] bool bytes(void* p, std::uint64_t n) {
        if (n > remaining()) return false;
        if (n != 0 && std::fread(p, 1, static_cast<std::size_t>(n), f_) != n) return false;
        offset_ += n;
        return true;
    }

    /// Skips the zero padding up to the next kSectionAlign boundary.
    [[nodiscard]] bool align() {
        unsigned char pad[kSectionAlign] = {};
        const std::uint64_t rem = offset_ % kSectionAlign;
        return rem == 0 || bytes(pad, kSectionAlign - rem);
    }

    /// Reads `n` records into `out`; rejects a count the file cannot hold.
    template <typename T>
    [[nodiscard]] bool array(std::uint64_t n, std::vector<T>& out) {
        if (n > remaining() / sizeof(T)) return false;
        out.resize(static_cast<std::size_t>(n));
        return bytes(out.data(), n * sizeof(T));
    }

    [[nodiscard]] std::uint64_t remaining() const noexcept { return size_ - offset_; }
    [[nodiscard]] bool exhausted() const noexcept { return offset_ == size_; }

private:
    std::FILE* f_;
    std::uint64_t size_;
    std::uint64_t offset_ = 0;
};

template <typename T>
[[nodiscard]] bool read_section(Reader& r, std::vector<T>& out) {
    std::uint64_t n = 0;
    return r.pod(n) && r.align() && r.array(n, out);
}

[[nodiscard]] bool read_strings(Reader& r, std::vector<std::string>& v) {
    std::uint64_t n = 0;
    // Every entry costs at least its 8-byte length prefix.
    if (!r.pod(n) || n > r.remaining() / sizeof(std::uint64_t)) return false;
    v.resize(static_cast<std::size_t>(n));
    for (std::string& s : v) {
        std::uint64_t len = 0;
        if (!r.pod(len) || len > r.remaining()) return false;
        s.resize(static_cast<std::size_t>(len));
        if (!r.bytes(s.data(), len)) return false;
    }
    return true;
}

/// Flat on-disk form of one geo entry.
struct GeoEntry {
    double lat = 0, lon = 0;
    std::uint32_t ip = 0;
    std::uint32_t city = 0;
    std::uint32_t asn = 0;
    std::uint16_t country = 0;
    std::uint16_t reserved = 0;
};

// The record structs are trivially copyable (ids, ints, times); guard the
// dump format against accidental changes. They must also have no padding
// bytes (unique object representations): the vectors are fwritten raw, and
// indeterminate padding would break byte-identical serialization of
// identical runs — which the determinism guard and the bench cache rely on.
static_assert(std::is_trivially_copyable_v<DownloadRecord>);
static_assert(std::is_trivially_copyable_v<LoginRecord>);
static_assert(std::is_trivially_copyable_v<TransferRecord>);
static_assert(std::is_trivially_copyable_v<DnRegistrationRecord>);
static_assert(std::is_trivially_copyable_v<DegradationRecord>);
static_assert(std::has_unique_object_representations_v<DownloadRecord>);
static_assert(std::has_unique_object_representations_v<LoginRecord>);
static_assert(std::has_unique_object_representations_v<TransferRecord>);
static_assert(std::has_unique_object_representations_v<DnRegistrationRecord>);
static_assert(std::has_unique_object_representations_v<DegradationRecord>);
// GeoEntry and MetricPointRecord hold doubles, for which the
// unique-representation trait is always false; a packed-size check still
// rules out padding.
static_assert(sizeof(GeoEntry) == 2 * sizeof(double) + 3 * sizeof(std::uint32_t) +
                                      2 * sizeof(std::uint16_t));
static_assert(std::is_trivially_copyable_v<MetricPointRecord>);
static_assert(sizeof(MetricPointRecord) ==
              sizeof(sim::SimTime) + sizeof(double) + 2 * sizeof(std::uint32_t));
// FaultRecord also holds a double; the packed-size check rules out padding.
static_assert(std::is_trivially_copyable_v<FaultRecord>);
static_assert(sizeof(FaultRecord) == sizeof(sim::SimTime) + sizeof(double) +
                                         sizeof(std::uint32_t) + sizeof(std::uint16_t) + 10);

/// Parses a whole file into `out`. Returns false — leaving `out` in an
/// unspecified but safe state — on any structural problem or out-of-domain
/// index; load_dataset() only swaps `out` into the caller's Dataset on
/// success.
bool parse_dataset(Reader& r, Dataset& out) {
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    if (!r.pod(magic) || !r.pod(version)) return false;
    if (magic != kMagic || version != kVersion) return false;

    TraceLog& log = out.log;
    if (!read_section(r, log.downloads())) return false;
    if (!read_section(r, log.logins())) return false;
    if (!read_section(r, log.transfers())) return false;
    if (!read_section(r, log.registrations())) return false;
    if (!read_section(r, log.degradations())) return false;
    if (!read_section(r, log.fault_events())) return false;
    std::vector<std::string> metric_names;
    if (!read_strings(r, metric_names)) return false;
    if (!read_section(r, log.metric_points())) return false;
    for (const auto& p : log.metric_points())
        if (p.metric >= metric_names.size()) return false;  // corrupt name table
    log.set_metric_names(std::move(metric_names));

    std::vector<GeoEntry> geo;
    if (!read_section(r, geo)) return false;
    const std::size_t n_countries = net::countries().size();
    out.geodb.reserve(geo.size());
    for (const GeoEntry& e : geo) {
        // The analysis indexes the static country table with this id.
        if (e.country >= n_countries) return false;
        net::GeoRecord rec;
        rec.location = net::Location{CountryId{e.country}, e.city, net::GeoPoint{e.lat, e.lon}};
        rec.asn = Asn{e.asn};
        out.geodb.register_ip(net::IpAddr{e.ip}, rec);
    }
    return r.exhausted();  // trailing garbage means a corrupt or foreign file
}

}  // namespace

bool save_dataset(const TraceLog& log, const net::GeoDatabase& geodb, const std::string& path) {
    // Write to a sibling temp file and rename into place only after every
    // write (including fclose) succeeded: a crash or full disk mid-save can
    // never leave a truncated file under the real name, so the bench cache
    // is either absent, the old dataset, or the complete new one.
    const std::string tmp = path + ".tmp";
    bool ok = false;
    {
        File f(std::fopen(tmp.c_str(), "wb"));
        if (!f) return false;
        Writer w(f.get());
        w.pod(kMagic);
        w.pod(kVersion);
        write_section(w, log.downloads());
        write_section(w, log.logins());
        write_section(w, log.transfers());
        write_section(w, log.registrations());
        write_section(w, log.degradations());
        write_section(w, log.fault_events());
        write_strings(w, log.metric_names());
        write_section(w, log.metric_points());

        // IP order: the hash map's iteration order depends on its insertion
        // history, which must not leak into the file's bytes.
        std::vector<GeoEntry> geo;
        geo.reserve(geodb.size());
        geodb.for_each([&](net::IpAddr ip, const net::GeoRecord& rec) {
            GeoEntry e;
            e.ip = ip.value;
            e.country = rec.location.country.value;
            e.city = rec.location.city;
            e.lat = rec.location.point.lat;
            e.lon = rec.location.point.lon;
            e.asn = rec.asn.value;
            geo.push_back(e);
        });
        std::sort(geo.begin(), geo.end(),
                  [](const GeoEntry& a, const GeoEntry& b) { return a.ip < b.ip; });
        write_section(w, geo);

        ok = w.ok() && std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
        std::FILE* raw = f.release();
        if (std::fclose(raw) != 0) ok = false;
    }
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool load_dataset(Dataset& dataset, const std::string& path) {
    File f(std::fopen(path.c_str(), "rb"));
    if (!f) return false;
    if (std::fseek(f.get(), 0, SEEK_END) != 0) return false;
    const long size = std::ftell(f.get());
    if (size < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) return false;
    // Assemble into a local Dataset and swap on success: a truncated or
    // corrupt file must not leave the caller's dataset partially populated.
    Reader r(f.get(), static_cast<std::uint64_t>(size));
    Dataset loaded;
    if (!parse_dataset(r, loaded)) return false;
    dataset = std::move(loaded);
    return true;
}

}  // namespace netsession::trace
