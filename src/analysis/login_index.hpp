// GUID → login-history index.
//
// The paper repeatedly joins logs through logins: "We first used the login
// data to map each GUID to the IP address it was using at the time, and then
// we used the EdgeScape data to map the IP address to the ... AS" (§6.1).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "net/geodb.hpp"
#include "trace/trace_log.hpp"

namespace netsession::analysis {

class LoginIndex {
public:
    explicit LoginIndex(const trace::TraceLog& log);

    /// The login record in effect at `time` for this GUID: the latest login
    /// at or before `time`, or the earliest login overall if none precede it.
    [[nodiscard]] const trace::LoginRecord* at(Guid guid, sim::SimTime time) const;

    /// The peer's first login (defines "first connection location", Fig 2).
    [[nodiscard]] const trace::LoginRecord* first(Guid guid) const;

    /// All logins of a GUID in time order.
    [[nodiscard]] const std::vector<const trace::LoginRecord*>* history(Guid guid) const;

    /// Resolves the geolocation of a GUID at a time, via IP + geo database.
    [[nodiscard]] std::optional<net::GeoRecord> locate(Guid guid, sim::SimTime time,
                                                       const net::GeoDatabase& geodb) const;

    /// Every GUID's history, for chunked scans. The order is the index's
    /// iteration order: fixed for a given log, independent of thread count.
    [[nodiscard]] std::vector<const std::vector<const trace::LoginRecord*>*> history_snapshot()
        const;

    [[nodiscard]] std::size_t guid_count() const noexcept { return by_guid_.size(); }

private:
    std::unordered_map<Guid, std::vector<const trace::LoginRecord*>> by_guid_;
};

}  // namespace netsession::analysis
