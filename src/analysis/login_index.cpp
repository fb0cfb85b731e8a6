#include "analysis/login_index.hpp"

#include <algorithm>

namespace netsession::analysis {

LoginIndex::LoginIndex(const trace::TraceLog& log) {
    for (const auto& r : log.logins()) by_guid_[r.guid].push_back(&r);
    for (auto& [guid, records] : by_guid_)
        std::sort(records.begin(), records.end(),
                  [](const trace::LoginRecord* a, const trace::LoginRecord* b) {
                      return a->time < b->time;
                  });
}

const trace::LoginRecord* LoginIndex::at(Guid guid, sim::SimTime time) const {
    const auto it = by_guid_.find(guid);
    if (it == by_guid_.end() || it->second.empty()) return nullptr;
    const auto& records = it->second;
    const auto pos = std::upper_bound(records.begin(), records.end(), time,
                                      [](sim::SimTime t, const trace::LoginRecord* r) {
                                          return t < r->time;
                                      });
    if (pos == records.begin()) return records.front();
    return *(pos - 1);
}

const trace::LoginRecord* LoginIndex::first(Guid guid) const {
    const auto it = by_guid_.find(guid);
    return it == by_guid_.end() || it->second.empty() ? nullptr : it->second.front();
}

const std::vector<const trace::LoginRecord*>* LoginIndex::history(Guid guid) const {
    const auto it = by_guid_.find(guid);
    return it == by_guid_.end() ? nullptr : &it->second;
}

std::vector<const std::vector<const trace::LoginRecord*>*> LoginIndex::history_snapshot() const {
    std::vector<const std::vector<const trace::LoginRecord*>*> out;
    out.reserve(by_guid_.size());
    for (const auto& [guid, history] : by_guid_) out.push_back(&history);
    return out;
}

std::optional<net::GeoRecord> LoginIndex::locate(Guid guid, sim::SimTime time,
                                                 const net::GeoDatabase& geodb) const {
    const trace::LoginRecord* login = at(guid, time);
    if (login == nullptr) return std::nullopt;
    return geodb.lookup(login->ip);
}

}  // namespace netsession::analysis
