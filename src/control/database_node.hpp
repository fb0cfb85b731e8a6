// Database node (DN).
//
// "The DNs maintain a database of which objects are currently available on
// which peers, as well as details about the connectivity of these peers.
// Peers appear in the database only when a) uploads are explicitly enabled on
// the peer, and b) the peer currently has objects to share." (§3.6)
//
// The database is soft state: a crashed/restarted DN comes back empty and is
// repopulated through the CNs' RE-ADD protocol (§3.8).
#pragma once

#include "control/directory.hpp"
#include "trace/trace_log.hpp"

namespace netsession::control {

class DatabaseNode {
public:
    DatabaseNode(DnId id, RegionId region, HostId host, trace::TraceLog& log)
        : id_(id), region_(region), host_(host), log_(&log) {}

    [[nodiscard]] DnId id() const noexcept { return id_; }
    [[nodiscard]] RegionId region() const noexcept { return region_; }
    [[nodiscard]] HostId host() const noexcept { return host_; }
    [[nodiscard]] bool up() const noexcept { return up_; }

    /// Registers a copy of `object` on `peer` (only called for peers with
    /// uploads enabled). Appends to the DN registration log unless this is a
    /// RE-ADD repopulation (recovered state is not a new copy).
    void register_copy(ObjectId object, const PeerDescriptor& peer, sim::SimTime now,
                       bool readd = false);

    void unregister_copy(ObjectId object, Guid guid) { directory_.remove(object, guid); }
    void remove_peer(Guid guid) { directory_.remove_peer(guid); }

    [[nodiscard]] std::vector<PeerDescriptor> select(ObjectId object,
                                                     const PeerDescriptor& requester, int want,
                                                     const SelectionPolicy& policy,
                                                     Rng& rng) const {
        return directory_.select(object, requester, want, policy, rng);
    }

    /// Allocation-free variant: appends into the caller's reusable buffer.
    void select_into(ObjectId object, const PeerDescriptor& requester, int want,
                     const SelectionPolicy& policy, Rng& rng,
                     std::vector<PeerDescriptor>& out) const {
        directory_.select_into(object, requester, want, policy, rng, out);
    }

    [[nodiscard]] int copies(ObjectId object) const { return directory_.copies(object); }
    [[nodiscard]] std::size_t registration_count() const noexcept {
        return directory_.registration_count();
    }

    /// Read-only directory access (audit layer).
    [[nodiscard]] const Directory& directory() const noexcept { return directory_; }

    /// Failure injection: the DN process dies, losing its soft state.
    void fail() {
        up_ = false;
        directory_.clear();
    }
    /// The DN process restarts empty; CNs will re-populate it via RE-ADD.
    void restart() { up_ = true; }

private:
    DnId id_;
    RegionId region_;
    HostId host_;
    trace::TraceLog* log_;
    Directory directory_;
    bool up_ = true;
};

}  // namespace netsession::control
