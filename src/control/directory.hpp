// The DN's object→peer directory with hierarchical locality sets.
//
// "Each peer belongs to multiple sets, based on its public IP address and the
// Autonomous System (AS) it is located in. For example, a peer can
// simultaneously be in a universal World set, a subset for a large
// geographical region, a subset for a smaller region, and a subset for its
// specific AS. DN selection begins with peers from the most specific set that
// the querying peer belongs to, and proceeds to less specific sets until
// enough suitable peers are found. An additional mechanism adds diversity:
// Occasionally, peers are selected from a less specific set, with probability
// proportional to the specificity of the set. Also, when a peer is selected,
// it is placed at the end of a peer selection list for fairness."  (§3.7)
//
// Memory layout (docs/SIMULATOR.md): swarms live in an arena::Pool and are
// parked (capacity intact) when their last registration disappears, so a
// churning population reuses entry arrays and bucket tables instead of
// reallocating them; all lookup tables are insertion-ordered FlatHashMaps;
// a per-GUID postings list makes remove_peer O(objects the peer holds)
// instead of a scan over every swarm; and select() draws into caller-owned
// buffers — the query hot path performs no allocation at steady state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "control/peer_descriptor.hpp"

namespace netsession::control {

/// Locality levels, most specific first.
enum class LocalityLevel : std::uint8_t { as_level, country, continent, world };
inline constexpr int kLocalityLevels = 4;

/// Tunables of the selection process ("the selection process can be modified
/// with a set of configurable policies", §3.7).
struct SelectionPolicy {
    enum class Strategy {
        locality_aware,  // the production algorithm
        random,          // ablation baseline: uniform over the world set
    };
    Strategy strategy = Strategy::locality_aware;

    /// Chance of drawing a slot from the next less-specific set, by level
    /// (index = LocalityLevel). Proportional to specificity per the paper.
    double diversity[kLocalityLevels] = {0.15, 0.10, 0.05, 0.0};

    /// Pre-filter candidates whose NAT type cannot traverse the requester's.
    bool nat_compatibility_filter = true;
};

/// Directory of which peers currently have which objects, per DN.
class Directory {
public:
    /// Registers a copy; replaces a previous registration by the same GUID.
    void add(ObjectId object, const PeerDescriptor& peer);

    /// Removes one peer's registration for one object.
    void remove(ObjectId object, Guid guid);

    /// Removes every registration of a peer (logout / upload-disable).
    /// O(number of objects this peer has registered) via the postings list.
    void remove_peer(Guid guid);

    /// Appends up to `want` distinct suitable peers for the requester to
    /// `out` (which the caller owns and typically reuses across queries —
    /// no allocation happens here once its capacity is warm).
    void select_into(ObjectId object, const PeerDescriptor& requester, int want,
                     const SelectionPolicy& policy, Rng& rng,
                     std::vector<PeerDescriptor>& out) const;

    /// Convenience wrapper over select_into for tests and one-off callers.
    [[nodiscard]] std::vector<PeerDescriptor> select(ObjectId object,
                                                     const PeerDescriptor& requester, int want,
                                                     const SelectionPolicy& policy,
                                                     Rng& rng) const {
        std::vector<PeerDescriptor> result;
        select_into(object, requester, want, policy, rng, result);
        return result;
    }

    /// Currently registered copies of an object.
    [[nodiscard]] int copies(ObjectId object) const;

    [[nodiscard]] std::size_t object_count() const noexcept { return swarms_.size(); }
    [[nodiscard]] std::size_t registration_count() const noexcept { return live_entries_; }

    /// Drops everything (simulates a DN crash losing its soft state).
    void clear();

    // --- audit hooks (src/audit/; read-only) --------------------------------
    /// Cross-checks the two internal indexes: every posting (guid, object)
    /// must resolve to a live swarm entry for that guid, and the live-entry
    /// counter must equal both the posting count and the live entries found
    /// by walking every swarm. Returns the number of inconsistencies (0 on a
    /// healthy directory, including mid-RE-ADD and right after clear()).
    [[nodiscard]] int audit_consistency() const;
    /// Visits every live (guid, object) registration.
    void for_each_registration(const std::function<void(Guid, ObjectId)>& fn) const;

private:
    struct Entry {
        PeerDescriptor peer;
        bool alive = true;
    };

    struct Bucket {
        std::vector<std::uint32_t> members;  // entry indices, append-only
        mutable std::size_t cursor = 0;      // round-robin fairness pointer
    };

    struct Swarm {
        std::vector<Entry> entries;
        FlatHashMap<Guid, std::uint32_t> by_guid;
        FlatHashMap<std::uint32_t, Bucket> by_as;        // Asn value
        FlatHashMap<std::uint16_t, Bucket> by_country;   // CountryId value
        FlatHashMap<std::uint8_t, Bucket> by_continent;  // Continent
        Bucket world;
        /// The object this swarm indexes — lets a 4-byte posting handle
        /// resolve back to the 16-byte ObjectId without a map lookup.
        ObjectId object;
        std::uint32_t dead = 0;

        void compact();
        /// Logical reset on reuse from the pool; storage capacity survives.
        void reset();
    };
    using SwarmHandle = arena::PoolHandle<Swarm>;

    [[nodiscard]] Swarm* find_swarm(ObjectId object);
    [[nodiscard]] const Swarm* find_swarm(ObjectId object) const;
    /// Marks one registration dead; compacts/releases per the shared policy.
    void kill_registration(ObjectId object, Guid guid, bool drop_posting);
    /// Same, addressed by swarm handle (the remove_peer fast path).
    void kill_by_handle(SwarmHandle handle, Guid guid, bool drop_posting);

    /// Walks a bucket round-robin and returns the next acceptable entry.
    template <typename Key>
    std::optional<std::uint32_t> next_in_bucket(const Swarm& swarm,
                                                const FlatHashMap<Key, Bucket>& buckets, Key key,
                                                const PeerDescriptor& requester,
                                                const SelectionPolicy& policy) const;
    std::optional<std::uint32_t> next_in_world(const Swarm& swarm, const PeerDescriptor& requester,
                                               const SelectionPolicy& policy) const;
    [[nodiscard]] bool acceptable(const Entry& e, const PeerDescriptor& requester,
                                  const SelectionPolicy& policy) const;

    FlatHashMap<ObjectId, SwarmHandle> swarms_;
    arena::Pool<Swarm> swarm_pool_;
    /// guid → 32-bit handles of the swarms it is registered in (unordered
    /// within a guid). Handles instead of ObjectIds quarter the per-posting
    /// footprint (4 B vs 16 B) and skip the swarms_ lookup on removal; a
    /// posting handle stays valid exactly as long as the registration lives,
    /// because a swarm is only parked when its last registration goes.
    FlatHashMap<Guid, std::vector<SwarmHandle>> postings_;
    std::size_t live_entries_ = 0;

    std::vector<SwarmHandle> remove_scratch_;    // remove_peer working set
    mutable std::vector<Guid> chosen_scratch_;   // select_into dedup set
};

}  // namespace netsession::control
