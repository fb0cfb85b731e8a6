// Dense roster of the currently-running clients.
//
// At 1M peers only a small fraction of the population is online at any
// moment (diurnal sessions), and everything the driver does per tick or per
// fault event — the clients_running gauge, mass-churn crash sweeps, flash
// crowds — concerns exactly that fraction. Scanning the full creation-order
// client array for `running()` made those O(population); this struct-of-
// arrays slab keeps the running set dense (swap-remove), so scans touch
// contiguous memory proportional to the *online* peers only.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace netsession::peer {
class NetSessionClient;
}

namespace netsession::workload {

class HotRoster {
public:
    /// Registers a user as running. No-op if already present.
    void add(std::uint32_t user, peer::NetSessionClient* client) {
        if (user >= index_of_.size()) index_of_.resize(user + 1, kAbsent);
        if (index_of_[user] != kAbsent) return;
        index_of_[user] = static_cast<std::uint32_t>(creation_.size());
        creation_.push_back(user);
        client_.push_back(client);
    }

    /// Removes a user (swap-remove; order within the slab is not preserved).
    void remove(std::uint32_t user) {
        if (user >= index_of_.size() || index_of_[user] == kAbsent) return;
        const std::uint32_t slot = index_of_[user];
        const auto last = static_cast<std::uint32_t>(creation_.size() - 1);
        if (slot != last) {
            creation_[slot] = creation_[last];
            client_[slot] = client_[last];
            index_of_[creation_[slot]] = slot;
        }
        creation_.pop_back();
        client_.pop_back();
        index_of_[user] = kAbsent;
    }

    [[nodiscard]] std::size_t size() const noexcept { return creation_.size(); }

    /// Visits every running client in creation (user-index) order. Fault
    /// sweeps draw RNG per visited client, so the visit order must be
    /// independent of the swap-remove history — identical to what a scan of
    /// the full creation-order array used to produce. Safe against add/remove
    /// from inside `fn`: it iterates a snapshot of (user, client) pairs, so
    /// a swap-remove during the visit cannot re-pair a user with another
    /// user's client.
    template <typename Fn>
    void for_each_in_creation_order(Fn&& fn) const {
        std::vector<std::pair<std::uint32_t, peer::NetSessionClient*>> order;
        order.reserve(creation_.size());
        for (std::size_t slot = 0; slot < creation_.size(); ++slot)
            order.emplace_back(creation_[slot], client_[slot]);
        // Users are unique, so ordering by user alone is total.
        std::sort(order.begin(), order.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (const auto& [user, client] : order) fn(user, client);
    }

private:
    static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

    // SoA columns, indexed by dense hot slot.
    std::vector<std::uint32_t> creation_;          ///< user (creation) index
    std::vector<peer::NetSessionClient*> client_;  ///< paired client pointer
    std::vector<std::uint32_t> index_of_;          ///< user index -> hot slot
};

}  // namespace netsession::workload
