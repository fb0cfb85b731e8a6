// Data-plane peer registry.
//
// The simulator needs to route a p2p connection attempt to the remote
// client object. In the real system this is the downloader opening a TCP/UDP
// connection to the address the control plane handed it; here it is a lookup
// by GUID. (Control-plane routing uses control::ControlPlane::find_endpoint;
// this registry is the *data-plane* equivalent and also covers peers that
// are currently not connected to any CN.)
//
// The registry also owns the host-wide Download pool: per-download state is
// arena-allocated and *parked* on completion, so a 200k-peer run recycles a
// bounded working set of Download objects (with their source arrays, piece
// maps and hash tables at capacity) instead of churning the heap. It also
// owns the one ClientMetrics block that all of its clients count into.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/flat_hash.hpp"
#include "common/types.hpp"
#include "peer/client_config.hpp"
#include "peer/client_metrics.hpp"
#include "peer/cold_store.hpp"
#include "peer/download_state.hpp"

namespace netsession::peer {

class NetSessionClient;

class PeerRegistry {
public:
    void add(Guid guid, NetSessionClient* client) { clients_[guid] = client; }
    void remove(Guid guid) { clients_.erase(guid); }

    [[nodiscard]] NetSessionClient* find(Guid guid) const {
        NetSessionClient* const* slot = clients_.find_value(guid);
        return slot == nullptr ? nullptr : *slot;
    }

    [[nodiscard]] std::size_t size() const noexcept { return clients_.size(); }

    /// Shared per-download state pool (see peer/download_state.hpp).
    [[nodiscard]] arena::Pool<Download>& downloads() noexcept { return download_pool_; }
    [[nodiscard]] const arena::Pool<Download>& downloads() const noexcept {
        return download_pool_;
    }

    /// Client-tier metrics shared by every client of this registry.
    [[nodiscard]] ClientMetrics& metrics() noexcept { return metrics_; }

    /// Chunked arena holding hibernated clients' serialized state (see
    /// peer/cold_store.hpp).
    [[nodiscard]] ColdStore& cold() noexcept { return cold_; }
    [[nodiscard]] const ColdStore& cold() const noexcept { return cold_; }
    /// Shared serialization scratch buffer (capacity warm across the whole
    /// population's hibernations).
    [[nodiscard]] ColdWriter& cold_writer() noexcept { return cold_writer_; }

    /// Deduplicates client configurations. A 200k..1M-peer population uses a
    /// handful of distinct configs (one per content-provider binary in the
    /// workload), so clients hold a pointer instead of a ~200-byte copy.
    /// Trivially-copyable bytewise comparison; a padding mismatch costs at
    /// worst one extra stored copy.
    [[nodiscard]] const ClientConfig* intern_config(const ClientConfig& config) {
        static_assert(std::is_trivially_copyable_v<ClientConfig>);
        for (const auto& known : configs_)
            if (std::memcmp(known.get(), &config, sizeof(ClientConfig)) == 0) return known.get();
        configs_.push_back(std::make_unique<ClientConfig>(config));
        return configs_.back().get();
    }

private:
    FlatHashMap<Guid, NetSessionClient*> clients_;
    arena::Pool<Download> download_pool_;
    ColdStore cold_;
    ColdWriter cold_writer_;
    std::vector<std::unique_ptr<ClientConfig>> configs_;
    ClientMetrics metrics_;
};

}  // namespace netsession::peer
