// Cold storage for hibernated peers.
//
// A NetSession install spends most of the simulated week offline (diurnal
// sessions, churn faults). Keeping a full client object resident for every
// offline peer is what capped earlier builds at ~200k peers; at 1M peers the
// hot working set must be proportional to *online* peers only. ColdStore is
// a chunked byte arena holding one compact serialized blob per hibernated
// client — a few hundred bytes instead of several KiB of hash tables and
// vectors — with 32-byte size-class free lists so demote/rehydrate cycles
// at steady-state churn recycle storage instead of growing it.
//
// The blobs are in-memory snapshots, not a disk format: raw pointers
// (catalog entries, edge servers) are stored verbatim, and layout matches
// the writing build only. ColdWriter/ColdReader are the (trivial) byte-level
// serializer pair used by NetSessionClient::hibernate()/ensure_resident().
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace netsession::peer {

class ColdStore {
public:
    /// Bytes per pooled chunk. Blobs are contiguous; blobs larger than this
    /// get a dedicated exactly-sized chunk.
    static constexpr std::uint32_t kChunkSize = 256u * 1024u;
    /// Allocation granularity; free lists are per rounded-size class.
    static constexpr std::uint32_t kGranularity = 32;

    /// Handle to one stored blob. POD; default-constructed refs are invalid.
    struct BlobRef {
        static constexpr std::uint32_t kInvalidChunk = 0xFFFFFFFFu;
        std::uint32_t chunk = kInvalidChunk;
        std::uint32_t offset = 0;
        std::uint32_t size = 0;  ///< exact payload size (unrounded)
        [[nodiscard]] bool valid() const noexcept { return chunk != kInvalidChunk; }
    };

    /// Copies `size` bytes into the store and returns a handle.
    BlobRef store(const void* bytes, std::size_t size) {
        assert(size > 0);
        const auto rounded = rounded_size(size);
        BlobRef ref;
        ref.size = static_cast<std::uint32_t>(size);
        if (rounded > kChunkSize) {
            ref.chunk = dedicated_chunk(rounded);
            ref.offset = 0;
        } else {
            const std::uint32_t cls = rounded / kGranularity;
            if (cls < free_.size() && !free_[cls].empty()) {
                const Loc loc = free_[cls].back();
                free_[cls].pop_back();
                ref.chunk = loc.chunk;
                ref.offset = loc.offset;
            } else {
                if (open_ == kNoChunk || kChunkSize - open_used_ < rounded) {
                    // The tail fragment of the previous open chunk (if any)
                    // stays unused; at a few hundred bytes per blob that is
                    // well under 0.2% of reserved storage.
                    open_ = pooled_chunk();
                    open_used_ = 0;
                }
                ref.chunk = open_;
                ref.offset = open_used_;
                open_used_ += rounded;
            }
        }
        std::memcpy(chunks_[ref.chunk].bytes.data() + ref.offset, bytes, size);
        bytes_live_ += rounded;
        ++records_;
        return ref;
    }

    /// Pointer to a stored blob's bytes (valid until the ref is freed).
    [[nodiscard]] const std::uint8_t* data(BlobRef ref) const {
        assert(ref.valid());
        return chunks_[ref.chunk].bytes.data() + ref.offset;
    }

    /// Returns a blob's storage to the free lists.
    void free(BlobRef ref) {
        if (!ref.valid()) return;
        const auto rounded = rounded_size(ref.size);
        assert(records_ > 0 && bytes_live_ >= rounded);
        bytes_live_ -= rounded;
        --records_;
        if (rounded > kChunkSize) {
            // Dedicated chunk: release its buffer, recycle the index slot.
            bytes_reserved_ -= chunks_[ref.chunk].bytes.size();
            chunks_[ref.chunk].bytes = std::vector<std::uint8_t>();
            spare_slots_.push_back(ref.chunk);
            return;
        }
        const std::uint32_t cls = rounded / kGranularity;
        if (free_.size() <= cls) free_.resize(cls + 1);
        free_[cls].push_back(Loc{ref.chunk, ref.offset});
    }

    // --- storage accounting (read via PeerRegistry::cold()) -----------------
    [[nodiscard]] std::size_t bytes_reserved() const noexcept { return bytes_reserved_; }
    [[nodiscard]] std::size_t bytes_live() const noexcept { return bytes_live_; }
    [[nodiscard]] std::size_t records() const noexcept { return records_; }

private:
    static constexpr std::uint32_t kNoChunk = 0xFFFFFFFFu;

    struct Chunk {
        std::vector<std::uint8_t> bytes;
    };
    struct Loc {
        std::uint32_t chunk;
        std::uint32_t offset;
    };

    [[nodiscard]] static std::uint32_t rounded_size(std::size_t size) noexcept {
        return static_cast<std::uint32_t>((size + kGranularity - 1) / kGranularity * kGranularity);
    }

    std::uint32_t new_chunk(std::size_t bytes) {
        std::uint32_t idx;
        if (!spare_slots_.empty()) {
            idx = spare_slots_.back();
            spare_slots_.pop_back();
        } else {
            idx = static_cast<std::uint32_t>(chunks_.size());
            chunks_.emplace_back();
        }
        chunks_[idx].bytes.resize(bytes);
        bytes_reserved_ += bytes;
        return idx;
    }

    std::uint32_t pooled_chunk() { return new_chunk(kChunkSize); }
    std::uint32_t dedicated_chunk(std::size_t bytes) { return new_chunk(bytes); }

    std::vector<Chunk> chunks_;
    std::vector<std::uint32_t> spare_slots_;  ///< released dedicated-chunk indices
    std::vector<std::vector<Loc>> free_;      ///< per size class (rounded/32)
    std::uint32_t open_ = kNoChunk;           ///< chunk taking bump allocations
    std::uint32_t open_used_ = 0;
    std::size_t bytes_reserved_ = 0;
    std::size_t bytes_live_ = 0;
    std::size_t records_ = 0;
};

/// Appends trivially-copyable values to a growing byte buffer. Reused across
/// hibernations (the buffer keeps its capacity) by clear().
class ColdWriter {
public:
    void clear() noexcept { buf_.clear(); }

    template <typename T>
    void put(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
        buf_.insert(buf_.end(), p, p + sizeof(T));
    }

    template <typename T>
    void put_span(const T* p, std::size_t n) {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* b = reinterpret_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n * sizeof(T));
    }

    /// Convenience: u32 element count followed by the elements.
    template <typename T>
    void put_counted(const T* p, std::size_t n) {
        put(static_cast<std::uint32_t>(n));
        put_span(p, n);
    }

    [[nodiscard]] const std::uint8_t* data() const noexcept { return buf_.data(); }
    [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

private:
    std::vector<std::uint8_t> buf_;
};

/// Reads trivially-copyable values back out of a blob, in write order.
class ColdReader {
public:
    ColdReader(const std::uint8_t* p, std::size_t size) noexcept : p_(p), end_(p + size) {}

    template <typename T>
    [[nodiscard]] T get() {
        static_assert(std::is_trivially_copyable_v<T>);
        assert(p_ + sizeof(T) <= end_);
        T v;
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
        return v;
    }

    /// Skips n elements of type T without materializing them.
    template <typename T>
    void skip(std::size_t n) noexcept {
        p_ += n * sizeof(T);
        assert(p_ <= end_);
    }

    [[nodiscard]] bool done() const noexcept { return p_ == end_; }

private:
    const std::uint8_t* p_;
    const std::uint8_t* end_;
};

}  // namespace netsession::peer
