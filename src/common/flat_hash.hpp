// Open-addressing hash map/set with dense storage and *insertion-ordered
// iteration* — the cache-friendly replacement for std::unordered_map on the
// simulation hot paths.
//
// Layout (python-dict style, cf. the SwissTable lineage in PAPERS.md):
//
//   entries_   dense vector of {key, value} pairs in insertion order
//   buckets_   power-of-two open-addressed index table of u32 entry indices
//
// Lookups probe buckets_ (triangular probing) and land in entries_ with at
// most one extra cache line; iteration walks entries_ linearly and never
// touches buckets_ at all.
//
// Determinism contract (docs/SIMULATOR.md "Memory layout"): iteration order
// is the insertion order of the *live* keys, full stop. The hash function
// influences probe sequences — i.e. performance — but can never change the
// order in which range-for visits elements, so trace bytes and RNG draw
// order are independent of std::hash quirks across platforms and standard
// libraries. This is what lets these containers replace unordered_map in
// code whose iteration order feeds the trace.
//
// Erasure marks the dense entry dead (tombstone) and frees its bucket;
// iterators skip dead entries. Once more than kCompactMinDead entries are
// dead AND the dead outnumber the live, the table compacts in place
// (erase/remove over entries_, index rebuild) — amortized O(1) per erase.
//
// Invalidation rules are stricter than unordered_map: any insert or erase
// may invalidate iterators, pointers, and references into the table (grow,
// tombstone purge, compaction). Do not hold references across mutations.
//
// Not thread-safe; the simulation is single-threaded by design.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace netsession {

namespace flat_hash_detail {

/// Final avalanche mixer (splitmix64 tail). libstdc++'s std::hash for
/// integers is the identity; a power-of-two table needs the high bits
/// scrambled or sequential ids cluster into long probe chains.
[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t h) noexcept {
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return h;
}

/// Shared core for FlatHashMap / FlatHashSet. `GetKey` projects an entry to
/// its key; map entries are std::pair<K, V>, set entries are K itself.
template <class Entry, class Key, class GetKey, class Hash, class Eq>
class Table {
public:
    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
    static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;
    static constexpr std::size_t kCompactMinDead = 16;

    Table() = default;

    // --- iteration (insertion order, skipping dead entries) ----------------
    template <bool Const>
    class Iter {
    public:
        using TablePtr = std::conditional_t<Const, const Table*, Table*>;
        using Ref = std::conditional_t<Const, const Entry&, Entry&>;
        using Ptr = std::conditional_t<Const, const Entry*, Entry*>;
        using value_type = Entry;
        using difference_type = std::ptrdiff_t;
        using iterator_category = std::forward_iterator_tag;

        Iter() = default;
        Iter(TablePtr t, std::size_t pos) : t_(t), pos_(pos) { skip_dead(); }
        /// const conversion
        template <bool C = Const, class = std::enable_if_t<C>>
        Iter(const Iter<false>& o) : t_(o.t_), pos_(o.pos_) {}

        Ref operator*() const { return t_->entries_[pos_]; }
        Ptr operator->() const { return &t_->entries_[pos_]; }
        Iter& operator++() {
            ++pos_;
            skip_dead();
            return *this;
        }
        Iter operator++(int) {
            Iter tmp = *this;
            ++*this;
            return tmp;
        }
        friend bool operator==(const Iter& a, const Iter& b) { return a.pos_ == b.pos_; }
        friend bool operator!=(const Iter& a, const Iter& b) { return a.pos_ != b.pos_; }

    private:
        friend class Table;
        friend class Iter<true>;
        void skip_dead() {
            while (pos_ < t_->entries_.size() && t_->dead_[pos_]) ++pos_;
        }
        TablePtr t_ = nullptr;
        std::size_t pos_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    [[nodiscard]] iterator begin() { return iterator(this, 0); }
    [[nodiscard]] iterator end() { return iterator(this, entries_.size()); }
    [[nodiscard]] const_iterator begin() const { return const_iterator(this, 0); }
    [[nodiscard]] const_iterator end() const { return const_iterator(this, entries_.size()); }

    // --- capacity ----------------------------------------------------------
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
    [[nodiscard]] double load_factor() const noexcept {
        return buckets_.empty() ? 0.0
                                : static_cast<double>(live_) / static_cast<double>(buckets_.size());
    }
    /// Heap footprint of the table's own storage.
    [[nodiscard]] std::size_t memory_bytes() const noexcept {
        return buckets_.capacity() * sizeof(std::uint32_t) + entries_.capacity() * sizeof(Entry) +
               dead_.capacity();
    }

    void reserve(std::size_t n) {
        entries_.reserve(n);
        dead_.reserve(n);
        const std::size_t want = bucket_capacity_for(n);
        if (want > buckets_.size()) rebuild(want);
    }

    /// Drops all elements but keeps the allocated storage — the arena-style
    /// "reset for reuse" the hot paths rely on.
    void clear() noexcept {
        entries_.clear();
        dead_.clear();
        buckets_.assign(buckets_.size(), kEmpty);
        live_ = 0;
        dead_count_ = 0;
        used_buckets_ = 0;
    }

    /// Releases excess capacity retained from a past peak: purges dead
    /// entries, reindexes into the smallest bucket table valid for the live
    /// count, and returns spare vector capacity to the allocator. Without
    /// this, an erase-heavy table (a hibernating client's download map, the
    /// directory after a mass logout) keeps its high-water storage forever —
    /// the amortized compaction in maybe_compact() reuses capacity but never
    /// gives it back. An empty table drops all storage. O(n); call from
    /// mass-demote paths, not per-erase.
    void shrink_to_fit() {
        if (live_ == 0) {
            entries_ = std::vector<Entry>();
            dead_ = std::vector<std::uint8_t>();
            buckets_ = std::vector<std::uint32_t>();
            dead_count_ = 0;
            used_buckets_ = 0;
            return;
        }
        rebuild(bucket_capacity_for(live_));
        entries_.shrink_to_fit();
        dead_.shrink_to_fit();
        buckets_.shrink_to_fit();
    }

    // --- lookup ------------------------------------------------------------
    template <class K2>
    [[nodiscard]] iterator find(const K2& key) {
        const std::size_t pos = find_pos(key);
        return pos == npos ? end() : iterator_at(pos);
    }
    template <class K2>
    [[nodiscard]] const_iterator find(const K2& key) const {
        const std::size_t pos = find_pos(key);
        return pos == npos ? end() : const_iterator_at(pos);
    }
    template <class K2>
    [[nodiscard]] bool contains(const K2& key) const {
        return find_pos(key) != npos;
    }
    template <class K2>
    [[nodiscard]] std::size_t count(const K2& key) const {
        return find_pos(key) != npos ? 1 : 0;
    }

    // --- erase -------------------------------------------------------------
    template <class K2>
    std::size_t erase(const K2& key) {
        if (buckets_.empty()) return 0;
        const std::uint64_t h = hash_of(key);
        std::size_t bucket = h & mask();
        std::size_t step = 0;
        while (true) {
            const std::uint32_t idx = buckets_[bucket];
            if (idx == kEmpty) return 0;
            if (idx != kTombstone && eq_(GetKey{}(entries_[idx]), key)) {
                buckets_[bucket] = kTombstone;
                dead_[idx] = 1;
                entries_[idx] = Entry{};  // release payload (strings, vectors) now
                --live_;
                ++dead_count_;
                maybe_compact();
                return 1;
            }
            bucket = (bucket + ++step) & mask();
        }
    }
    iterator erase(iterator it) { return erase(const_iterator(it)); }
    iterator erase(const_iterator it) {
        std::size_t pos = it.pos_;
        erase(GetKey{}(entries_[pos]));
        // Compaction may have shuffled positions; restart is the only safe
        // general answer, but the amortized trigger makes it rare. When no
        // compaction ran, `pos` still denotes the (now dead) entry.
        if (pos >= entries_.size() || !dead_[pos]) pos = 0;
        return iterator(this, pos);
    }

protected:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    [[nodiscard]] iterator iterator_at(std::size_t pos) {
        iterator it;
        it.t_ = this;
        it.pos_ = pos;
        return it;
    }
    [[nodiscard]] const_iterator const_iterator_at(std::size_t pos) const {
        const_iterator it;
        it.t_ = this;
        it.pos_ = pos;
        return it;
    }

    template <class K2>
    [[nodiscard]] std::uint64_t hash_of(const K2& key) const {
        return mix(static_cast<std::uint64_t>(hash_(key)));
    }
    [[nodiscard]] std::size_t mask() const noexcept { return buckets_.size() - 1; }

    template <class K2>
    [[nodiscard]] std::size_t find_pos(const K2& key) const {
        if (buckets_.empty()) return npos;
        const std::uint64_t h = hash_of(key);
        std::size_t bucket = h & mask();
        std::size_t step = 0;
        while (true) {
            const std::uint32_t idx = buckets_[bucket];
            if (idx == kEmpty) return npos;
            if (idx != kTombstone && eq_(GetKey{}(entries_[idx]), key)) return idx;
            bucket = (bucket + ++step) & mask();
        }
    }

    /// Finds the insertion slot for `key`. Returns {entry_pos, false} when
    /// the key already exists; otherwise appends is up to the caller after
    /// claim_bucket(). Split so map and set can build their own entries.
    template <class K2>
    struct Probe {
        std::size_t entry = 0;   // existing entry position (found == true)
        std::size_t bucket = 0;  // bucket to claim (found == false)
        bool found = false;
    };

    template <class K2>
    [[nodiscard]] Probe<K2> probe_for_insert(const K2& key) {
        ensure_capacity_for_insert();
        const std::uint64_t h = hash_of(key);
        std::size_t bucket = h & mask();
        std::size_t step = 0;
        std::size_t first_tombstone = npos;
        while (true) {
            const std::uint32_t idx = buckets_[bucket];
            if (idx == kEmpty) {
                Probe<K2> p;
                p.bucket = first_tombstone != npos ? first_tombstone : bucket;
                return p;
            }
            if (idx == kTombstone) {
                if (first_tombstone == npos) first_tombstone = bucket;
            } else if (eq_(GetKey{}(entries_[idx]), key)) {
                Probe<K2> p;
                p.entry = idx;
                p.found = true;
                return p;
            }
            bucket = (bucket + ++step) & mask();
        }
    }

    /// Records a freshly appended entries_ slot in the index table.
    void claim_bucket(std::size_t bucket, std::size_t entry_pos) {
        assert(entry_pos < kTombstone);
        if (buckets_[bucket] == kEmpty) ++used_buckets_;
        buckets_[bucket] = static_cast<std::uint32_t>(entry_pos);
        ++live_;
    }

    void ensure_capacity_for_insert() {
        if (buckets_.empty()) {
            buckets_.assign(16, kEmpty);
            return;
        }
        // Grow/rebuild when the index is 7/8 occupied (live + tombstones):
        // probe chains stay short and the rebuild also purges dead entries.
        if ((used_buckets_ + 1) * 8 >= buckets_.size() * 7)
            rebuild(bucket_capacity_for(live_ + 1));
    }

    void maybe_compact() {
        if (dead_count_ > kCompactMinDead && dead_count_ > live_) rebuild(buckets_.size());
    }

    [[nodiscard]] static std::size_t bucket_capacity_for(std::size_t n) {
        // Smallest power of two with load factor <= 0.5 at n live entries —
        // doubling leaves headroom so rebuilds stay rare.
        std::size_t cap = 16;
        while (cap < n * 2) cap *= 2;
        return cap;
    }

    /// Compacts entries_ (dropping dead slots, preserving order) and
    /// reindexes into a table of `new_buckets` buckets.
    void rebuild(std::size_t new_buckets) {
        if (dead_count_ != 0) {
            std::size_t out = 0;
            for (std::size_t i = 0; i < entries_.size(); ++i) {
                if (dead_[i]) continue;
                if (out != i) entries_[out] = std::move(entries_[i]);
                ++out;
            }
            entries_.resize(out);
            dead_.assign(out, 0);
            dead_count_ = 0;
        }
        buckets_.assign(new_buckets, kEmpty);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const std::uint64_t h = hash_of(GetKey{}(entries_[i]));
            std::size_t bucket = h & mask();
            std::size_t step = 0;
            while (buckets_[bucket] != kEmpty) bucket = (bucket + ++step) & mask();
            buckets_[bucket] = static_cast<std::uint32_t>(i);
        }
        used_buckets_ = entries_.size();
    }

    std::vector<Entry> entries_;
    std::vector<std::uint8_t> dead_;       // parallel to entries_
    std::vector<std::uint32_t> buckets_;   // power-of-two index table
    std::size_t live_ = 0;
    std::size_t dead_count_ = 0;
    std::size_t used_buckets_ = 0;  // live + tombstoned buckets
    [[no_unique_address]] Hash hash_{};
    [[no_unique_address]] Eq eq_{};
};

struct MapGetKey {
    template <class P>
    const auto& operator()(const P& entry) const noexcept {
        return entry.first;
    }
};
struct SetGetKey {
    template <class K>
    const K& operator()(const K& entry) const noexcept {
        return entry;
    }
};

}  // namespace flat_hash_detail

/// Insertion-ordered open-addressing map. Drop-in for the unordered_map
/// subset the simulator uses (find/contains/operator[]/try_emplace/
/// insert_or_assign/erase/range-for); see file header for the iteration
/// order and invalidation contracts.
template <class K, class V, class Hash = std::hash<K>, class Eq = std::equal_to<>>
class FlatHashMap
    : public flat_hash_detail::Table<std::pair<K, V>, K, flat_hash_detail::MapGetKey, Hash, Eq> {
    using Base = flat_hash_detail::Table<std::pair<K, V>, K, flat_hash_detail::MapGetKey, Hash, Eq>;

public:
    using key_type = K;
    using mapped_type = V;
    using value_type = std::pair<K, V>;
    using iterator = typename Base::iterator;
    using const_iterator = typename Base::const_iterator;

    template <class... Args>
    std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
        auto p = this->template probe_for_insert<K>(key);
        if (p.found) return {this->iterator_at(p.entry), false};
        const std::size_t pos = this->entries_.size();
        this->entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                                    std::forward_as_tuple(std::forward<Args>(args)...));
        this->dead_.push_back(0);
        this->claim_bucket(p.bucket, pos);
        return {this->iterator_at(pos), true};
    }

    std::pair<iterator, bool> insert(const value_type& kv) {
        return try_emplace(kv.first, kv.second);
    }
    std::pair<iterator, bool> insert(value_type&& kv) {
        return try_emplace(kv.first, std::move(kv.second));
    }

    template <class M>
    std::pair<iterator, bool> insert_or_assign(const K& key, M&& value) {
        auto [it, fresh] = try_emplace(key);
        it->second = std::forward<M>(value);
        return {it, fresh};
    }

    V& operator[](const K& key) { return try_emplace(key).first->second; }

    template <class K2>
    [[nodiscard]] V* find_value(const K2& key) {
        const std::size_t pos = this->template find_pos<K2>(key);
        return pos == Base::npos ? nullptr : &this->entries_[pos].second;
    }
    template <class K2>
    [[nodiscard]] const V* find_value(const K2& key) const {
        const std::size_t pos = this->template find_pos<K2>(key);
        return pos == Base::npos ? nullptr : &this->entries_[pos].second;
    }
    template <class K2>
    [[nodiscard]] V& at(const K2& key) {
        V* v = find_value(key);
        assert(v && "FlatHashMap::at: missing key");
        return *v;
    }
    template <class K2>
    [[nodiscard]] const V& at(const K2& key) const {
        const V* v = find_value(key);
        assert(v && "FlatHashMap::at: missing key");
        return *v;
    }
};

/// Insertion-ordered open-addressing set; same contracts as FlatHashMap.
template <class K, class Hash = std::hash<K>, class Eq = std::equal_to<>>
class FlatHashSet : public flat_hash_detail::Table<K, K, flat_hash_detail::SetGetKey, Hash, Eq> {
    using Base = flat_hash_detail::Table<K, K, flat_hash_detail::SetGetKey, Hash, Eq>;

public:
    using key_type = K;
    using value_type = K;
    using iterator = typename Base::iterator;
    using const_iterator = typename Base::const_iterator;

    std::pair<iterator, bool> insert(const K& key) {
        auto p = this->template probe_for_insert<K>(key);
        if (p.found) return {this->iterator_at(p.entry), false};
        const std::size_t pos = this->entries_.size();
        this->entries_.push_back(key);
        this->dead_.push_back(0);
        this->claim_bucket(p.bucket, pos);
        return {this->iterator_at(pos), true};
    }
    template <class... Args>
    std::pair<iterator, bool> emplace(Args&&... args) {
        return insert(K(std::forward<Args>(args)...));
    }
};

}  // namespace netsession
