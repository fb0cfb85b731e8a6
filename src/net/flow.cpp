#include "net/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace netsession::net {

namespace {
// Rates are clamped to a large finite value so that `rate * dt` stays finite.
constexpr Rate kRateClamp = 1e15;
// Residual smaller than one byte counts as completed (fluid-model rounding).
constexpr double kResidual = 1.0;

double naive_share(Rate capacity, std::size_t degree) noexcept {
    if (capacity == kUnlimited) return kUnlimited;
    return capacity / static_cast<double>(std::max<std::size_t>(1, degree));
}
}  // namespace

HostId FlowNetwork::add_host(Rate up, Rate down) {
    hosts_.push_back(Host{up, down, {}, {}, false});
    return HostId{static_cast<std::uint32_t>(hosts_.size() - 1)};
}

const FlowNetwork::Flow* FlowNetwork::find(FlowId id) const {
    const std::uint32_t slot = id.slot();
    if (!id.valid() || slot >= flow_pool_.slot_count() || !flow_pool_.is_live(slot) ||
        flow_pool_.generation(slot) != id.generation())
        return nullptr;
    const Flow& f = flow_at(slot);
    return f.active ? &f : nullptr;
}

FlowNetwork::Flow* FlowNetwork::find(FlowId id) {
    return const_cast<Flow*>(static_cast<const FlowNetwork*>(this)->find(id));
}

void FlowNetwork::adj_push(AdjList& adj, std::uint32_t slot, std::uint32_t Flow::* pos_field) {
    flow_at(slot).*pos_field = static_cast<std::uint32_t>(adj.entries.size());
    adj.entries.push_back(slot);
    ++adj.epoch;
}

void FlowNetwork::adj_remove(AdjList& adj, std::uint32_t pos, std::uint32_t Flow::* pos_field) {
    assert(pos < adj.entries.size() && adj.entries[pos] != kDeadSlot);
    adj.entries[pos] = kDeadSlot;
    ++adj.dead;
    ++adj.epoch;
    // Amortised compaction once at most half the entries are live. Live
    // entries keep their relative order — the epsilon-gated relaxation is
    // order-sensitive, so removal must never permute the survivors (a
    // swap-with-back scheme would change which rate updates propagate and
    // thereby the whole downstream event schedule).
    if (adj.dead * 2 >= adj.entries.size()) {
        std::uint32_t w = 0;
        for (const auto s : adj.entries) {
            if (s == kDeadSlot) continue;
            flow_at(s).*pos_field = w;
            adj.entries[w++] = s;
        }
        adj.entries.resize(w);
        adj.dead = 0;
    }
}

FlowId FlowNetwork::start_flow(HostId src, HostId dst, Bytes size, Rate cap,
                               CompletionFn on_complete) {
    assert(src.value < hosts_.size() && dst.value < hosts_.size());
    assert(src != dst);
    assert(size > 0);

    // LIFO slot reuse with stable addresses; the generation lives in the
    // pool and is already bumped past any stale FlowId.
    const std::uint32_t slot = flow_pool_.acquire().slot();
    Flow& f = flow_at(slot);
    f = Flow{};
    f.src = src;
    f.dst = dst;
    f.cap = cap;
    f.remaining = size;
    f.last_settle = sim_->now();
    f.on_complete = std::move(on_complete);
    f.active = true;

    adj_push(hosts_[src.value].out, slot, &Flow::src_pos);
    adj_push(hosts_[dst.value].in, slot, &Flow::dst_pos);
    ++stats_.flows_started;

    // Hosts whose water-fills involve the changed naive shares: the two
    // endpoints themselves, plus every host with a flow adjacent to them.
    mark_dirty(src);
    mark_dirty(dst);
    for (const auto s : hosts_[src.value].out.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).dst);
    for (const auto s : hosts_[src.value].in.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).src);
    for (const auto s : hosts_[dst.value].out.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).dst);
    for (const auto s : hosts_[dst.value].in.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).src);
    process_dirty();

    // If neither endpoint has a finite constraint the refills never touched
    // the flow; give it its cap.
    if (flow_at(slot).active && flow_at(slot).rate == 0.0) apply_rate(slot);
    return make_id(slot);
}

Bytes FlowNetwork::cancel_flow(FlowId id) {
    Flow* f = find(id);
    if (f == nullptr) return 0;
    const std::uint32_t slot = id.slot();
    settle(slot);
    const auto moved = static_cast<Bytes>(std::llround(f->done));
    total_delivered_ += moved;
    ++stats_.flows_cancelled;
    remove(slot);
    process_dirty();
    return moved;
}

bool FlowNetwork::active(FlowId id) const { return find(id) != nullptr; }

Bytes FlowNetwork::transferred(FlowId id) {
    Flow* f = find(id);
    if (f == nullptr) return 0;
    settle(id.slot());
    return static_cast<Bytes>(std::llround(f->done));
}

Rate FlowNetwork::current_rate(FlowId id) const {
    const Flow* f = find(id);
    return f == nullptr ? 0.0 : f->rate;
}

arena::PoolStats FlowNetwork::pool_stats() const noexcept { return flow_pool_.stats(); }

int FlowNetwork::out_degree(HostId h) const {
    return static_cast<int>(hosts_[h.value].out.live());
}
int FlowNetwork::in_degree(HostId h) const { return static_cast<int>(hosts_[h.value].in.live()); }

void FlowNetwork::set_up_capacity(HostId h, Rate up) {
    if (hosts_[h.value].up == up) return;
    hosts_[h.value].up = up;
    if (up == kUnlimited) {
        // mark_dirty skips unconstrained hosts, so lift the stale finite
        // allocations explicitly.
        for (const auto s : hosts_[h.value].out.entries) {
            if (s == kDeadSlot) continue;
            flow_at(s).alloc_src = kUnlimited;
            apply_rate(s);
        }
    }
    mark_dirty(h);
    for (const auto s : hosts_[h.value].out.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).dst);
    process_dirty();
}

void FlowNetwork::set_down_capacity(HostId h, Rate down) {
    if (hosts_[h.value].down == down) return;
    hosts_[h.value].down = down;
    if (down == kUnlimited) {
        for (const auto s : hosts_[h.value].in.entries) {
            if (s == kDeadSlot) continue;
            flow_at(s).alloc_dst = kUnlimited;
            apply_rate(s);
        }
    }
    mark_dirty(h);
    for (const auto s : hosts_[h.value].in.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).src);
    process_dirty();
}

void FlowNetwork::settle(std::uint32_t slot) {
    Flow& f = flow_at(slot);
    const sim::SimTime now = sim_->now();
    const double dt = (now - f.last_settle).seconds();
    if (dt <= 0.0) return;
    f.last_settle = now;
    if (f.rate <= 0.0) return;
    const double moved = std::min(f.remaining, f.rate * dt);
    f.remaining -= moved;
    f.done += moved;
    // total_delivered_ is credited once, at completion/cancel, from the exact
    // accumulated `done` — rounding every partial settle would let the global
    // counter drift from the sum of flow sizes by up to half a byte per
    // settle, and long flows settle thousands of times.
}

void FlowNetwork::reschedule(std::uint32_t slot) {
    Flow& f = flow_at(slot);
    if (f.completion.valid()) {
        sim_->cancel(f.completion);
        f.completion = sim::EventHandle{};
    }
    if (!f.active) return;
    sim::Duration dt{0};
    if (f.remaining > kResidual) {
        if (f.rate <= 0.0) return;  // stalled; will be rescheduled on reallocation
        const double dt_s = f.remaining / f.rate;
        dt = sim::Duration{static_cast<std::int64_t>(std::ceil(dt_s * 1e6)) + 1};
    }
    f.completion = sim_->schedule_after(dt, [this, slot] { complete(slot); });
}

void FlowNetwork::complete(std::uint32_t slot) {
    Flow& f = flow_at(slot);
    if (!f.active) return;
    f.completion = sim::EventHandle{};
    settle(slot);
    if (f.remaining > kResidual) {
        // Rates dropped since this event was scheduled; keep going.
        reschedule(slot);
        return;
    }
    // Credit the sub-byte residual so byte totals match the flow size.
    f.done += f.remaining;
    f.remaining = 0.0;
    total_delivered_ += static_cast<Bytes>(std::llround(f.done));
    ++stats_.flows_completed;
    CompletionFn cb = std::move(f.on_complete);
    const FlowId id = make_id(slot);
    remove(slot);
    process_dirty();
    if (cb) cb(id);
}

void FlowNetwork::remove(std::uint32_t slot) {
    Flow& f = flow_at(slot);
    assert(f.active);
    if (f.completion.valid()) {
        sim_->cancel(f.completion);
        f.completion = sim::EventHandle{};
    }
    adj_remove(hosts_[f.src.value].out, f.src_pos, &Flow::src_pos);
    adj_remove(hosts_[f.dst.value].in, f.dst_pos, &Flow::dst_pos);

    mark_dirty(f.src);
    mark_dirty(f.dst);
    for (const auto s : hosts_[f.src.value].out.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).dst);
    for (const auto s : hosts_[f.src.value].in.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).src);
    for (const auto s : hosts_[f.dst.value].out.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).dst);
    for (const auto s : hosts_[f.dst.value].in.entries)
        if (s != kDeadSlot) mark_dirty(flow_at(s).src);

    f.active = false;
    f.on_complete = nullptr;
    // Park (never destroy): the slot stays constructed and its pool
    // generation advances, invalidating every outstanding FlowId.
    flow_pool_.release(flow_pool_.handle_at(slot));
}

void FlowNetwork::mark_dirty(HostId h) {
    Host& host = hosts_[h.value];
    // Hosts with no finite capacity never constrain anyone; skip them.
    if (host.up == kUnlimited && host.down == kUnlimited) return;
    if (host.queued) return;
    host.queued = true;
    dirty_.push_back(h);
}

void FlowNetwork::process_dirty() {
    if (processing_) return;  // the outermost mutator drains the queue
    processing_ = true;
    while (!dirty_.empty()) {
        const HostId h = dirty_.back();
        dirty_.pop_back();
        hosts_[h.value].queued = false;
        refill_host(h);
    }
    processing_ = false;
}

void FlowNetwork::refill_host(HostId h) {
    Host& host = hosts_[h.value];
    ++stats_.refills;
    fill_side(host.up, host.out, /*side_is_up=*/true);
    fill_side(host.down, host.in, /*side_is_up=*/false);
}

// Water-fills `capacity` over one side's flows; the bound of each flow is its
// cap combined with the naive fair share at its other endpoint. Writes the
// per-flow allocation and applies the resulting rates.
//
// The sorted order of (bound, slot) pairs is unique (slots are distinct), so
// whenever the side's flow SET is unchanged since the last fill, last time's
// order is a strong hint: recompute the bounds in the cached order and skip
// the O(d log d) sort entirely if they still come out sorted — the common
// case, since a neighbour's degree change shifts many bounds by the same
// factor. Either path yields the exact sequence a full sort would.
void FlowNetwork::fill_side(Rate capacity, AdjList& adj, bool side_is_up) {
    if (capacity == kUnlimited || adj.live() == 0) return;
    auto& scratch = fill_scratch_;
    scratch.clear();
    const auto bound_of = [&](std::uint32_t s) {
        const Flow& f = flow_at(s);
        const Host& other = side_is_up ? hosts_[f.dst.value] : hosts_[f.src.value];
        const double other_share = side_is_up ? naive_share(other.down, other.in.live())
                                              : naive_share(other.up, other.out.live());
        return std::min(f.cap, other_share);
    };
    if (adj.sorted_epoch == adj.epoch) {
        for (const auto s : adj.sorted) scratch.emplace_back(bound_of(s), s);
        if (std::is_sorted(scratch.begin(), scratch.end())) {
            ++stats_.resort_hits;
        } else {
            std::sort(scratch.begin(), scratch.end());
            for (std::size_t i = 0; i < scratch.size(); ++i) adj.sorted[i] = scratch[i].second;
            ++stats_.resort_misses;
        }
    } else {
        for (const auto s : adj.entries)
            if (s != kDeadSlot) scratch.emplace_back(bound_of(s), s);
        std::sort(scratch.begin(), scratch.end());
        adj.sorted.resize(scratch.size());
        for (std::size_t i = 0; i < scratch.size(); ++i) adj.sorted[i] = scratch[i].second;
        adj.sorted_epoch = adj.epoch;
        ++stats_.resort_misses;
    }
    double remaining = capacity;
    std::size_t k = scratch.size();
    double level = 0.0;
    std::size_t i = 0;
    for (; i < scratch.size(); ++i) {
        const double share = remaining / static_cast<double>(k);
        if (scratch[i].first <= share) {
            const double a = scratch[i].first;
            Flow& f = flow_at(scratch[i].second);
            (side_is_up ? f.alloc_src : f.alloc_dst) = a;
            remaining -= a;
            --k;
        } else {
            level = share;
            break;
        }
    }
    for (; i < scratch.size(); ++i) {
        Flow& f = flow_at(scratch[i].second);
        (side_is_up ? f.alloc_src : f.alloc_dst) = level;
    }
    for (const auto s : adj.entries)
        if (s != kDeadSlot) apply_rate(s);
}

void FlowNetwork::apply_rate(std::uint32_t slot) {
    Flow& f = flow_at(slot);
    if (!f.active) return;
    double r = std::min({f.cap, f.alloc_src, f.alloc_dst});
    r = std::min(r, kRateClamp);
    if (r < 0.0) r = 0.0;
    const double old = f.rate;
    const double diff = std::fabs(r - old);
    if (diff <= kEpsilon * std::max(old, r) && f.completion.valid()) return;
    settle(slot);
    f.rate = r;
    reschedule(slot);
}

}  // namespace netsession::net
