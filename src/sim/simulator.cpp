#include "sim/simulator.hpp"

namespace netsession::sim {

EventHandle Simulator::schedule_at(SimTime at, Callback cb) {
    if (at < now_) at = now_;
    const std::uint64_t seq = next_seq_++;
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.seq = seq;
    queue_.push(HeapEntry{at, seq, slot});
    ++live_;
    ++stats_.scheduled;
    if (s.cb.heap_allocated()) ++stats_.callback_heap_allocs;
    return EventHandle{seq, slot};
}

bool Simulator::cancel(EventHandle h) {
    if (!h.valid() || h.slot_ >= slots_.size()) return false;
    Slot& s = slots_[h.slot_];
    // A dispatched, cancelled, or recycled slot no longer carries the
    // handle's seq, so stale cancels fall out here without any bookkeeping.
    if (s.seq != h.seq_) return false;
    s.seq = 0;
    s.cb.reset();  // release captures now; the heap entry drains lazily
    --live_;
    ++stats_.cancelled;
    return true;
}

bool Simulator::purge_cancelled_top() {
    while (!queue_.empty()) {
        const HeapEntry& e = queue_.top();
        if (slots_[e.slot].seq == e.seq) return true;
        // Stale entry: its event was cancelled. The slot could not be reused
        // while this entry was queued; recycle it now.
        free_slots_.push_back(e.slot);
        queue_.pop();
    }
    return false;
}

bool Simulator::step() {
    if (!purge_cancelled_top()) return false;
    const HeapEntry e = queue_.top();
    queue_.pop();
    Slot& s = slots_[e.slot];
    Callback cb = std::move(s.cb);
    s.seq = 0;
    free_slots_.push_back(e.slot);
    now_ = e.at;
    ++stats_.dispatched;
    --live_;
    cb();
    return true;
}

void Simulator::run() {
    while (step()) {
    }
}

void Simulator::run_until(SimTime until) {
    // The bound must be checked against the next *live* event — a cancelled
    // event at the top must not let a far-future event slip through.
    while (purge_cancelled_top() && queue_.top().at <= until) step();
    if (now_ < until) now_ = until;
}

}  // namespace netsession::sim
