#include "obs/metrics.hpp"

namespace netsession::obs {

void Registry::add_counter(std::string name, const Counter* c) {
    if (c == nullptr || index_.contains(std::string_view{name})) return;
    Entry e;
    e.name = std::move(name);
    e.kind = Kind::counter;
    e.counter = c;
    index_[e.name] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(e));
}

void Registry::add_computed(std::string name, std::function<double()> fn) {
    if (!fn || index_.contains(std::string_view{name})) return;
    Entry e;
    e.name = std::move(name);
    e.kind = Kind::gauge;
    e.computed = std::move(fn);
    index_[e.name] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(e));
}

void Registry::add_histogram(std::string name, const Histogram* h) {
    if (h == nullptr || index_.contains(std::string_view{name})) return;
    Entry e;
    e.name = std::move(name);
    e.kind = Kind::histogram;
    e.histogram = h;
    index_[e.name] = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(std::move(e));
}

double Registry::scalar_value(const Entry& e) {
    switch (e.kind) {
        case Kind::counter: return static_cast<double>(e.counter->value);
        case Kind::gauge: return e.computed();
        case Kind::histogram: return static_cast<double>(e.histogram->count);
    }
    return 0.0;
}

const Registry::Entry* Registry::find(std::string_view name) const {
    const std::uint32_t* idx = index_.find_value(name);
    return idx == nullptr ? nullptr : &entries_[*idx];
}

}  // namespace netsession::obs
