#include "obs/sampler.hpp"

namespace netsession::obs {

Sampler::Sampler(sim::Simulator& sim, const Registry& registry, trace::TraceLog& log,
                 SamplerConfig config)
    : sim_(&sim), registry_(&registry), log_(&log), config_(config) {}

void Sampler::start(sim::SimTime until) {
    if (config_.interval.us <= 0) return;
    until_ = until;
    sim_->schedule_after(config_.interval, [this] { tick(); });
}

void Sampler::intern_ids() {
    if (ids_interned_) return;
    ids_interned_ = true;
    ids_.reserve(registry_->size());
    for (const auto& e : registry_->entries()) {
        SeriesIds ids;
        if (e.kind == Kind::histogram) {
            ids.primary = log_->intern_metric(e.name + ".count");
            ids.sum = log_->intern_metric(e.name + ".sum");
        } else {
            ids.primary = log_->intern_metric(e.name);
        }
        ids_.push_back(ids);
    }
}

void Sampler::sample_now() {
    intern_ids();
    const sim::SimTime now = sim_->now();
    const auto& entries = registry_->entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto& e = entries[i];
        trace::MetricPointRecord point;
        point.time = now;
        point.metric = ids_[i].primary;
        point.value = Registry::scalar_value(e);
        log_->add(point);
        if (e.kind == Kind::histogram) {
            trace::MetricPointRecord sum;
            sum.time = now;
            sum.metric = ids_[i].sum;
            sum.value = e.histogram->sum;
            log_->add(sum);
        }
    }
    ++samples_taken_;
}

void Sampler::finish() {
    if (final_taken_) return;
    final_taken_ = true;
    sample_now();
}

void Sampler::tick() {
    if (sim_->now() >= until_) {
        finish();
        return;
    }
    sample_now();
    sim_->schedule_after(config_.interval, [this] { tick(); });
}

}  // namespace netsession::obs
