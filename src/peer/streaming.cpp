#include "peer/streaming.hpp"

#include <algorithm>
#include <cassert>

namespace netsession::peer {

StreamingSession::StreamingSession(net::World& world, NetSessionClient& client,
                                   const swarm::ContentObject& object, StreamingConfig config,
                                   DoneCallback on_done)
    : world_(&world),
      client_(&client),
      object_(&object),
      config_(config),
      on_done_(std::move(on_done)),
      have_(object.piece_count(), false) {}

void StreamingSession::start() {
    assert(!started_);
    started_ = true;
    session_start_ = world_->simulator().now();
    stalled_ = true;  // "stalled" until the startup buffer fills
    stall_start_ = session_start_;

    DownloadOptions options;
    options.sequential = true;
    options.on_piece = [this](swarm::PieceIndex piece) { on_piece(piece); };
    client_->begin_download(
        object_->id(),
        [this](const trace::DownloadRecord& record) { on_finished(record); },
        std::move(options));
}

void StreamingSession::on_finished(const trace::DownloadRecord& record) {
    download_done_ = true;
    metrics_.bytes_from_peers = record.bytes_from_peers;
    metrics_.bytes_from_infrastructure = record.bytes_from_infrastructure;
    if (record.outcome != trace::DownloadOutcome::completed) {
        // The download died under the player; report what we have.
        download_failed_ = true;
        finish_session(/*completed=*/false);
        return;
    }
    // Playback may still be waiting on the startup buffer (tiny objects).
    maybe_start_playback();
}

void StreamingSession::on_piece(swarm::PieceIndex piece) {
    have_[piece] = true;
    while (contiguous_ < have_.size() && have_[contiguous_]) ++contiguous_;
    maybe_start_playback();
}

double StreamingSession::piece_duration_s(swarm::PieceIndex piece) const {
    return 8.0 * static_cast<double>(object_->piece_length(piece)) / config_.bitrate_bps;
}

void StreamingSession::finish_session(bool completed) {
    metrics_.completed = completed;
    if (on_done_ == nullptr) return;
    auto cb = std::move(on_done_);
    on_done_ = nullptr;
    cb(metrics_);
}

void StreamingSession::maybe_start_playback() {
    if (playing_ || download_failed_ || on_done_ == nullptr) return;
    const auto buffer_target = static_cast<swarm::PieceIndex>(
        std::min<std::size_t>(have_.size(),
                              play_head_ + static_cast<std::size_t>(config_.startup_buffer_pieces)));
    if (contiguous_ < buffer_target) return;
    playing_ = true;
    if (stalled_) {
        const double waited = (world_->simulator().now() - stall_start_).seconds();
        if (play_head_ == 0)
            metrics_.startup_delay_s = waited;
        else
            metrics_.rebuffer_time_s += waited;
        stalled_ = false;
    }
    play_next();
}

void StreamingSession::play_next() {
    if (download_failed_ || on_done_ == nullptr) return;
    if (play_head_ >= have_.size()) {
        finish_session(/*completed=*/true);
        return;
    }
    if (play_head_ < contiguous_) {
        const double dt = piece_duration_s(play_head_);
        ++play_head_;
        world_->simulator().schedule_after(sim::seconds(dt), [this] { play_next(); });
        return;
    }
    // The play head caught up with the buffer: rebuffer.
    playing_ = false;
    stalled_ = true;
    stall_start_ = world_->simulator().now();
    ++metrics_.rebuffer_events;
}

}  // namespace netsession::peer
