// Video streaming on NetSession (paper §3.4: "NetSession also supports
// video streaming", little used in the 2012 trace because of the
// install-a-client requirement — implemented here as the paper's named
// extension).
//
// A StreamingSession runs a sequential peer-assisted download and plays it
// back at the media bitrate: playback starts once a startup buffer is
// contiguous, stalls (rebuffers) whenever the play head catches up with the
// contiguous prefix, and resumes when the buffer refills. The session
// reports the standard QoE metrics: startup delay, rebuffer count/time, and
// delivery mix.
#pragma once

#include <functional>
#include <vector>

#include "peer/netsession_client.hpp"
#include "swarm/content.hpp"

namespace netsession::peer {

struct StreamingConfig {
    /// Media bitrate (bits per second of playback).
    double bitrate_bps = 4e6;
    /// Contiguous pieces required before playback starts / resumes.
    int startup_buffer_pieces = 2;
};

/// QoE summary of one viewing session.
struct StreamingMetrics {
    double startup_delay_s = 0;
    int rebuffer_events = 0;
    double rebuffer_time_s = 0;
    bool completed = false;
    Bytes bytes_from_peers = 0;
    Bytes bytes_from_infrastructure = 0;
};

class StreamingSession {
public:
    using DoneCallback = std::function<void(const StreamingMetrics&)>;

    /// `client` must outlive the session; `object` must be the published
    /// content the session will stream.
    StreamingSession(net::World& world, NetSessionClient& client,
                     const swarm::ContentObject& object, StreamingConfig config,
                     DoneCallback on_done);

    /// Begins the download and the playback state machine.
    void start();

    [[nodiscard]] const StreamingMetrics& metrics() const noexcept { return metrics_; }
    [[nodiscard]] bool playing() const noexcept { return playing_; }
    /// Seconds of media one piece carries at the configured bitrate.
    [[nodiscard]] double piece_duration_s(swarm::PieceIndex piece) const;

private:
    void on_piece(swarm::PieceIndex piece);
    void on_finished(const trace::DownloadRecord& record);
    void maybe_start_playback();
    void play_next();
    void finish_session(bool completed);

    net::World* world_;
    NetSessionClient* client_;
    const swarm::ContentObject* object_;
    StreamingConfig config_;
    DoneCallback on_done_;
    StreamingMetrics metrics_;

    swarm::PieceIndex contiguous_ = 0;  // pieces [0, contiguous_) are buffered
    swarm::PieceIndex play_head_ = 0;   // next piece to play
    std::vector<bool> have_;
    bool started_ = false;
    bool playing_ = false;
    bool download_done_ = false;
    bool download_failed_ = false;
    sim::SimTime session_start_{};
    sim::SimTime stall_start_{};
    bool stalled_ = false;
};

}  // namespace netsession::peer
