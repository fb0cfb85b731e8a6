// In-memory spans for the benchmark's traced run.
//
// A span is a named interval of host time with the span that was open when it
// started as its parent. The benchmark opens them around its own calls into
// each layer's public functions; nothing inside the simulator is
// instrumented. Spans stay in memory until write() at exit. With tracing off,
// open() and close() record nothing, but timed() still returns the elapsed
// time, so the untraced run measures with the same code.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds of steady-clock time since the first call in this process.
inline double now_s() {
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

class Spans {
public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    /// Opens a span under the innermost open one; returns its id (-1 when off).
    int open(std::string name) {
        if (!enabled_) return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{std::move(name), now_s(), 0.0, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void close(int id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_s = now_s();
        stack_.pop_back();
    }

    /// Writes every span as a JSON array of {name, start_s, end_s, parent};
    /// returns false on I/O failure.
    bool write(const std::string& path) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) return false;
        std::fputs("[\n", f);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f, "  {\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, \"parent\": %d}%s\n",
                         s.name.c_str(), s.start_s, s.end_s, s.parent,
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        return std::fclose(f) == 0;
    }

private:
    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1;
    };
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/// Runs `fn` inside a span named `name`; returns its wall time in seconds.
template <typename Fn>
double timed(Spans& spans, std::string name, Fn&& fn) {
    const int id = spans.open(std::move(name));
    const double start = now_s();
    fn();
    const double elapsed = now_s() - start;
    spans.close(id);
    return elapsed;
}

}  // namespace perfbench
