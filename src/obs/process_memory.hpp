// Process-level memory readings (current and peak RSS) from
// /proc/self/status. RSS depends on the allocator, the platform, and whatever
// else ran in the process, so it never enters a trace; benches and perfbench
// read it directly (BENCH_headline.json, peak_rss_mib).
#pragma once

#include <cstddef>

namespace netsession::obs {

struct ProcessMemory {
    std::size_t rss_bytes = 0;       ///< VmRSS — resident set right now
    std::size_t peak_rss_bytes = 0;  ///< VmHWM — resident high-water mark
};

/// Reads /proc/self/status; all-zero on platforms without procfs.
[[nodiscard]] ProcessMemory read_process_memory();

}  // namespace netsession::obs
