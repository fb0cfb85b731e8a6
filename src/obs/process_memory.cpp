#include "obs/process_memory.hpp"

#include <cstdio>
#include <cstring>

namespace netsession::obs {

namespace {

/// Parses "VmRSS:     123456 kB" style lines; returns bytes, 0 if absent.
std::size_t parse_kb_line(const char* line, const char* key) {
    const std::size_t key_len = std::strlen(key);
    if (std::strncmp(line, key, key_len) != 0) return 0;
    unsigned long long kb = 0;
    if (std::sscanf(line + key_len, " %llu", &kb) != 1) return 0;
    return static_cast<std::size_t>(kb) * 1024;
}

}  // namespace

ProcessMemory read_process_memory() {
    ProcessMemory m;
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return m;
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::size_t v = parse_kb_line(line, "VmRSS:"); v != 0) m.rss_bytes = v;
        if (std::size_t v = parse_kb_line(line, "VmHWM:"); v != 0) m.peak_rss_bytes = v;
    }
    std::fclose(f);
    return m;
}

}  // namespace netsession::obs
