// Binary (de)serialisation of a trace data set: the control-plane logs plus
// the geolocation database needed to analyse them. Lets one expensive
// scenario run feed every table/figure bench (and supports exporting traces
// for offline analysis).
//
// Format: little-endian host dump with a magic/version header; intended for
// same-machine round trips, not as an interchange format. Every POD record
// section starts on a 64-byte-aligned file offset (v7); the geo table is
// written in ascending IP order, so a save is a pure function of the data
// set. load_dataset reads the file once with fread, checking every count
// against the bytes left before allocating for it, so a truncated or
// inflated section fails the load instead of over-reading or over-allocating.
#pragma once

#include <string>

#include "net/geodb.hpp"
#include "trace/trace_log.hpp"

namespace netsession::trace {

/// Everything an analysis needs from one measurement run.
struct Dataset {
    TraceLog log;
    net::GeoDatabase geodb;
};

/// Writes the log and its geo database atomically: the bytes go to
/// `path + ".tmp"` and are renamed over `path` only once every write (and the
/// close) succeeded, so a crash or full disk can never leave a truncated file
/// under the real name. Returns false on I/O failure (the temp file is
/// removed). Takes the parts by reference so a Simulation's own trace and
/// geodb can be saved without copying them into a Dataset.
bool save_dataset(const TraceLog& log, const net::GeoDatabase& geodb, const std::string& path);

inline bool save_dataset(const Dataset& dataset, const std::string& path) {
    return save_dataset(dataset.log, dataset.geodb, path);
}

/// Reads a data set previously written by save_dataset; returns false on
/// I/O failure, bad magic, version mismatch, a truncated/corrupt file, or an
/// index outside its table (metric id, geo country) — in which case
/// `dataset` is left exactly as the caller passed it (the file is parsed
/// into a local Dataset and swapped in only on success).
bool load_dataset(Dataset& dataset, const std::string& path);

}  // namespace netsession::trace
