// Machine-readable run export: the versioned "parcoll-run" JSON schema.
//
// One document per run: tool + config, the measured result (elapsed,
// bytes, bandwidth), the per-category time breakdown, the file's
// close-time statistics, fault and integrity counters, the metrics
// registry dump, and — when tracing was on — the collective-wall report.
// The schema tag and version let downstream tooling
// (tools/bench_to_trajectory, CI trend jobs) validate documents before
// folding them into BENCH_*.json.
//
// The counter objects of the document ("stats", "faults", "integrity")
// are also mirrored into the metrics registry at collect time, by
// flattening the very JSON the document carries (export_json), so the
// registry keys are the document's paths and cannot drift from it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace parcoll::mpi {
struct TimeBreakdown;
}

namespace parcoll::obs {

class MetricsRegistry;

inline constexpr const char* kRunSchema = "parcoll-run";
inline constexpr int kRunSchemaVersion = 3;

[[nodiscard]] JsonValue time_breakdown_json(const mpi::TimeBreakdown& time);
[[nodiscard]] JsonValue metrics_json(const MetricsRegistry& metrics);

/// Mirror every numeric leaf of `doc` into the registry under its dotted
/// path below `prefix` ("stats" + {"bb": {"spills": 3}} -> "stats.bb.spills"):
/// integers as counters, doubles as gauges.
void export_json(MetricsRegistry& metrics, const std::string& prefix,
                 const JsonValue& doc);

/// Envelope: {"schema": "parcoll-run", "version": 2, "tool": tool,
/// "config": config, ...} — callers then set "result", "metrics",
/// "wall_report", ... on the returned object.
[[nodiscard]] JsonValue run_document(const std::string& tool,
                                     JsonValue config);

/// Write `doc` to `path` (pretty-printed, trailing newline). Throws
/// std::runtime_error when the file cannot be opened.
void write_json_file(const std::string& path, const JsonValue& doc);

}  // namespace parcoll::obs
