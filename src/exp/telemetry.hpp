// Campaign telemetry rows (pas-exp --metrics).
//
// One JSONL row per completed grid point. The row is built here, but it is
// stored like any other campaign row: Aggregator::record() appends it to the
// point's row-store batch (RowStore::Kind::kTelemetry), so the point's CSV
// row and telemetry row commit together, and the Aggregator's sorted export
// writes the --metrics file next to the CSVs, followed by any trailer rows
// (a campaign-wide registry snapshot, the orchestrator's wall-clock
// instruments) at finalize.
//
// A point row is a pure function of the point's identity and its
// replications' RunMetrics, so `--jobs 1`, `--jobs 8`, `--shard`, and
// `--drive` all produce identical point rows; only wall-clock trailer
// content (orchestrator latencies) may differ between schedules.
//
// Row schema (keys sorted by io::Json):
//   {"kind":"point","point":N,"seed":"<u64>","replications":R,
//    "policy":"PAS","axes":{...},"kernel":{...},"protocol":{...}}
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "exp/grid.hpp"
#include "io/json.hpp"
#include "world/sweep.hpp"

namespace pas::exp {

/// Builds the per-point telemetry row from a point's replicated runs.
[[nodiscard]] io::Json telemetry_point_row(
    const GridPoint& point, const std::vector<std::string>& axis_names,
    const world::ReplicatedMetrics& m);

/// Returns the point index of a JSONL telemetry point row, or SIZE_MAX when
/// the line is not a parseable point row (garbage, a trailer row) or its
/// index is not below `total_points` (0 = unbounded).
[[nodiscard]] std::size_t parse_point_row(const std::string& line,
                                          std::size_t total_points);

}  // namespace pas::exp
