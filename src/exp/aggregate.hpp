// Resumable campaign aggregation.
//
// The Aggregator owns the campaign's output files. Completed points stream
// in (from any thread, in any order). Each point's rows are appended to a
// binary ".pasrows" row store (see row_store.hpp) and flushed at the point
// boundary, so a killed campaign leaves a valid, loadable record of
// everything it finished; the aggregator itself keeps only O(grid)
// completion bitmaps. On resume it reads that record back and reports which
// points are already done; the runner then schedules only the rest.
//
// A point's optional --metrics telemetry row (exp/telemetry.hpp) rides the
// same batch, so the point's CSV row and telemetry row commit together.
//
// finalize()/compact() render the point CSV, per-replication CSV and
// telemetry JSONL artifacts through an external-merge export — sorted spill
// runs of bounded size, k-way merged by (point, rep) — so memory stays
// O(spill budget) and the artifact is byte-identical no matter how many
// threads produced it or how many times the campaign was resumed. In flight
// the store is the ground truth (the CSV only materializes at export);
// finalize() deletes the store, and resuming from a bare CSV seeds a fresh
// store through the CSV readers.
//
// Without a CSV path (benches, examples, unit tests) nothing is written:
// the aggregator only tracks completion and keeps the point summaries.
//
// Sharding: a campaign may be split across processes/machines with
// `owned_points` — each shard aggregates only its own subset of the grid
// into its own files, and merge_outputs() recombines the finalized shard
// files into the exact bytes an unsharded run would have written.
//
// The JSON-lines artifact is not written here: render_jsonl() derives it
// from a finalized point CSV, whichever mode produced that CSV.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "world/sweep.hpp"

namespace pas::exp {

/// One grid point's aggregate over its replications — ReplicatedMetrics
/// minus the per-run vector, cheap enough to keep for 10k-point campaigns.
struct PointSummary {
  std::size_t point = 0;
  std::uint64_t seed = 0;
  std::size_t replications = 0;
  metrics::Summary delay_s;
  metrics::Summary energy_j;
  metrics::Summary active_fraction;
  double mean_missed = 0.0;
  double mean_broadcasts = 0.0;

  [[nodiscard]] static PointSummary of(std::size_t point, std::uint64_t seed,
                                       const world::ReplicatedMetrics& m);
};

struct AggregatorOptions {
  /// CSV output path; empty aggregates in memory only (benches, tests).
  std::string csv_path;
  /// Optional per-replication CSV (one row per run); requires
  /// `replications` so resume can tell complete groups from torn ones.
  std::string per_run_path;
  /// Optional telemetry JSONL (--metrics): record()'s telemetry rows,
  /// exported in point order. Requires csv_path. When empty, telemetry
  /// records in the store are ignored.
  std::string metrics_path;
  std::vector<std::string> axis_names;
  std::size_t total_points = 0;
  /// Replications per point; only consulted when per_run_path is set.
  std::size_t replications = 0;
  /// Each point's expected {seed, axis values...} cells; resume uses it to
  /// reject rows computed under a different manifest. Empty disables the
  /// check (unit tests); the runner always passes it from the grid.
  std::vector<std::vector<std::string>> expected_identity;
  /// Point indices this shard owns, ascending. Empty means all points.
  /// pending()/finalize() consider only owned points, and resume rejects
  /// rows for foreign points (they signal a wrong --shard/--out pairing).
  std::vector<std::size_t> owned_points;
  /// Binary row-store location; empty means RowStore::path_for(csv_path).
  /// Setting it requires csv_path.
  std::string store_path;
  /// Spill-buffer budget for the external-merge export, in bytes.
  /// 0 selects the default (32 MiB); tests shrink it to force multi-run
  /// spills on small campaigns.
  std::size_t spill_budget_bytes = 0;
};

class Aggregator {
 public:
  explicit Aggregator(AggregatorOptions options);

  /// Convenience constructor for the common no-shard, no-per-run case.
  Aggregator(std::string csv_path, std::vector<std::string> axis_names,
             std::size_t total_points,
             std::vector<std::vector<std::string>> expected_identity = {});

  /// Loads completed rows from the existing output files (resume). Throws
  /// std::runtime_error if a file exists but its header does not match
  /// this campaign's columns, if a recovered row's seed/axis values
  /// disagree with the expected identity, or if a row belongs to a point
  /// outside this shard (all are manifest/output mismatches: resuming
  /// would silently produce wrong data). A point whose per-run rows are
  /// missing or torn is dropped and recomputed. When metrics_path names an
  /// existing file, its point rows are imported for owned, in-grid points
  /// that have no telemetry record yet; garbage, trailer, foreign and
  /// out-of-grid lines are dropped silently (a finalized campaign, a
  /// compacted worker part, or one written before telemetry rode the
  /// store). Returns the number of points recovered. Call before the first
  /// record().
  std::size_t load_existing();

  /// True if `point` already has a row (recorded now or recovered).
  [[nodiscard]] bool is_done(std::size_t point) const;

  /// Owned indices with no row yet, ascending.
  [[nodiscard]] std::vector<std::size_t> pending() const;

  /// Records one completed point. Thread-safe; appends + flushes to the row
  /// store so the point survives a kill. `axis_values` must align with the
  /// axis_names given at construction. A non-empty `telemetry_row` (one
  /// JSONL line, no newline) is stored in the same batch.
  void record(std::size_t point, std::uint64_t seed,
              const std::vector<std::string>& axis_values,
              const world::ReplicatedMetrics& m,
              std::string telemetry_row = {});

  /// Exports the output files in point order (temp file + atomic rename)
  /// and deletes the row store; `trailers` are appended to the telemetry
  /// file after its point rows. Requires every owned point recorded; throws
  /// std::logic_error otherwise.
  void finalize(const std::vector<std::string>& trailers = {});

  /// finalize() without the completeness requirement or trailers: exports
  /// whatever is recorded so far in point order and keeps the store.
  /// Orchestrator workers call this on clean shutdown so a part file is
  /// always sorted and free of torn rows even though the worker owns only
  /// the leases it happened to receive.
  void compact();

  /// Forgets the given points (recorded or recovered) by appending
  /// tombstones to the store; the next export omits them. The
  /// orchestrator's crash recovery uses this to drop rows that a dead
  /// worker wrote for a point another worker already completed — the
  /// duplicate would otherwise poison merge_outputs().
  void discard_points(const std::vector<std::size_t>& points);

  /// Point indices that currently have a row, ascending.
  [[nodiscard]] std::vector<std::size_t> done_points() const;

  [[nodiscard]] std::size_t done_count() const;
  [[nodiscard]] std::size_t total_points() const noexcept { return total_points_; }
  /// Number of points this shard owns (== total_points() unsharded).
  [[nodiscard]] std::size_t owned_count() const noexcept {
    return owned_.empty() ? total_points_ : owned_count_;
  }

  /// Summaries recorded *this process* (resumed rows are not re-parsed into
  /// summaries), keyed by point index.
  [[nodiscard]] const std::map<std::size_t, PointSummary>& summaries() const noexcept {
    return summaries_;
  }

  /// Full column list: "point", "seed", the axis columns, then metrics.
  [[nodiscard]] const std::vector<std::string>& columns() const noexcept {
    return columns_;
  }

  /// Per-run column list: "point", "rep", "seed", axes, per-run metrics.
  [[nodiscard]] const std::vector<std::string>& per_run_columns() const noexcept {
    return per_run_columns_;
  }

  /// The metric column names shared by every campaign CSV.
  [[nodiscard]] static std::vector<std::string> metric_columns();

  /// The metric column names of the per-replication CSV.
  [[nodiscard]] static std::vector<std::string> per_run_metric_columns();

 private:
  [[nodiscard]] std::string csv_line(const std::vector<std::string>& cells) const;
  [[nodiscard]] bool owns(std::size_t point) const {
    return point < total_points_ && (owned_.empty() || owned_[point] != 0);
  }
  /// Shared resume-file reader: header validation, torn-row dropping,
  /// bounds and shard-ownership checks; `on_row` receives each surviving
  /// row's (point, rep, cells) — rep is 0 when key_arity is 1.
  void load_rows_file(
      const std::string& path, const std::vector<std::string>& want_header,
      const char* flag_hint, std::size_t key_arity,
      const std::function<void(std::size_t, std::size_t,
                               std::vector<std::string>)>& on_row);
  /// point → summary row cells.
  std::map<std::size_t, std::vector<std::string>> load_point_rows();
  /// point → replication → per-run row cells.
  std::map<std::size_t, std::map<std::size_t, std::vector<std::string>>>
  load_per_run_rows();
  /// Creates/opens the store lazily. Caller must hold mutex_.
  void ensure_store();
  /// load_existing: scans the store into the done bitmap, or seeds a fresh
  /// store from an existing CSV (a finalized or bare artifact).
  std::size_t load_store();
  std::size_t seed_store_from_csv();
  /// load_store: appends the metrics file's rows for points whose entry in
  /// `telemetry_live` is 0.
  void import_telemetry(std::vector<std::uint8_t> telemetry_live);
  /// finalize/compact: external-merge export of the point CSV, per-run and
  /// telemetry artifacts (spill runs + k-way merge). Caller must hold mutex_.
  void export_store(const std::vector<std::string>& trailers);

  std::string csv_path_;
  std::string per_run_path_;
  std::string metrics_path_;
  std::size_t axis_count_ = 0;
  std::size_t total_points_ = 0;
  std::size_t replications_ = 0;
  std::vector<std::string> columns_;
  std::vector<std::string> per_run_columns_;
  std::vector<std::vector<std::string>> expected_identity_;
  /// Ownership bitmap indexed by point; empty means "owns everything".
  std::vector<std::uint8_t> owned_;
  std::size_t owned_count_ = 0;

  mutable std::mutex mutex_;
  std::map<std::size_t, PointSummary> summaries_;
  bool loaded_ = false;

  // The open row store plus an O(grid) completion bitmap — no row content
  // is held in memory. store_path_ is empty exactly when csv_path_ is.
  std::string store_path_;
  std::size_t spill_budget_bytes_ = 0;
  std::uint64_t identity_hash_ = 0;
  std::unique_ptr<RowStore> store_;
  std::vector<std::uint8_t> done_;
  std::size_t done_count_ = 0;
};

/// Recombines finalized shard outputs into `out_path`, byte-identical to
/// the file an unsharded run would have produced. All inputs must carry an
/// identical header and list their rows in ascending (point, rep) order, as
/// finalize(), compact() and --export write them; an unsorted input is
/// rejected (resuming its campaign re-exports it sorted). Every
/// (point, rep) may appear in exactly one input, and the merged point set
/// must be gap-free from 0. Works for both the
/// point-summary CSV and the per-run CSV (recognized by its "rep" column).
///
/// When `manifest` is non-null the merge additionally validates the inputs
/// against it: the header must match the manifest's output columns, every
/// row's seed/axis cells must match the expanded grid, and the merged file
/// must cover the full grid — so shards of *different* manifests (or stale
/// outputs) are rejected instead of silently combined.
///
/// Returns the number of merged data rows.
std::size_t merge_outputs(const std::vector<std::string>& inputs,
                          const std::string& out_path,
                          const Manifest* manifest = nullptr);

/// Renders a finalized point CSV as JSON lines: one object per data row,
/// keys in column order; a cell that parses whole as a finite number is
/// emitted raw, "nan"/"inf" as null, anything else as a string. Streams one
/// row at a time into `<jsonl_path>.tmp`, then renames it into place.
/// Throws std::runtime_error, leaving neither the temp file nor a partial
/// output, if `point_csv` cannot be read, its header does not start with
/// "point,seed" (e.g. a per-run CSV), or a row's cell count differs from
/// the header's.
void render_jsonl(const std::string& point_csv, const std::string& jsonl_path);

}  // namespace pas::exp
