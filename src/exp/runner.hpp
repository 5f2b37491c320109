// Sharded campaign execution.
//
// run_campaign() expands a manifest's grid, asks the aggregator which
// points already have rows (resume), and executes the rest as jobs on a
// runtime::ThreadPool. Every job derives its seeds from the manifest alone
// (see grid.hpp), so shard count, worker count, and scheduling order never
// change any number: `--jobs 1` and `--jobs 8` produce byte-identical
// output.
//
// Two scale-out directions compose with that guarantee:
//  * Process-level sharding (`shard_index`/`shard_count`): each process
//    owns the points with index ≡ shard_index (mod shard_count), writes an
//    independently resumable output, and merge_campaign() imports the
//    shard files into a full-grid campaign that finalizes into the
//    unsharded bytes.
//  * Replication-level parallelism (`rep_chunk`): a point's replications
//    are split into contiguous sub-jobs that run concurrently on the pool
//    and meet in an order-independent reduction (world::reduce_runs), so a
//    one-point 10k-replication study still saturates every core.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "runtime/thread_pool.hpp"

namespace pas::serve {
class CampaignFeed;
}  // namespace pas::serve

namespace pas::exp {

struct CampaignOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run serially in-line.
  std::size_t jobs = 0;
  /// Load `out_csv` (if present) and skip points that already have rows.
  /// Without this flag an existing output file is an error, not data loss.
  bool resume = false;
  /// CSV output path; empty aggregates in memory only (examples, tests).
  std::string out_csv;
  /// Optional per-replication CSV (one row per run) for p95/p99 reporting.
  std::string per_run_csv;
  /// Optional telemetry JSONL (one row per point: kernel + protocol
  /// counters, sleep histogram; see exp/telemetry.hpp). Requires out_csv:
  /// the rows ride its row store. Also enables the campaign-wide
  /// obs::Registry whose snapshot trails the file.
  std::string metrics_path;
  /// This process executes points with index ≡ shard_index (mod
  /// shard_count). The default 0/1 runs the whole grid.
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
  /// Explicit point ownership: this process computes exactly these indices
  /// (any order; duplicates collapse; an empty list computes nothing).
  /// Replaces the modulo split above — setting both is an error. Arbitrary
  /// subsets let tests fabricate partial shard files directly.
  std::optional<std::vector<std::size_t>> owned_points;
  /// Replications per sub-job within a point. 0 = automatic: whole points
  /// when the grid alone saturates the pool, smaller chunks otherwise.
  /// manifest.replications (or larger) forces one job per point.
  std::size_t rep_chunk = 0;
  /// Invoked after each point completes (serialized; never concurrently).
  std::function<void(const PointSummary&, std::size_t done,
                     std::size_t total)>
      progress;
  /// Live-observability hub (serve/feed.hpp). When set, the campaign
  /// publishes begin/point/progress/end into it and installs a registry
  /// snapshot as the feed's metrics source (cleared again before return).
  /// The feed only ever receives copies — attaching one cannot change a
  /// single output byte.
  serve::CampaignFeed* feed = nullptr;
  /// Identity reported through the feed (0 = the CLI campaign; submitted
  /// manifests get ids from POST /api/campaigns).
  std::uint64_t campaign_id = 0;
  /// Polled between replication chunks; returning true stops the campaign
  /// gracefully: in-flight points finish or are abandoned whole (a partial
  /// point never produces a row), finalize is skipped, and the outputs are
  /// left exactly as resumable as after a kill. Null = never stop.
  std::function<bool()> should_stop;
};

struct CampaignReport {
  std::size_t total_points = 0;  // full grid, all shards
  std::size_t owned_points = 0;  // points this shard is responsible for
  std::size_t computed = 0;      // points simulated by this invocation
  std::size_t skipped = 0;       // points recovered from the resume file
  std::size_t replications = 0;
  double wall_s = 0.0;
  /// True when should_stop ended the campaign early; outputs are left
  /// resumable (no finalize pass ran).
  bool interrupted = false;
};

/// The aggregator options of a campaign over `points` (the manifest's
/// expanded grid) that writes `out_csv` and the optional per-run and
/// telemetry outputs. Every process that records or exports the campaign's
/// rows (run_campaign, drive workers, the driver, --export) builds its
/// aggregator from these, so their row stores share one identity.
[[nodiscard]] AggregatorOptions campaign_aggregator_options(
    const Manifest& manifest, const std::vector<GridPoint>& points,
    std::string out_csv, std::string per_run_csv, std::string metrics_path);

/// Recombines finished shard outputs (pas-exp --merge): a full-grid
/// campaign of `manifest` whose row store is filled from `inputs` — point
/// CSVs, per-run CSVs and telemetry files in any order and any row order
/// (Aggregator::import_outputs) — instead of computed, then finalized
/// through the serial export, so `out_csv`, `per_run_csv` and
/// `metrics_path` get the bytes of an unsharded run (the telemetry file
/// without a trailer). Existing artifacts are overwritten. Throws
/// std::runtime_error when `out_csv`'s row store exists (an in-flight
/// campaign's; left unchanged), when an input is refused, when the import
/// dropped a row (naming the first: a torn row, an overlap, a row outside
/// the grid), when a point is incomplete (naming the first: a missing
/// or unfinished shard), or, with `metrics_path`, when a point has no
/// telemetry row (a shard's telemetry file is missing). A refused merge leaves no artifact, temp file or
/// row store behind; a killed one leaves a store that a resume finishes.
/// Returns the number of merged points.
std::size_t merge_campaign(const Manifest& manifest,
                           const std::vector<std::string>& inputs,
                           std::string out_csv, std::string per_run_csv,
                           std::string metrics_path);

/// Executes the campaign (or this process's shard of it). Throws on
/// manifest/IO errors; a failing point's exception propagates after
/// in-flight jobs drain.
CampaignReport run_campaign(const Manifest& manifest,
                            const CampaignOptions& options);

}  // namespace pas::exp
