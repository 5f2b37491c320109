// Multi-process campaign supervisor (the third layer of the scale stack:
// threads → static shards → supervised dynamic shards).
//
// drive() turns one manifest into a fault-tolerant multi-process campaign:
// it fork/execs W `pas-exp --worker` children, hands out point-range
// leases from a work-stealing queue (src/orch/queue.hpp — dynamic sizing
// beats PR 2's static modulo split when points have uneven cost), tracks
// liveness through the heartbeat/progress protocol (src/orch/worker_link
// .hpp), and recovers from failure:
//
// The driver owns the campaign's one exp::Aggregator on --out/--per-run/
// --metrics, built exactly as run_campaign builds its own. Each worker
// records into its own part store `<out>.w<k>.pasrows`. After every
// `lease_done` the driver absorbs the batches the worker committed since
// the last absorb into its own store (exp::Aggregator::absorb from the
// part's offset: complete point batches only, first absorb wins); whenever
// the worker exits it absorbs the remainder and deletes the part:
//
//  * Clean exit (after `quit`): every point was already claimed through
//    the protocol.
//  * Crashed worker (non-zero exit, SIGKILL, protocol violation): rows are
//    flushed before `point_done` is sent, so the part is ground truth;
//    points it holds that the protocol never claimed count as recovered.
//    The unfinished lease points go back to the queue, and a replacement
//    is spawned (bounded by max_respawns).
//  * Hung worker (no protocol line for hang_timeout_s): SIGKILLed and
//    handled as a crash.
//  * SIGINT/SIGTERM: children are terminated and their parts absorbed, so
//    an interrupted drive leaves the single `<out>.pasrows` an interrupted
//    serial run leaves (pas-exp --export, a serial --resume and
//    `--drive N --resume` all finish it); the CLI prints the exact command
//    that continues the campaign.
//
// On completion the driver finalizes its aggregator — the same export a
// serial run ends with, plus the orchestrator's registry trailer — so the
// output is byte-identical to a serial `pas-exp` run, because every
// point's seeds derive from the manifest alone.
//
// Resume composes across topologies: `--drive --resume` loads the store
// (or finalized CSVs) of any earlier run and absorbs the parts of a drive
// that was killed before it could, then schedules only the rest.
#pragma once

#include <cstdint>
#include <string>

#include "exp/manifest.hpp"

namespace pas::serve {
class CampaignFeed;
}  // namespace pas::serve

namespace pas::orch {

struct DriveOptions {
  /// Binary to exec as workers (normally the running pas-exp itself; see
  /// self_exe_path()).
  std::string exe_path;
  /// Manifest file path handed to workers (they re-load and re-expand it,
  /// which is what keeps every process's view of point seeds identical).
  std::string manifest_path;
  std::string out_csv;
  /// Optional per-replication CSV; workers record its rows in their parts.
  std::string per_run_csv;
  /// Optional telemetry JSONL (pas-exp --metrics). Workers record each
  /// point's row in their parts; the driver's export appends its own
  /// orchestrator-scope registry snapshot (lease latency, heartbeat gaps,
  /// respawns) as the trailer row. Also arms the driver-side instruments.
  std::string metrics_path;
  /// Worker processes to spawn (capped by the number of pending points).
  std::size_t workers = 2;
  /// Threads per worker for replication-parallel points.
  std::size_t jobs_per_worker = 1;
  /// Resume the existing --out store (or CSVs) and part stores instead of
  /// erroring.
  bool resume = false;
  /// Kill a worker silent for this long (heartbeats tick every 0.5 s);
  /// 0 disables hang detection.
  double hang_timeout_s = 120.0;
  /// Replacement-spawn budget for crashed/hung workers; exceeding it with
  /// work outstanding aborts the drive.
  std::size_t max_respawns = 8;
  /// Cap on points per lease.
  std::size_t max_lease = 64;

  enum class Verbosity {
    kQuiet,     // nothing
    kPerPoint,  // one line per completed point
    kPeriodic,  // one status line per progress_interval_s (--progress)
  };
  Verbosity verbosity = Verbosity::kPerPoint;
  double progress_interval_s = 1.0;

  /// Live-observability hub (serve/feed.hpp). The driver publishes the
  /// worker table, point completions, crash/respawn/recovery events, and
  /// throttled progress into it; with --progress the feed also renders
  /// the classic status lines, so the terminal and any SSE stream are two
  /// views of the same counters. Null = the driver owns a private feed
  /// (progress unification still applies; nothing is retained).
  serve::CampaignFeed* feed = nullptr;
};

struct DriveReport {
  std::size_t total_points = 0;
  std::size_t computed = 0;  // points simulated by this invocation
  std::size_t resumed = 0;   // points loaded from existing outputs/parts
  std::size_t replications = 0;
  std::size_t workers_spawned = 0;  // initial spawns + respawns
  std::size_t crashes = 0;          // workers that died without clean quit
  std::size_t respawns = 0;
  std::size_t merged_rows = 0;  // point rows in the finalized --out
  double wall_s = 0.0;
  /// True when SIGINT/SIGTERM stopped the drive early; the store is left
  /// resumable and nothing was exported.
  bool interrupted = false;
};

/// Runs the supervised campaign. Throws on manifest/IO/protocol errors and
/// when the respawn budget is exhausted with work outstanding; children
/// never outlive the call.
DriveReport drive(const exp::Manifest& manifest, const DriveOptions& options);

/// Path of the currently running executable (/proc/self/exe when
/// available, else the given argv[0]) — what drive() should exec.
[[nodiscard]] std::string self_exe_path(const char* argv0);

/// The --progress status line shared by drive and single-process mode:
/// "progress: done/total points (pct%) | reps/s | ETA". `computed` counts
/// only points simulated this invocation (resumed rows carry no elapsed
/// time), which is what makes the rate honest across resumes.
[[nodiscard]] std::string progress_line(std::size_t done, std::size_t total,
                                        std::size_t computed,
                                        std::size_t replications,
                                        double elapsed_s);

/// One per-worker row of the --progress drive status, e.g.
///   "  worker 3: 5 pts leased | 12 done | last line 0.4s ago"
/// (or "idle" when the worker holds no lease). `hb_age_s` is the time since
/// the worker's last protocol line — the same signal the hang detector
/// judges, so a climbing age flags a wedged worker before it is killed.
[[nodiscard]] std::string worker_status_line(int id, bool has_lease,
                                             std::size_t lease_points_left,
                                             std::size_t points_done,
                                             double hb_age_s);

}  // namespace pas::orch
