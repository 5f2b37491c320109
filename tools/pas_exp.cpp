// pas-exp — run an experiment campaign from a JSON manifest.
//
//   pas-exp --manifest examples/campaign.json --jobs 8 --out out.csv
//   pas-exp --manifest examples/campaign.json --jobs 8 --out out.csv --resume
//
//   # one command instead of N terminals: a supervised multi-process
//   # campaign with work-stealing leases and crash recovery, finalized
//   # into one --out exactly like a serial run
//   pas-exp --drive 4 --manifest examples/campaign.json --out out.csv
//
//   # split one manifest across machines by hand, then recombine:
//   pas-exp --manifest c.json --shard 0/2 --out s0.csv     # machine A
//   pas-exp --manifest c.json --shard 1/2 --out s1.csv     # machine B
//   pas-exp --merge --manifest c.json --out full.csv s0.csv s1.csv
//
//   # --merge takes every artifact at once, in any order:
//   pas-exp --merge --manifest c.json --out full.csv --per-run r.csv
//     --metrics m.jsonl s0.csv s0_runs.csv s0.jsonl s1.csv s1_runs.csv ...
//
//   # the same rows as JSON lines, in any of the modes above:
//   pas-exp --drive 4 --manifest c.json --out out.csv --json out.jsonl
//
// The manifest declares the base scenario, the axes to sweep, and the
// replication count (see src/exp/manifest.hpp for the schema). Output is
// one CSV row per grid point (plus optional per-replication rows via
// --per-run, and a JSON-lines rendering of the finished point CSV via
// --json); --resume reloads an interrupted campaign's file and computes
// only the missing points. Results are independent of --jobs, --shard,
// --rep-chunk, and --drive: the completed file is byte-identical for any
// parallel schedule, single- or multi-process.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/policy.hpp"
#include "exp/aggregate.hpp"
#include "exp/grid.hpp"
#include "exp/manifest.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "metrics/report.hpp"
#include "io/cli.hpp"
#include "io/json.hpp"
#include "obs/export.hpp"
#include "orch/supervisor.hpp"
#include "orch/worker_link.hpp"
#include "serve/feed.hpp"
#include "serve/server.hpp"
#include "world/scenario.hpp"

namespace {

/// Set by SIGINT/SIGTERM while --serve is active; the campaign engine polls
/// it (CampaignOptions::should_stop) and the serve loop exits its drain.
/// --drive installs its own guard for the duration of the drive and restores
/// this one afterwards, so both topologies drain gracefully.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

/// Parses "i/N" into shard index + count. Returns false on malformed input.
bool parse_shard(const std::string& spec, std::size_t& index,
                 std::size_t& count) {
  const auto slash = spec.find('/');
  if (slash == std::string::npos) return false;
  const char* begin = spec.data();
  auto r1 = std::from_chars(begin, begin + slash, index);
  if (r1.ec != std::errc{} || r1.ptr != begin + slash) return false;
  auto r2 = std::from_chars(begin + slash + 1, begin + spec.size(), count);
  if (r2.ec != std::errc{} || r2.ptr != begin + spec.size()) return false;
  return count >= 1 && index < count;
}

/// The one JSON-lines writer of every mode: --json is rendered from the
/// finalized point CSV, so its bytes cannot depend on how that CSV was
/// produced (serial, --shard, --drive, --merge, --export, --agg-synth).
void write_jsonl(const std::string& out_csv, const std::string& jsonl_out) {
  if (!jsonl_out.empty()) pas::exp::render_jsonl(out_csv, jsonl_out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string manifest_path;
  std::string out_csv = "out.csv";
  std::string jsonl_out;
  std::string per_run_csv;
  std::string shard_spec;
  std::string metrics_path;
  std::string trace_path;
  std::uint64_t trace_point = 0;
  std::uint64_t jobs = 0;
  std::uint64_t rep_chunk = 0;
  std::uint64_t drive_workers = 0;
  std::uint64_t worker_id = 0;
  double hang_timeout = 120.0;
  std::string serve_spec;
  std::uint64_t agg_synth = 0;
  std::uint64_t agg_reps = 4;
  bool do_export = false;
  bool serve_linger = false;
  bool resume = false;
  bool quiet = false;
  bool progress = false;
  bool dry_run = false;
  bool merge = false;
  bool worker = false;
  bool list_policies = false;

  pas::io::Cli cli("pas-exp",
                   "Run a scenario-grid experiment campaign from a JSON "
                   "manifest, sharded across worker threads, worker "
                   "processes (--drive), or machines (--shard), with "
                   "resumable CSV output (plus a JSON-lines rendering). "
                   "--merge recombines finished shard outputs.");
  cli.add_string("manifest", &manifest_path,
                 "Path to the campaign manifest (required)");
  cli.add_string("out", &out_csv, "Output CSV path");
  cli.add_string("json", &jsonl_out,
                 "Optional JSON-lines rendering of the point CSV, written "
                 "once --out is complete (every mode, --merge and --export "
                 "included)");
  cli.add_string("per-run", &per_run_csv,
                 "Optional per-replication CSV (one row per run; enables "
                 "p95/p99 quantile reporting)");
  cli.add_string("shard", &shard_spec,
                 "Run only this shard of the grid, format i/N (points with "
                 "index % N == i)");
  cli.add_uint("jobs", &jobs,
               "Worker threads (0 = hardware concurrency, 1 = serial; with "
               "--drive: threads per worker process, 0 = 1)");
  cli.add_uint("rep-chunk", &rep_chunk,
               "Replications per sub-job within a point (0 = automatic)");
  cli.add_uint("drive", &drive_workers,
               "Supervise N worker processes (work-stealing leases, crash "
               "recovery); --out is finalized exactly like a serial run's");
  cli.add_flag("resume", &resume,
               "Reload --out's row store (or its finalized CSVs, and with "
               "--drive any .w*.pasrows worker parts) and compute only the "
               "missing points");
  cli.add_flag("merge", &merge,
               "Merge finished shard outputs (positional args: point and "
               "per-run CSVs, telemetry files) into --out, --per-run and "
               "--metrics");
  cli.add_flag("progress", &progress,
               "Periodic one-line status (points done/total, reps/s, ETA) "
               "instead of per-point lines");
  cli.add_flag("quiet", &quiet, "Suppress per-point progress lines");
  cli.add_flag("dry-run", &dry_run,
               "Print the expanded grid and exit without simulating");
  cli.add_flag("list-policies", &list_policies,
               "Print the registered sleeping policies (valid \"policy\" "
               "axis values) and exit");
  cli.add_string("metrics", &metrics_path,
                 "Per-point telemetry JSONL: kernel/protocol counters and "
                 "histograms per grid point plus a registry trailer; merges "
                 "byte-identically across --jobs/--shard/--drive/--resume");
  cli.add_string("trace", &trace_path,
                 "Write one grid point's structured event trace as JSONL to "
                 "this path and exit (no campaign output)");
  cli.add_uint("trace-point", &trace_point,
               "Grid point index for --trace (default 0)");
  cli.add_string("serve", &serve_spec,
                 "Serve the live campaign dashboard + HTTP API on host:port "
                 "(e.g. 127.0.0.1:8080; :0 picks a free port) while the "
                 "campaign runs; observe-only, outputs stay byte-identical");
  cli.add_flag("serve-linger", &serve_linger,
               "With --serve: keep serving (and accept POST /api/campaigns "
               "submissions) after the campaign finishes, until SIGINT");
  cli.add_double("hang-timeout", &hang_timeout,
                 "--drive: kill a worker silent for this many seconds and "
                 "reassign its lease (0 disables)");
  cli.add_flag("export", &do_export,
               "Render the CSV/JSONL/--metrics artifacts from an existing "
               "--out row store (e.g. after an interrupted campaign) and "
               "exit; requires --manifest, keeps the store");
  cli.add_uint("agg-synth", &agg_synth,
               "Synthetic aggregation driver: record N fabricated points "
               "through the aggregator and finalize, no simulation (memory "
               "and throughput gating for the aggregation pipeline)");
  cli.add_uint("agg-reps", &agg_reps,
               "Replications per fabricated point for --agg-synth "
               "(default 4)");
  cli.add_flag("worker", &worker,
               "Internal: run as a --drive worker process (protocol on "
               "stdin/stdout)");
  cli.add_uint("worker-id", &worker_id, "Internal: this worker's id");
  if (!cli.parse(argc, argv)) return cli.status();

  try {
    if (list_policies) {
      pas::core::print_policy_registry(stdout);
      return 0;
    }

    if (merge) {
      const auto& inputs = cli.positional();
      if (inputs.empty() || manifest_path.empty()) {
        std::fprintf(stderr,
                     "pas-exp: --merge needs --manifest and the shard "
                     "outputs as positional arguments (try --help)\n");
        return 2;
      }
      // Campaign-execution options have no meaning here; accepting them
      // would let e.g. --dry-run suggest no output gets touched when --out
      // is overwritten.
      if (!shard_spec.empty() || resume || dry_run || progress || jobs != 0 ||
          rep_chunk != 0 || drive_workers != 0 || worker || worker_id != 0 ||
          hang_timeout != 120.0 || !trace_path.empty() || trace_point != 0 ||
          !serve_spec.empty() || serve_linger || do_export || agg_synth != 0 ||
          agg_reps != 4) {
        std::fprintf(stderr,
                     "pas-exp: --merge takes only the shard outputs, "
                     "--manifest, --out, --per-run, --metrics and --json\n");
        return 2;
      }
      const auto manifest = pas::exp::Manifest::load(manifest_path);
      const auto merged = pas::exp::merge_campaign(
          manifest, inputs, out_csv, per_run_csv, metrics_path);
      write_jsonl(out_csv, jsonl_out);
      std::printf("merged %zu points from %zu shard files -> %s\n", merged,
                  inputs.size(), out_csv.c_str());
      return 0;
    }

    if (!cli.positional().empty()) {
      // Without this, a forgotten --merge would silently launch a full
      // campaign over the shard CSVs instead of merging them.
      std::fprintf(stderr,
                   "pas-exp: unexpected positional argument \"%s\" (input "
                   "CSVs are only accepted with --merge)\n",
                   cli.positional().front().c_str());
      return 2;
    }
    if (agg_synth > 0) {
      // Synthetic aggregation driver: pushes N fabricated points through
      // record()/finalize() without simulating anything — the workload the
      // CI max-RSS gate and the aggregation benches measure. Inputs are a
      // pure function of (point, rep), so the artifacts are too; CI checks
      // them against committed SHA-256 digests.
      if (worker || drive_workers != 0 || do_export || !serve_spec.empty() ||
          !trace_path.empty() || dry_run || !shard_spec.empty() ||
          !metrics_path.empty() || !manifest_path.empty()) {
        std::fprintf(stderr,
                     "pas-exp: --agg-synth drives the aggregator alone; it "
                     "takes only --out/--json/--per-run/--agg-reps/--resume\n");
        return 2;
      }
      const auto n_points = static_cast<std::size_t>(agg_synth);
      const auto reps =
          std::max<std::size_t>(1, static_cast<std::size_t>(agg_reps));
      pas::exp::AggregatorOptions agg_options;
      agg_options.csv_path = out_csv;
      agg_options.per_run_path = per_run_csv;
      agg_options.axis_names = {"x"};
      agg_options.total_points = n_points;
      agg_options.replications = reps;
      pas::exp::Aggregator aggregator(std::move(agg_options));
      if (resume) aggregator.load_existing();
      const auto t0 = std::chrono::steady_clock::now();
      std::vector<pas::metrics::RunMetrics> runs(reps);
      for (std::size_t p = 0; p < n_points; ++p) {
        if (aggregator.is_done(p)) continue;
        for (std::size_t r = 0; r < reps; ++r) {
          auto& run = runs[r];
          run = pas::metrics::RunMetrics{};
          run.node_count = 64;
          run.duration_s = 600.0;
          run.avg_delay_s = 0.25 + 0.001 * static_cast<double>(p % 97) +
                            0.01 * static_cast<double>(r);
          run.p95_delay_s = run.avg_delay_s * 1.7;
          run.max_delay_s = run.avg_delay_s * 2.5;
          run.reached = 64;
          run.detected = 63;
          run.missed = (p + r) % 3 == 0 ? 1 : 0;
          run.avg_energy_j = 1.5 + 0.0005 * static_cast<double>(p % 53);
          run.total_energy_j = run.avg_energy_j * 64.0;
          run.avg_energy_tx_j = run.avg_energy_j * 0.1;
          run.avg_active_fraction =
              0.05 + 0.0001 * static_cast<double>((p + r) % 101);
          run.network.broadcasts = 100 + p % 11;
        }
        aggregator.record(p, 0x9e3779b97f4a7c15ull ^ p, {std::to_string(p)},
                          pas::world::reduce_runs(runs));
      }
      aggregator.finalize();
      write_jsonl(out_csv, jsonl_out);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::printf(
          "agg-synth: %zu points x %zu reps in %.2fs (%.0f points/s) -> %s\n",
          n_points, reps, wall,
          wall > 0.0 ? static_cast<double>(n_points) / wall : 0.0,
          out_csv.c_str());
      return 0;
    }

    if (manifest_path.empty()) {
      std::fprintf(stderr, "pas-exp: --manifest is required (try --help)\n");
      return 2;
    }
    if (serve_linger && serve_spec.empty()) {
      std::fprintf(stderr,
                   "pas-exp: --serve-linger needs --serve <host:port>\n");
      return 2;
    }
    if (!serve_spec.empty() && (worker || dry_run || !trace_path.empty())) {
      std::fprintf(stderr,
                   "pas-exp: --serve watches a running campaign; it is "
                   "incompatible with --worker, --dry-run, and --trace\n");
      return 2;
    }

    if (worker) {
      // Internal child mode of --drive: no human output, protocol only.
      const auto manifest = pas::exp::Manifest::load(manifest_path);
      pas::orch::WorkerOptions options;
      options.out_csv = out_csv;
      options.per_run_csv = per_run_csv;
      options.metrics_path = metrics_path;
      options.worker_id = static_cast<int>(worker_id);
      options.jobs = std::max<std::size_t>(1, static_cast<std::size_t>(jobs));
      return pas::orch::run_worker(manifest, options);
    }

    pas::exp::CampaignOptions options;
    if (!shard_spec.empty() &&
        !parse_shard(shard_spec, options.shard_index, options.shard_count)) {
      std::fprintf(stderr,
                   "pas-exp: --shard expects i/N with i < N (got \"%s\")\n",
                   shard_spec.c_str());
      return 2;
    }

    const auto manifest = pas::exp::Manifest::load(manifest_path);
    std::printf("campaign %s: %zu points x %zu replications = %zu runs\n",
                manifest.name.c_str(), manifest.point_count(),
                manifest.replications, manifest.run_count());

    const auto points = pas::exp::expand_grid(manifest);

    if (do_export) {
      // Render the CSV/JSONL/telemetry artifacts out of an existing row
      // store without running anything — the recovery hatch for an
      // interrupted campaign whose outputs never materialized. A killed
      // drive's worker parts are absorbed into the store and deleted. Keeps
      // the store (finalize, not export, is what retires it).
      if (worker || drive_workers != 0 || dry_run || !trace_path.empty() ||
          !serve_spec.empty()) {
        std::fprintf(stderr,
                     "pas-exp: --export renders an existing row store; it "
                     "takes only --manifest, --out, --json, --per-run, and "
                     "--metrics\n");
        return 2;
      }
      const std::string store = pas::exp::RowStore::path_for(out_csv);
      if (!std::filesystem::exists(store) &&
          pas::exp::discover_part_stores(out_csv).empty()) {
        // A finalized campaign has no store: its artifacts are already
        // rendered, and seeding a store from them would leave it looking
        // interrupted.
        std::fprintf(stderr,
                     "pas-exp: --export: no row store %s (only an "
                     "in-flight or interrupted campaign has one)\n",
                     store.c_str());
        return 1;
      }
      pas::exp::Aggregator aggregator(pas::exp::campaign_aggregator_options(
          manifest, points, out_csv, per_run_csv, metrics_path));
      aggregator.load_existing();
      pas::exp::absorb_part_stores(aggregator, out_csv);
      aggregator.compact();
      write_jsonl(out_csv, jsonl_out);
      std::printf("exported %zu of %zu points from %s -> %s\n",
                  aggregator.done_count(), points.size(), store.c_str(),
                  out_csv.c_str());
      return 0;
    }

    if (dry_run) {
      for (const auto& p : points) {
        if (options.shard_count > 1 &&
            p.index % options.shard_count != options.shard_index) {
          continue;
        }
        std::printf("  [%zu] %s (seed %llu)\n", p.index,
                    p.label(manifest).c_str(),
                    static_cast<unsigned long long>(p.seed));
      }
      return 0;
    }

    if (!trace_path.empty()) {
      // Single-point structured trace export: run one grid point with the
      // event trace enabled and dump it as JSONL, then exit — a debugging
      // companion to a campaign, not part of one.
      if (drive_workers > 0 || !shard_spec.empty() || resume ||
          !jsonl_out.empty() || !per_run_csv.empty() || !metrics_path.empty()) {
        std::fprintf(stderr,
                     "pas-exp: --trace runs one point and exits; it is "
                     "incompatible with campaign output options\n");
        return 2;
      }
      if (trace_point >= points.size()) {
        std::fprintf(stderr,
                     "pas-exp: --trace-point %llu is outside the grid "
                     "(%zu points)\n",
                     static_cast<unsigned long long>(trace_point),
                     points.size());
        return 2;
      }
      const auto& point = points[static_cast<std::size_t>(trace_point)];
      auto config = point.config;
      config.enable_trace = true;
      const auto result = pas::world::run_scenario(config);
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "pas-exp: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      pas::obs::write_trace_jsonl(result.trace, out);
      std::printf("trace: point %zu %s (seed %llu) -> %zu events -> %s\n",
                  point.index, point.label(manifest).c_str(),
                  static_cast<unsigned long long>(point.seed),
                  result.trace.size(), trace_path.c_str());
      return 0;
    }

    // A campaign run (serial, --shard or --drive) keeps an existing --json
    // unless it resumes, like every other output it would replace.
    if (!resume && !jsonl_out.empty() && std::filesystem::exists(jsonl_out)) {
      throw std::runtime_error(jsonl_out +
                               " exists; pass --resume to continue its "
                               "campaign or remove it to start over");
    }

    // --- live observability: one feed for terminal echo and --serve -------
    // The feed exists for every campaign topology (it renders the classic
    // --progress lines), but only retains point rows when a server will
    // actually read them back out of /api/points.
    const bool serving = !serve_spec.empty();
    pas::serve::CampaignFeed::Options feed_options;
    feed_options.store_points = serving;
    pas::serve::CampaignFeed feed(feed_options);
    std::unique_ptr<pas::serve::Server> server;
    std::thread server_thread;
    // Scope guard: every exit path (drive return, interrupt, exception)
    // announces shutdown to SSE clients, stops the poll loop, and joins the
    // server thread — which is also what flushes the flight-recorder dump.
    struct ServeShutdown {
      pas::serve::CampaignFeed& feed;
      std::unique_ptr<pas::serve::Server>& server;
      std::thread& thread;
      ~ServeShutdown() {
        if (server != nullptr) {
          feed.publish("shutdown", "{}");
          server->stop();
          if (thread.joinable()) thread.join();
        }
      }
    } serve_shutdown{feed, server, server_thread};
    if (serving) {
      pas::serve::Server::Options server_options;
      if (!pas::serve::parse_listen_address(serve_spec, server_options.host,
                                            server_options.port)) {
        std::fprintf(stderr,
                     "pas-exp: --serve expects host:port (got \"%s\")\n",
                     serve_spec.c_str());
        return 2;
      }
      server_options.flightrec_path = out_csv + ".flightrec";
      server_options.manifest_validator =
          [](const std::string& body) -> std::string {
        try {
          pas::exp::Manifest::from_json(pas::io::Json::parse(body)).validate();
          return "";
        } catch (const std::exception& e) {
          return e.what();
        }
      };
      server = std::make_unique<pas::serve::Server>(feed, server_options);
      std::string error;
      if (!server->start(error)) {
        std::fprintf(stderr, "pas-exp: --serve: %s\n", error.c_str());
        return 1;
      }
      std::printf("pas-exp: serving on http://%s:%u/\n",
                  server->host().c_str(),
                  static_cast<unsigned>(server->port()));
      std::fflush(stdout);
      server_thread = std::thread([&server] { server->run(); });
      std::signal(SIGINT, handle_stop_signal);
      std::signal(SIGTERM, handle_stop_signal);
    }
    // Serve loop: after the primary campaign, run queued POST /api/campaigns
    // submissions (each into <out>.c<id>.csv); with --serve-linger, keep
    // waiting for more until SIGINT. `run_one` returns false to stop early
    // (an interrupted submission leaves its outputs resumable).
    const auto drain_submissions = [&](const auto& run_one) {
      while (g_stop_requested == 0) {
        auto submission = feed.pop_submission();
        if (submission.has_value()) {
          if (!run_one(submission->first, submission->second)) break;
          continue;
        }
        if (!serve_linger) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    };

    if (drive_workers > 0) {
      if (!shard_spec.empty() || rep_chunk != 0) {
        std::fprintf(stderr,
                     "pas-exp: --drive is incompatible with --shard and "
                     "--rep-chunk (drive owns the process split)\n");
        return 2;
      }
      pas::orch::DriveOptions drive_options;
      drive_options.exe_path = pas::orch::self_exe_path(argv[0]);
      drive_options.manifest_path = manifest_path;
      drive_options.out_csv = out_csv;
      drive_options.per_run_csv = per_run_csv;
      drive_options.metrics_path = metrics_path;
      drive_options.workers = static_cast<std::size_t>(drive_workers);
      drive_options.jobs_per_worker =
          std::max<std::size_t>(1, static_cast<std::size_t>(jobs));
      drive_options.resume = resume;
      drive_options.hang_timeout_s = hang_timeout;
      drive_options.verbosity =
          quiet ? pas::orch::DriveOptions::Verbosity::kQuiet
                : (progress
                       ? pas::orch::DriveOptions::Verbosity::kPeriodic
                       : pas::orch::DriveOptions::Verbosity::kPerPoint);
      drive_options.feed = &feed;

      const auto report = pas::orch::drive(manifest, drive_options);
      if (report.interrupted) {
        // The *exact* command that continues this campaign: every
        // non-default knob the interrupted invocation carried, plus
        // --resume.
        std::string resume_cmd = "pas-exp --drive " +
                                 std::to_string(drive_options.workers) +
                                 " --manifest " + manifest_path + " --out " +
                                 out_csv;
        if (!jsonl_out.empty()) resume_cmd += " --json " + jsonl_out;
        if (!per_run_csv.empty()) resume_cmd += " --per-run " + per_run_csv;
        if (!metrics_path.empty()) resume_cmd += " --metrics " + metrics_path;
        if (jobs != 0) resume_cmd += " --jobs " + std::to_string(jobs);
        if (hang_timeout != 120.0) {
          char buf[48];
          std::snprintf(buf, sizeof(buf), " --hang-timeout %g", hang_timeout);
          resume_cmd += buf;
        }
        if (quiet) resume_cmd += " --quiet";
        if (progress) resume_cmd += " --progress";
        std::printf(
            "interrupted: %zu of %zu points on disk in %s.pasrows; the "
            "output is resumable\nresume with: %s --resume\n",
            report.computed + report.resumed, report.total_points,
            out_csv.c_str(), resume_cmd.c_str());
        return 130;
      }
      write_jsonl(out_csv, jsonl_out);
      std::printf(
          "done: %zu points (%zu computed, %zu resumed) via %zu workers "
          "(%zu crashes, %zu respawns) in %.1fs (%.1f runs/s) -> %s\n",
          report.total_points, report.computed, report.resumed,
          report.workers_spawned, report.crashes, report.respawns,
          report.wall_s,
          report.wall_s > 0.0
              ? static_cast<double>(report.computed * report.replications) /
                    report.wall_s
              : 0.0,
          out_csv.c_str());
      if (serving) {
        drain_submissions([&](std::uint64_t id, const std::string& text) {
          try {
            auto sub_manifest =
                pas::exp::Manifest::from_json(pas::io::Json::parse(text));
            sub_manifest.validate();
            // Workers re-load the manifest from disk, so the submitted JSON
            // is written next to its output (and left there as a record).
            const std::string sub_out =
                out_csv + ".c" + std::to_string(id) + ".csv";
            const std::string sub_manifest_path = sub_out + ".manifest.json";
            {
              std::ofstream mf(sub_manifest_path);
              if (!mf) {
                throw std::runtime_error("cannot write " + sub_manifest_path);
              }
              mf << text;
            }
            auto sub_options = drive_options;
            sub_options.manifest_path = sub_manifest_path;
            sub_options.out_csv = sub_out;
            sub_options.per_run_csv.clear();
            sub_options.metrics_path.clear();
            sub_options.resume = false;
            const auto sub_report = pas::orch::drive(sub_manifest, sub_options);
            std::printf("campaign #%llu (%s): %zu points (%zu computed) -> "
                        "%s%s\n",
                        static_cast<unsigned long long>(id),
                        sub_manifest.name.c_str(), sub_report.total_points,
                        sub_report.computed, sub_out.c_str(),
                        sub_report.interrupted ? " [interrupted]" : "");
            return !sub_report.interrupted;
          } catch (const std::exception& e) {
            std::fprintf(stderr,
                         "pas-exp: submitted campaign %llu failed: %s\n",
                         static_cast<unsigned long long>(id), e.what());
            return true;  // a bad submission does not end the serve loop
          }
        });
      }
      return 0;
    }

    options.jobs = static_cast<std::size_t>(jobs);
    options.rep_chunk = static_cast<std::size_t>(rep_chunk);
    options.resume = resume;
    options.out_csv = out_csv;
    options.per_run_csv = per_run_csv;
    options.metrics_path = metrics_path;
    options.feed = &feed;
    if (serving) {
      options.should_stop = [] { return g_stop_requested != 0; };
    }
    // --progress is rendered by the feed (serve/feed.hpp): the terminal
    // line and any SSE "progress" event are two views of the same counters.
    feed.set_echo(progress && !quiet, /*drive_style=*/false, 1.0);
    if (!progress && !quiet) {
      options.progress = [&points, &manifest](
                             const pas::exp::PointSummary& s,
                             std::size_t done, std::size_t total) {
        std::printf("[%zu/%zu] %s delay=%.3fs energy=%.4fJ\n", done, total,
                    points[s.point].label(manifest).c_str(), s.delay_s.mean,
                    s.energy_j.mean);
        std::fflush(stdout);
      };
    }

    const auto report = pas::exp::run_campaign(manifest, options);
    if (report.interrupted) {
      // Mirrors the --drive interrupt path: name the exact command that
      // finishes the campaign. The unfinalized output resumes like a kill.
      std::string resume_cmd =
          "pas-exp --manifest " + manifest_path + " --out " + out_csv;
      if (!jsonl_out.empty()) resume_cmd += " --json " + jsonl_out;
      if (!per_run_csv.empty()) resume_cmd += " --per-run " + per_run_csv;
      if (!metrics_path.empty()) resume_cmd += " --metrics " + metrics_path;
      if (!shard_spec.empty()) resume_cmd += " --shard " + shard_spec;
      if (jobs != 0) resume_cmd += " --jobs " + std::to_string(jobs);
      if (rep_chunk != 0) {
        resume_cmd += " --rep-chunk " + std::to_string(rep_chunk);
      }
      if (quiet) resume_cmd += " --quiet";
      if (progress) resume_cmd += " --progress";
      std::printf(
          "interrupted: %zu of %zu points on disk; the output is resumable\n"
          "resume with: %s --resume\n",
          report.computed + report.skipped, report.owned_points,
          resume_cmd.c_str());
      return 130;
    }
    write_jsonl(out_csv, jsonl_out);
    if (options.shard_count > 1) {
      std::printf("shard %zu/%zu: %zu of %zu points\n", options.shard_index,
                  options.shard_count, report.owned_points,
                  report.total_points);
    }
    std::printf(
        "done: %zu points (%zu computed, %zu resumed) in %.1fs "
        "(%.1f runs/s) -> %s\n",
        report.owned_points, report.computed, report.skipped, report.wall_s,
        report.wall_s > 0.0
            ? static_cast<double>(report.computed * report.replications) /
                  report.wall_s
            : 0.0,
        out_csv.c_str());
    if (serving) {
      drain_submissions([&](std::uint64_t id, const std::string& text) {
        try {
          auto sub_manifest =
              pas::exp::Manifest::from_json(pas::io::Json::parse(text));
          sub_manifest.validate();
          pas::exp::CampaignOptions sub_options;
          sub_options.jobs = static_cast<std::size_t>(jobs);
          sub_options.rep_chunk = static_cast<std::size_t>(rep_chunk);
          sub_options.out_csv = out_csv + ".c" + std::to_string(id) + ".csv";
          sub_options.feed = &feed;
          sub_options.campaign_id = id;
          sub_options.should_stop = [] { return g_stop_requested != 0; };
          const auto sub_report =
              pas::exp::run_campaign(sub_manifest, sub_options);
          std::printf("campaign #%llu (%s): %zu points (%zu computed) -> "
                      "%s%s\n",
                      static_cast<unsigned long long>(id),
                      sub_manifest.name.c_str(), sub_report.owned_points,
                      sub_report.computed, sub_options.out_csv.c_str(),
                      sub_report.interrupted ? " [interrupted]" : "");
          return !sub_report.interrupted;
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "pas-exp: submitted campaign %llu failed: %s\n",
                       static_cast<unsigned long long>(id), e.what());
          return true;  // a bad submission does not end the serve loop
        }
      });
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pas-exp: %s\n", e.what());
    return 1;
  }
}
