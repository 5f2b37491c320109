// Supervised multi-process campaigns, end to end against the real pas-exp
// binary: byte-identity with a serial run, SIGKILL crash recovery,
// duplicate points across worker parts on resume, and SIGINT interruption;
// plus the CLI's --export of a row store and its resume refusals.
//
// The tests fork/exec the pas-exp executable (the --worker child mode), so
// they need its path: the PAS_EXP_BIN environment variable if set, else
// the build-time PAS_EXP_BIN_PATH definition CMake injects. If neither
// resolves to an existing file the suite skips rather than fails.
#include "orch/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "exp/aggregate.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "io/json.hpp"
#include "world/paper_setup.hpp"

namespace pas::orch {
namespace {

namespace fs = std::filesystem;

std::string exe_path() {
  if (const char* env = std::getenv("PAS_EXP_BIN")) return env;
#ifdef PAS_EXP_BIN_PATH
  return PAS_EXP_BIN_PATH;
#else
  return {};
#endif
}

exp::Manifest small_manifest() {
  exp::Manifest m;
  m.name = "orch-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;  // shortened horizon keeps the suite quick
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      exp::Axis{.kind = exp::AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      exp::Axis{.kind = exp::AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exe_ = exe_path();
    if (exe_.empty() || !fs::exists(exe_)) {
      GTEST_SKIP() << "pas-exp binary not found (set PAS_EXP_BIN)";
    }
    dir_ = fs::temp_directory_path() /
           ("pas_orch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);

    manifest_ = small_manifest();
    manifest_path_ = path("manifest.json");
    std::ofstream(manifest_path_) << manifest_.to_json().dump(2) << '\n';

    // Serial single-process reference: the bytes every drive must match.
    exp::CampaignOptions serial;
    serial.jobs = 1;
    serial.out_csv = path("ref.csv");
    serial.per_run_csv = path("ref_runs.csv");
    exp::run_campaign(manifest_, serial);
  }
  void TearDown() override {
    ::unsetenv("PAS_ORCH_TEST_CRASH");
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  static std::string slurp(const fs::path& p) {
    std::ifstream in(p);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  DriveOptions options(std::size_t workers, const char* out,
                       const char* per_run = nullptr) {
    DriveOptions o;
    o.exe_path = exe_;
    o.manifest_path = manifest_path_;
    o.out_csv = path(out);
    if (per_run != nullptr) o.per_run_csv = path(per_run);
    o.workers = workers;
    o.verbosity = DriveOptions::Verbosity::kQuiet;
    o.max_lease = 2;  // small leases exercise the work-stealing churn
    return o;
  }

  /// Asserts `out` matches the serial reference and all .w* parts are gone.
  void expect_merged_identical(const char* out,
                               const char* per_run = nullptr) {
    EXPECT_EQ(slurp(path(out)), slurp(path("ref.csv")));
    if (per_run != nullptr) {
      EXPECT_EQ(slurp(path(per_run)), slurp(path("ref_runs.csv")));
    }
    std::size_t parts = 0;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      if (entry.path().filename().string().find(".w") != std::string::npos) {
        ++parts;
      }
    }
    EXPECT_EQ(parts, 0U) << "part stores should be deleted once absorbed";
  }

  /// Leaves `points` in an unexported row store `<out>.pasrows`, as an
  /// interrupted serial run, or a drive worker killed with its driver,
  /// leaves them.
  void record_interrupted(const std::string& out,
                          std::vector<std::size_t> points,
                          const std::string& per_run = {},
                          const std::string& metrics = {}) {
    exp::CampaignOptions o;
    o.jobs = 1;
    o.out_csv = out;
    o.per_run_csv = per_run;
    o.metrics_path = metrics;
    const std::size_t n = points.size();
    o.owned_points = std::move(points);
    std::size_t done = 0;
    o.progress = [&done](const exp::PointSummary&, std::size_t d,
                         std::size_t) { done = d; };
    o.should_stop = [&done, n] { return done >= n; };
    ASSERT_TRUE(exp::run_campaign(manifest_, o).interrupted);
    ASSERT_TRUE(fs::exists(exp::RowStore::path_for(out)));
  }

  /// The store a drive builds at start-up, before any worker part is
  /// absorbed: `<out>.pasrows` of out.csv/runs.csv holding only its header.
  void leave_header_only_store() {
    exp::Aggregator store(exp::campaign_aggregator_options(
        manifest_, exp::expand_grid(manifest_), path("out.csv"),
        path("runs.csv"), ""));
    store.load_existing();
    ASSERT_EQ(fs::file_size(exp::RowStore::path_for(path("out.csv"))), 16U);
  }

  /// Drives `o` and sends this process SIGINT once worker 0 has stored its
  /// first point (its part store outgrows the 16-byte header), so the drive
  /// is interrupted mid-campaign unless its workers finish every point
  /// first. Outside drive()'s handler window SIGINT is ignored, so a
  /// late-landing signal cannot kill the test binary.
  DriveReport drive_interrupted(const DriveOptions& o) {
    struct IgnoreSigint {
      struct sigaction old {};
      IgnoreSigint() {
        struct sigaction ign {};
        ign.sa_handler = SIG_IGN;
        sigemptyset(&ign.sa_mask);
        ::sigaction(SIGINT, &ign, &old);
      }
      ~IgnoreSigint() { ::sigaction(SIGINT, &old, nullptr); }
    } guard;
    const std::string part = exp::RowStore::path_for(exp::part_path(o.out_csv, 0));
    // A jthread asks the poll to stop and joins on every exit path, before
    // the guard is restored.
    const std::jthread interrupter([&part](const std::stop_token& stop) {
      std::error_code ec;
      while (!stop.stop_requested()) {
        if (fs::file_size(part, ec) > 16 && !ec) {
          ::kill(::getpid(), SIGINT);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    return drive(manifest_, o);
  }

  /// The "point" rows of a telemetry JSONL file (trailers are wall-clock
  /// and schedule-dependent, so identity checks compare only point rows).
  static std::vector<std::string> point_rows(const fs::path& p) {
    std::ifstream in(p);
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const io::Json row = io::Json::parse(line);
      if (row.string_or("kind", "") == "point") rows.push_back(line);
    }
    return rows;
  }

  static std::vector<std::string> lines_of(const fs::path& p,
                                           std::size_t limit = SIZE_MAX) {
    std::ifstream in(p);
    std::vector<std::string> lines;
    std::string line;
    while (lines.size() < limit && std::getline(in, line)) {
      lines.push_back(line);
    }
    return lines;
  }

  /// Runs the pas-exp CLI in the test directory; returns its exit code.
  int run_cli(const std::string& args) const {
    const std::string cmd = "cd " + dir_.string() + " && " + exe_ + " " +
                            args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Every regular file in the test directory with its content.
  std::map<std::string, std::string> listing() const {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      files[entry.path().filename().string()] = slurp(entry.path());
    }
    return files;
  }

  std::string exe_;
  fs::path dir_;
  exp::Manifest manifest_;
  std::string manifest_path_;
};

TEST_F(SupervisorTest, DriveIsByteIdenticalToSerial) {
  const auto report = drive(manifest_, options(3, "out.csv", "runs.csv"));
  EXPECT_EQ(report.total_points, 6U);
  EXPECT_EQ(report.computed, 6U);
  EXPECT_EQ(report.resumed, 0U);
  EXPECT_EQ(report.crashes, 0U);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.merged_rows, 6U);
  expect_merged_identical("out.csv", "runs.csv");
}

// The acceptance-criteria scenario: a worker is SIGKILLed mid-campaign
// (after flushing + reporting its first point), its lease is reassigned,
// and the merged output is still byte-identical to an undisturbed run.
// A single worker makes the respawn deterministic: it dies holding the
// second point of its two-point lease. (With a second worker, a loaded host
// could let the survivor drain the queue before the crash is seen, and then
// no replacement is needed.)
TEST_F(SupervisorTest, SigkilledWorkerLeaseIsReassigned) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  const auto report = drive(manifest_, options(1, "out.csv", "runs.csv"));
  EXPECT_GE(report.crashes, 1U);
  EXPECT_GE(report.respawns, 1U);
  EXPECT_EQ(report.computed, 6U);
  EXPECT_EQ(report.merged_rows, 6U);
  expect_merged_identical("out.csv", "runs.csv");
}

// The driver absorbs a part after every lease_done, so a crash later in
// the worker's life leaves only the batches since its last lease for crash
// recovery, which absorbs them from that nonzero offset. Worker 0 finishes
// two one-point leases and dies right after reporting the third point.
TEST_F(SupervisorTest, CrashAfterAnIncrementalAbsorbMatchesSerial) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:3", 1);
  auto o = options(1, "out.csv", "runs.csv");
  o.max_lease = 1;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.crashes, 1U);
  EXPECT_EQ(report.respawns, 1U);
  EXPECT_EQ(report.computed, 6U);
  EXPECT_EQ(report.merged_rows, 6U);
  expect_merged_identical("out.csv", "runs.csv");
}

// Crash-race aftermath: two worker part stores left by a killed drive both
// hold the same point (a worker wrote it, died unreported, and the point
// was reassigned). Resume absorbs the first copy, skips the second, and
// still finalizes to the exact serial bytes.
TEST_F(SupervisorTest, ResumeDropsDuplicateRowsAcrossParts) {
  record_interrupted(exp::part_path(path("out.csv"), 0), {0, 1, 2});
  // Point 2 duplicated across parts.
  record_interrupted(exp::part_path(path("out.csv"), 1), {2, 4});

  auto o = options(2, "out.csv");
  o.resume = true;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.resumed, 4U);   // 0,1,2 from w0; 4 from w1 (2 dropped)
  EXPECT_EQ(report.computed, 2U);  // 3 and 5
  expect_merged_identical("out.csv");
}

// Resume also composes with an interrupted *single-process* run: rows
// already in --out seed the claim set and the drive computes only the rest.
TEST_F(SupervisorTest, ResumeClaimsRowsFromSingleProcessOut) {
  exp::CampaignOptions partial;
  partial.jobs = 1;
  partial.owned_points = {0, 1, 5};
  partial.out_csv = path("out.csv");
  exp::run_campaign(manifest_, partial);

  auto o = options(2, "out.csv");
  o.resume = true;
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.resumed, 3U);
  EXPECT_EQ(report.computed, 3U);
  expect_merged_identical("out.csv");
}

// Without --resume a drive replaces no earlier campaign file, exactly like
// a serial run: each one alone is refused and left byte-unchanged.
TEST_F(SupervisorTest, RefusesExistingOutputWithoutResume) {
  for (const char* name : {"out.csv", "out.csv.pasrows", "runs.csv",
                           "metrics.jsonl", "out.csv.w0.pasrows"}) {
    SCOPED_TRACE(name);
    std::ofstream(path(name)) << "stale\n";
    auto o = options(2, "out.csv", "runs.csv");
    o.metrics_path = path("metrics.jsonl");
    EXPECT_THROW((void)drive(manifest_, o), std::runtime_error);
    EXPECT_EQ(slurp(path(name)), "stale\n");
    fs::remove(path(name));
  }
}

TEST_F(SupervisorTest, SigintLeavesResumableStateAndResumeCompletes) {
  // Whether SIGINT lands before or after completion, the follow-up resume
  // must converge on the exact serial bytes (the deterministic end state
  // this test pins down).
  const auto first = drive_interrupted(options(2, "out.csv", "runs.csv"));
  if (first.interrupted) {
    auto o = options(3, "out.csv", "runs.csv");  // resume with different W
    o.resume = true;
    const auto second = drive(manifest_, o);
    EXPECT_FALSE(second.interrupted);
    // Every point the interrupted drive finished is resumed, not redone.
    EXPECT_EQ(second.resumed, first.computed + first.resumed);
    EXPECT_EQ(second.resumed + second.computed, 6U);
  }
  expect_merged_identical("out.csv", "runs.csv");
}

// An interrupted drive absorbs its workers' parts: it leaves the single
// `<out>.pasrows` an interrupted serial run leaves, so a serial --resume
// computes only the missing points and ends at the serial bytes.
TEST_F(SupervisorTest, SigintLeavesOneStoreThatASerialResumeFinishes) {
  auto o = options(1, "out.csv", "runs.csv");
  o.max_lease = 1;
  const auto first = drive_interrupted(o);
  if (first.interrupted) {
    // No CSVs and no worker parts: the store (plus the flight recorder's
    // note of the interrupt) is all the drive left.
    const auto files = listing();
    EXPECT_TRUE(files.contains("out.csv.pasrows"));
    for (const auto& [name, bytes] : files) {
      if (name.starts_with("out.csv") || name.starts_with("runs.csv")) {
        EXPECT_TRUE(name == "out.csv.pasrows" || name == "out.csv.flightrec")
            << name;
      }
    }
    exp::CampaignOptions serial;
    serial.jobs = 1;
    serial.resume = true;
    serial.out_csv = path("out.csv");
    serial.per_run_csv = path("runs.csv");
    const auto second = exp::run_campaign(manifest_, serial);
    EXPECT_EQ(second.skipped, first.computed + first.resumed);
    EXPECT_EQ(second.skipped + second.computed, 6U);
  }
  expect_merged_identical("out.csv", "runs.csv");
}

// What a SIGKILLed drive leaves: its start-up store `<out>.pasrows` (header
// only) and two worker parts it never absorbed, holding points {0, 1, 2}
// and {4}. A fresh serial run refuses the parts; a serial --resume absorbs
// them, reports their points as resumed, deletes them and ends at the
// serial bytes.
TEST_F(SupervisorTest, SerialResumeFinishesAKilledDrivesParts) {
  record_interrupted(exp::part_path(path("out.csv"), 0), {0, 1, 2},
                     exp::part_path(path("runs.csv"), 0));
  record_interrupted(exp::part_path(path("out.csv"), 1), {4},
                     exp::part_path(path("runs.csv"), 1));
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("out.csv");
  serial.per_run_csv = path("runs.csv");
  EXPECT_THROW((void)exp::run_campaign(manifest_, serial), std::runtime_error);
  leave_header_only_store();

  serial.resume = true;
  const auto report = exp::run_campaign(manifest_, serial);
  EXPECT_EQ(report.skipped, 4U);
  EXPECT_EQ(report.computed, 2U);
  expect_merged_identical("out.csv", "runs.csv");
}

// --export of the same leftovers renders the parts' points, deletes the
// parts and keeps the store, which a serial --resume then finishes.
TEST_F(SupervisorTest, ExportAbsorbsAKilledDrivesParts) {
  record_interrupted(exp::part_path(path("out.csv"), 0), {0, 1, 2},
                     exp::part_path(path("runs.csv"), 0));
  record_interrupted(exp::part_path(path("out.csv"), 1), {4},
                     exp::part_path(path("runs.csv"), 1));
  leave_header_only_store();

  ASSERT_EQ(run_cli("--export --manifest manifest.json --out out.csv "
                    "--per-run runs.csv"),
            0);
  EXPECT_TRUE(fs::exists(path("out.csv.pasrows")));
  EXPECT_TRUE(exp::discover_part_stores(path("out.csv")).empty());
  auto want = lines_of(path("ref.csv"));
  want.erase(want.begin() + 4);  // point 3
  want.pop_back();               // point 5
  EXPECT_EQ(lines_of(path("out.csv")), want);

  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.resume = true;
  serial.out_csv = path("out.csv");
  serial.per_run_csv = path("runs.csv");
  const auto report = exp::run_campaign(manifest_, serial);
  EXPECT_EQ(report.skipped, 4U);
  EXPECT_EQ(report.computed, 2U);
  expect_merged_identical("out.csv", "runs.csv");
}

// Drive-mode telemetry: workers record it in their part stores, the driver
// absorbs and exports it, and the point rows are byte-identical to a serial
// campaign's (only the trailer — wall-clock orchestrator instruments — may
// differ).
TEST_F(SupervisorTest, DriveMetricsMergeMatchesSerialPointRows) {
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("ref2.csv");
  serial.metrics_path = path("ref.jsonl");
  exp::run_campaign(manifest_, serial);

  auto o = options(3, "out.csv");
  o.metrics_path = path("metrics.jsonl");
  const auto report = drive(manifest_, o);
  EXPECT_EQ(report.computed, 6U);
  expect_merged_identical("out.csv");  // also: no .w* metrics parts left

  const auto serial_rows = point_rows(path("ref.jsonl"));
  const auto drive_rows = point_rows(path("metrics.jsonl"));
  ASSERT_EQ(serial_rows.size(), 6U);
  EXPECT_EQ(serial_rows, drive_rows);

  // The drive trailer is the orchestrator's registry snapshot.
  std::string last_line;
  {
    std::ifstream in(path("metrics.jsonl"));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) last_line = line;
    }
  }
  const io::Json trailer = io::Json::parse(last_line);
  EXPECT_EQ(trailer.string_or("kind", ""), "registry");
  EXPECT_EQ(trailer.string_or("scope", ""), "orchestrator");
}

// A crashed worker's telemetry rows survive in its part store (flushed
// before point_done, like the CSV), the reassigned points fill the gaps,
// and the crash dumps the protocol flight recorder next to the output.
TEST_F(SupervisorTest, CrashedDriveKeepsTelemetryAndDumpsFlightRecorder) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  auto o = options(1, "out.csv");
  o.metrics_path = path("metrics.jsonl");
  const auto report = drive(manifest_, o);
  EXPECT_GE(report.crashes, 1U);
  expect_merged_identical("out.csv");

  EXPECT_EQ(point_rows(path("metrics.jsonl")).size(), 6U);

  const std::string flightrec = path("out.csv.flightrec");
  ASSERT_TRUE(fs::exists(flightrec)) << "crash should dump flight recorder";
  const std::string dump = slurp(flightrec);
  EXPECT_NE(dump.find("flight recorder:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("hello"), std::string::npos) << dump;
}

// --export renders an interrupted campaign's row store — CSV, per-run CSV,
// --json and --metrics — without resuming it, and keeps the store.
TEST_F(SupervisorTest, ExportRendersAnInterruptedStoreAndKeepsIt) {
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("ref_m.csv");
  serial.metrics_path = path("ref.metrics.jsonl");
  exp::run_campaign(manifest_, serial);
  exp::render_jsonl(path("ref.csv"), path("ref.jsonl"));

  exp::CampaignOptions interrupted;
  interrupted.jobs = 1;
  interrupted.out_csv = path("int.csv");
  interrupted.per_run_csv = path("int_runs.csv");
  interrupted.metrics_path = path("int.metrics.jsonl");
  std::size_t done = 0;
  interrupted.progress = [&done](const exp::PointSummary&, std::size_t d,
                                 std::size_t) { done = d; };
  interrupted.should_stop = [&done] { return done >= 3; };
  ASSERT_TRUE(exp::run_campaign(manifest_, interrupted).interrupted);
  ASSERT_FALSE(fs::exists(path("int.csv")));
  ASSERT_FALSE(fs::exists(path("int.metrics.jsonl")));

  ASSERT_EQ(run_cli("--export --manifest manifest.json --out int.csv "
                    "--per-run int_runs.csv --json int.jsonl "
                    "--metrics int.metrics.jsonl"),
            0);
  EXPECT_TRUE(fs::exists(path("int.csv.pasrows")));
  // Points 0-2 finished: the header plus their rows, in point order.
  EXPECT_EQ(lines_of(path("int.csv")), lines_of(path("ref.csv"), 4));
  EXPECT_EQ(lines_of(path("int_runs.csv")),
            lines_of(path("ref_runs.csv"), 1 + 3 * manifest_.replications));
  EXPECT_EQ(lines_of(path("int.jsonl")), lines_of(path("ref.jsonl"), 3));
  // Telemetry point rows only: the trailer is written at finalize.
  EXPECT_EQ(lines_of(path("int.metrics.jsonl")),
            lines_of(path("ref.metrics.jsonl"), 3));
}

// A resume that omits --per-run or --metrics while the store holds such
// rows would finalize without them and delete the store: pas-exp refuses it
// (serially and with --drive) before computing anything, the store stays
// byte-unchanged, and resuming with both flags reaches the serial bytes.
TEST_F(SupervisorTest, ResumeWithoutAStoredRowKindsFlagIsRefused) {
  exp::CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = path("ref_m.csv");
  serial.metrics_path = path("ref.metrics.jsonl");
  exp::run_campaign(manifest_, serial);
  record_interrupted(path("int.csv"), {0, 1, 2}, path("int_runs.csv"),
                     path("int.metrics.jsonl"));
  const auto before = listing();
  for (const char* args :
       {"--manifest manifest.json --out int.csv --resume",
        "--manifest manifest.json --out int.csv --resume --per-run "
        "int_runs.csv",
        "--manifest manifest.json --out int.csv --resume --metrics "
        "int.metrics.jsonl",
        "--drive 2 --manifest manifest.json --out int.csv --resume "
        "--metrics int.metrics.jsonl"}) {
    EXPECT_EQ(run_cli(args), 1) << args;
    EXPECT_EQ(listing(), before) << args;
  }
  ASSERT_EQ(run_cli("--manifest manifest.json --out int.csv --resume "
                    "--per-run int_runs.csv --metrics int.metrics.jsonl"),
            0);
  EXPECT_EQ(slurp(path("int.csv")), slurp(path("ref.csv")));
  EXPECT_EQ(slurp(path("int_runs.csv")), slurp(path("ref_runs.csv")));
  EXPECT_EQ(point_rows(path("int.metrics.jsonl")),
            point_rows(path("ref.metrics.jsonl")));
}

// A finalized campaign has no row store: --export refuses it and leaves the
// directory exactly as it was (no store seeded from the CSV, no outputs).
TEST_F(SupervisorTest, ExportOfAFinalizedCampaignWritesNothing) {
  const auto before = listing();
  EXPECT_EQ(run_cli("--export --manifest manifest.json --out ref.csv "
                    "--per-run ref_runs.csv --json ref.jsonl "
                    "--metrics ref.metrics.jsonl"),
            1);
  EXPECT_EQ(listing(), before);
}

// A respawn budget of zero turns the first crash into a hard failure when
// no other worker can pick up the queue — instead of a silent infinite
// crash-respawn loop.
TEST_F(SupervisorTest, ExhaustedRespawnBudgetAborts) {
  ::setenv("PAS_ORCH_TEST_CRASH", "0:1", 1);
  auto o = options(1, "out.csv");
  o.max_respawns = 0;
  EXPECT_THROW((void)drive(manifest_, o), std::runtime_error);
}

}  // namespace
}  // namespace pas::orch
