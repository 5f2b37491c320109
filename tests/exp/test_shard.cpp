// Process-level sharding: deterministic grid partitioning, independently
// resumable shard outputs, and merge_campaign() recombination that is
// byte-identical to an unsharded run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>

#include "exp/aggregate.hpp"
#include "exp/runner.hpp"
#include "exp/telemetry.hpp"
#include "world/paper_setup.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

Manifest small_manifest() {
  Manifest m;
  m.name = "shard-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;  // shortened horizon keeps the suite quick
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_shard_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const fs::path& path) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  /// Rewrites a CSV's data rows (the header stays first) through `edit`.
  static void edit_rows(const std::string& file,
                        const std::function<void(std::vector<std::string>&)>&
                            edit) {
    std::vector<std::string> rows;
    std::string header;
    {
      std::ifstream in(file);
      std::getline(in, header);
      std::string line;
      while (std::getline(in, line)) rows.push_back(line);
    }
    edit(rows);
    std::ofstream out(file, std::ios::trunc);
    out << header << '\n';
    for (const auto& row : rows) out << row << '\n';
  }

  /// Merges `inputs` (file names in dir_) as a campaign of `m` into
  /// merged.csv, plus merged_runs.csv / merged.jsonl when asked.
  std::size_t merge(const Manifest& m, const std::vector<std::string>& inputs,
                    bool per_run = false, bool metrics = false) const {
    std::vector<std::string> paths;
    for (const auto& input : inputs) paths.push_back(path(input.c_str()));
    return merge_campaign(m, paths, path("merged.csv"),
                          per_run ? path("merged_runs.csv") : std::string(),
                          metrics ? path("merged.jsonl") : std::string());
  }

  /// The std::runtime_error message a merge raises; fails the test if it
  /// succeeds or throws anything else, or if the refused merge left an
  /// artifact, a temp file or a row store behind.
  std::string merge_error(const std::vector<std::string>& inputs,
                          const Manifest& m = small_manifest(),
                          bool per_run = false, bool metrics = false) const {
    std::string error;
    try {
      (void)merge(m, inputs, per_run, metrics);
      ADD_FAILURE() << "merge_campaign accepted the inputs";
    } catch (const std::runtime_error& e) {
      error = e.what();
    }
    for (const auto& entry : fs::directory_iterator(dir_)) {
      EXPECT_NE(entry.path().filename().string().rfind("merged", 0), 0U)
          << entry.path() << " left behind by: " << error;
    }
    return error;
  }

  /// Runs one shard of the manifest; returns the report.
  CampaignReport run_shard(const Manifest& m, std::size_t index,
                           std::size_t count, const std::string& out,
                           const std::string& per_run = {},
                           bool resume = false,
                           const std::string& metrics = {}) {
    CampaignOptions options;
    options.jobs = 2;
    options.shard_index = index;
    options.shard_count = count;
    options.out_csv = out;
    options.per_run_csv = per_run;
    options.metrics_path = metrics;
    options.resume = resume;
    return run_campaign(m, options);
  }

  /// The unsharded reference: full.csv, full_runs.csv and `metrics`.
  void run_full(const Manifest& m, const std::string& metrics = {}) {
    CampaignOptions full;
    full.jobs = 1;
    full.out_csv = path("full.csv");
    full.per_run_csv = path("full_runs.csv");
    full.metrics_path = metrics;
    run_campaign(m, full);
  }

  /// Two shards with per-run files: s0.csv, s0_runs.csv, s1.csv, ...
  void run_two_shards(const Manifest& m) {
    run_shard(m, 0, 2, path("s0.csv"), path("s0_runs.csv"));
    run_shard(m, 1, 2, path("s1.csv"), path("s1_runs.csv"));
  }

  fs::path dir_;
};

TEST_F(ShardTest, ShardsPartitionTheGridByIndexModulo) {
  const Manifest m = small_manifest();
  const auto r0 = run_shard(m, 0, 2, path("s0.csv"));
  const auto r1 = run_shard(m, 1, 2, path("s1.csv"));
  EXPECT_EQ(r0.total_points, 6U);
  EXPECT_EQ(r0.owned_points, 3U);  // points 0, 2, 4
  EXPECT_EQ(r0.computed, 3U);
  EXPECT_EQ(r1.owned_points, 3U);  // points 1, 3, 5

  // Shard files carry exactly the owned points, in index order.
  std::ifstream in(path("s0.csv"));
  std::string line;
  std::getline(in, line);  // header
  std::size_t expected = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.substr(0, 2), std::to_string(expected) + ",");
    expected += 2;
  }
  EXPECT_EQ(expected, 6U);
}

// More shards than points: a shard whose index is past the grid owns no
// point. It computes nothing and writes header-only artifacts (its
// telemetry file holds only the registry trailer), and a merge of every
// shard is still the unsharded run.
TEST_F(ShardTest, ShardBeyondTheGridOwnsNoPoint) {
  const Manifest m = small_manifest();  // 6 points
  run_full(m, path("full.jsonl"));
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string s = "s" + std::to_string(i);
    inputs.insert(inputs.end(), {s + ".csv", s + "_runs.csv", s + ".jsonl"});
    const auto report =
        run_shard(m, i, 8, path((s + ".csv").c_str()),
                  path((s + "_runs.csv").c_str()), false,
                  path((s + ".jsonl").c_str()));
    EXPECT_EQ(report.owned_points, i < 6 ? 1U : 0U) << s;
    EXPECT_EQ(report.computed, i < 6 ? 1U : 0U) << s;
  }
  const auto header = [&](const char* file) {
    std::ifstream in(path(file));
    std::string line;
    std::getline(in, line);
    return line + '\n';
  };
  EXPECT_EQ(slurp(path("s7.csv")), header("full.csv"));
  EXPECT_EQ(slurp(path("s7_runs.csv")), header("full_runs.csv"));
  const std::string trailer = slurp(path("s7.jsonl"));
  EXPECT_EQ(std::count(trailer.begin(), trailer.end(), '\n'), 1) << trailer;
  EXPECT_EQ(parse_point_row(header("s7.jsonl"), 0), SIZE_MAX) << trailer;

  EXPECT_EQ(merge(m, inputs, /*per_run=*/true, /*metrics=*/true), 6U);
  EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
  EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
  // The merged telemetry is the serial run's point rows (no trailer).
  std::string serial_rows;
  std::ifstream in(path("full.jsonl"));
  for (std::string line; std::getline(in, line);) {
    if (parse_point_row(line, 0) != SIZE_MAX) serial_rows += line + '\n';
  }
  EXPECT_EQ(slurp(path("merged.jsonl")), serial_rows);
}

TEST_F(ShardTest, MergedShardsAreByteIdenticalToUnshardedRun) {
  const Manifest m = small_manifest();
  run_full(m);
  run_shard(m, 0, 3, path("s0.csv"), path("s0_runs.csv"));
  run_shard(m, 1, 3, path("s1.csv"), path("s1_runs.csv"));
  run_shard(m, 2, 3, path("s2.csv"), path("s2_runs.csv"));

  // One invocation takes the point and per-run files in any order (each
  // is recognized by its header).
  EXPECT_EQ(merge(m,
                  {"s2_runs.csv", "s0.csv", "s1_runs.csv", "s1.csv", "s2.csv",
                   "s0_runs.csv"},
                  /*per_run=*/true),
            6U);
  EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
  EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
  EXPECT_FALSE(fs::exists(path("merged.csv.pasrows")));
}

TEST_F(ShardTest, TruncatedShardResumesToIdenticalBytes) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  const std::string complete = slurp(path("s0.csv"));

  // Keep the header and the first owned row only (killed after point 0).
  {
    std::istringstream in(complete);
    std::ofstream out(path("s0.csv"), std::ios::trunc);
    std::string line;
    for (int i = 0; i < 2 && std::getline(in, line); ++i) out << line << '\n';
  }
  std::vector<std::size_t> recomputed;
  CampaignOptions options;
  options.jobs = 1;
  options.shard_index = 0;
  options.shard_count = 2;
  options.out_csv = path("s0.csv");
  options.resume = true;
  options.progress = [&recomputed](const PointSummary& s, std::size_t,
                                   std::size_t) {
    recomputed.push_back(s.point);
  };
  const auto report = run_campaign(m, options);
  EXPECT_EQ(report.skipped, 1U);
  EXPECT_EQ(report.computed, 2U);
  EXPECT_EQ(recomputed, (std::vector<std::size_t>{2, 4}));
  EXPECT_EQ(slurp(path("s0.csv")), complete);
}

TEST_F(ShardTest, ResumeRejectsRowsFromAnotherShard) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  // Resuming shard 0's file as shard 1 would silently drop shard 0's rows
  // and duplicate work; it must fail loudly instead.
  EXPECT_THROW(run_shard(m, 1, 2, path("s0.csv"), {}, /*resume=*/true),
               std::runtime_error);
}

TEST_F(ShardTest, MergeRejectsOverlappingShards) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  const auto error = merge_error({"s0.csv", "s1.csv", "s0.csv"});
  EXPECT_NE(error.find("point 0 appears twice"), std::string::npos) << error;
}

TEST_F(ShardTest, MergeRejectsMissingShard) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  // Without the odd-point shard there are gaps; the merge must refuse to
  // write a partial "full" output, naming the first missing point.
  const auto error = merge_error({"s0.csv"});
  EXPECT_NE(error.find("point 1 is incomplete"), std::string::npos) << error;
  // A per-run merge without the per-run files completes no point.
  run_shard(m, 1, 2, path("s1.csv"));
  const auto runs = merge_error({"s0.csv", "s1.csv"}, m, /*per_run=*/true);
  EXPECT_NE(runs.find("point 0 is incomplete"), std::string::npos) << runs;
  const auto missing = merge_error({"s0.csv", "s1.csv", "s2.csv"});
  EXPECT_NE(missing.find("cannot open " + path("s2.csv")), std::string::npos)
      << missing;
}

TEST_F(ShardTest, MergeRejectsTruncatedRow) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  {
    std::ofstream out(path("s1.csv"), std::ios::app);
    out << "5,12345,PAS";  // torn mid-write
  }
  const auto error = merge_error({"s0.csv", "s1.csv"});
  EXPECT_NE(error.find(path("s1.csv") + " line 5: torn row"),
            std::string::npos)
      << error;
}

// The export sorts, so a shard's row order does not matter: a reversed or
// hand-shuffled shard merges to the unsharded bytes.
TEST_F(ShardTest, ReorderedShardsMergeToTheUnshardedBytes) {
  const Manifest m = small_manifest();
  run_full(m);
  run_two_shards(m);
  const struct {
    const char* name;
    const char* file;
    std::function<void(std::vector<std::string>&)> edit;
  } cases[] = {
      {"reversed shard", "s0.csv",
       [](auto& rows) { std::reverse(rows.begin(), rows.end()); }},
      {"swapped point rows", "s1.csv",
       [](auto& rows) { std::swap(rows[1], rows[2]); }},  // points 3 and 5
      {"swapped replications", "s0_runs.csv",
       [](auto& rows) { std::swap(rows[0], rows[1]); }},  // point 0
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string original = slurp(path(c.file));
    edit_rows(path(c.file), c.edit);
    ASSERT_NE(slurp(path(c.file)), original);
    EXPECT_EQ(merge(m, {"s0.csv", "s0_runs.csv", "s1.csv", "s1_runs.csv"},
                    /*per_run=*/true),
              6U);
    EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
    EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
    std::ofstream(path(c.file), std::ios::trunc) << original;
  }
}

TEST_F(ShardTest, MergeReportsDuplicateRowWithinOneInput) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  edit_rows(path("s1.csv"), [](std::vector<std::string>& rows) {
    rows.insert(rows.begin() + 1, rows[1]);  // point 3 twice
  });
  const auto error = merge_error({"s0.csv", "s1.csv"});
  EXPECT_NE(error.find(path("s1.csv") + " line 4: point 3 appears twice"),
            std::string::npos)
      << error;
  // A row repeated inside one shard is not blamed on overlapping shards.
  EXPECT_EQ(error.find("overlapping"), std::string::npos) << error;
}

TEST_F(ShardTest, ResumeReExportsUnsortedShardSorted) {
  const Manifest m = small_manifest();
  run_two_shards(m);
  // A bare, complete but unsorted shard (no row store beside it).
  std::vector<std::string> sorted;
  for (const char* name : {"s0.csv", "s0_runs.csv"}) {
    sorted.push_back(slurp(path(name)));
    edit_rows(path(name), [](std::vector<std::string>& rows) {
      std::reverse(rows.begin(), rows.end());
    });
  }
  const auto report = run_shard(m, 0, 2, path("s0.csv"), path("s0_runs.csv"),
                                /*resume=*/true);
  EXPECT_EQ(report.computed, 0U);
  EXPECT_EQ(report.skipped, 3U);
  EXPECT_EQ(slurp(path("s0.csv")), sorted[0]);
  EXPECT_EQ(slurp(path("s0_runs.csv")), sorted[1]);
}

TEST_F(ShardTest, MergeRejectsMismatchedHeaders) {
  {
    std::ofstream a(path("a.csv"));
    a << "point,seed,policy,replications\n0,1,NS,2\n";
    std::ofstream b(path("b.csv"));
    b << "point,seed,max_sleep_s,replications\n1,2,5,2\n";
  }
  const auto error = merge_error({"a.csv", "b.csv"});
  EXPECT_NE(error.find("header of " + path("a.csv")), std::string::npos)
      << error;
}

TEST_F(ShardTest, MergeRefusesRowsItWouldNotWrite) {
  const Manifest m = small_manifest();
  run_two_shards(m);
  // Without --per-run the per-run files' rows would be lost.
  const auto error =
      merge_error({"s0.csv", "s0_runs.csv", "s1.csv", "s1_runs.csv"});
  EXPECT_NE(error.find("--per-run"), std::string::npos) << error;
}

TEST_F(ShardTest, MergeRejectsShardsOfADifferentManifest) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  Manifest other = m;
  other.seed_base = 99;  // same columns, different seeds per point
  const auto error = merge_error({"s0.csv", "s1.csv"}, other);
  EXPECT_NE(error.find("different parameters"), std::string::npos) << error;
  // Seeds are independent of the replication count, so this mismatch is
  // only visible in the rows' replications cell — it must still be caught.
  Manifest recount = m;
  recount.replications = 5;
  const auto reps = merge_error({"s0.csv", "s1.csv"}, recount);
  EXPECT_NE(reps.find("different parameters"), std::string::npos) << reps;
}

// One invocation writes every artifact; the telemetry files' point rows are
// imported like the CSVs' rows, and their registry trailers are skipped.
TEST_F(ShardTest, MergeWritesEveryArtifactInOneInvocation) {
  const Manifest m = small_manifest();
  run_full(m, path("full.jsonl"));
  run_shard(m, 0, 2, path("s0.csv"), path("s0_runs.csv"), false,
            path("s0.jsonl"));
  run_shard(m, 1, 2, path("s1.csv"), path("s1_runs.csv"), false,
            path("s1.jsonl"));
  const std::vector<std::string> inputs = {"s1.jsonl", "s0.csv",
                                           "s1_runs.csv", "s0.jsonl",
                                           "s1.csv", "s0_runs.csv"};
  // Existing artifacts are overwritten.
  for (const char* name : {"merged.csv", "merged_runs.csv", "merged.jsonl"}) {
    std::ofstream(path(name)) << "stale\n";
  }
  EXPECT_EQ(merge(m, inputs, /*per_run=*/true, /*metrics=*/true), 6U);
  EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
  EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
  const auto point_rows = [](const std::string& file) {
    std::vector<std::string> rows;
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (parse_point_row(line, 0) != SIZE_MAX) rows.push_back(line);
    }
    return rows;
  };
  const auto serial = point_rows(path("full.jsonl"));
  EXPECT_EQ(serial.size(), 6U);
  EXPECT_EQ(point_rows(path("merged.jsonl")), serial);
  // Point rows only: a merge writes no trailer.
  const std::string merged = slurp(path("merged.jsonl"));
  EXPECT_EQ(std::count(merged.begin(), merged.end(), '\n'), 6);

  // A failed write (ENOSPC: the temp file links to /dev/full) throws and
  // leaves the earlier merge's outputs, no temp file and no row store.
  if (fs::exists("/dev/full")) {
    const std::string before = slurp(path("merged.jsonl"));
    fs::create_symlink("/dev/full", path("merged.jsonl.tmp"));
    EXPECT_THROW(merge(m, inputs, true, true), std::runtime_error);
    EXPECT_FALSE(fs::exists(fs::symlink_status(path("merged.jsonl.tmp"))));
    EXPECT_FALSE(fs::exists(path("merged.csv.pasrows")));
    EXPECT_EQ(slurp(path("merged.jsonl")), before);
    EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
  }
}

// Telemetry lines are read leniently, but a --metrics merge still refuses
// a point the CSVs complete and no telemetry file covers.
TEST_F(ShardTest, MergeRejectsMissingTelemetry) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"), {}, false, path("s0.jsonl"));
  run_shard(m, 1, 2, path("s1.csv"), {}, false, path("s1.jsonl"));
  const auto error = merge_error({"s0.csv", "s1.csv", "s0.jsonl"}, m,
                                 /*per_run=*/false, /*metrics=*/true);
  EXPECT_NE(error.find("point 1 has no telemetry row"), std::string::npos)
      << error;
  EXPECT_EQ(merge(m, {"s0.csv", "s1.csv", "s0.jsonl", "s1.jsonl"}, false,
                  true),
            6U);
}

// A store at --out belongs to an in-flight campaign: a merge must neither
// replace nor extend it.
TEST_F(ShardTest, MergeRefusesAnInFlightStore) {
  const Manifest m = small_manifest();
  run_shard(m, 0, 2, path("s0.csv"));
  run_shard(m, 1, 2, path("s1.csv"));
  std::ofstream(path("merged.csv.pasrows")) << "an interrupted campaign";
  const std::string store = slurp(path("merged.csv.pasrows"));
  try {
    (void)merge(m, {"s0.csv", "s1.csv"});
    ADD_FAILURE() << "merge_campaign merged into an in-flight store";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("in-flight"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp(path("merged.csv.pasrows")), store);
  EXPECT_FALSE(fs::exists(path("merged.csv")));
}

// A merge killed mid-import leaves a torn store whose complete points a
// resume keeps; it computes the rest and reaches the unsharded bytes.
TEST_F(ShardTest, KilledMergeResumesToTheUnshardedBytes) {
  const Manifest m = small_manifest();
  run_full(m);
  run_two_shards(m);
  {
    Aggregator aggregator(campaign_aggregator_options(
        m, expand_grid(m), path("merged.csv"), path("merged_runs.csv"), {}));
    const auto report = aggregator.import_outputs(
        {path("s0.csv"), path("s0_runs.csv"), path("s1.csv"),
         path("s1_runs.csv")});
    EXPECT_EQ(report.dropped, 0U);
  }  // killed before the export...
  const std::string store = path("merged.csv.pasrows");
  fs::resize_file(store, fs::file_size(store) * 2 / 3);  // ...mid-write
  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = path("merged.csv");
  options.per_run_csv = path("merged_runs.csv");
  options.resume = true;
  const auto report = run_campaign(m, options);
  EXPECT_GT(report.skipped, 0U);
  EXPECT_GT(report.computed, 0U);
  EXPECT_EQ(slurp(path("merged.csv")), slurp(path("full.csv")));
  EXPECT_EQ(slurp(path("merged_runs.csv")), slurp(path("full_runs.csv")));
}

TEST_F(ShardTest, RunCampaignValidatesShardSpec) {
  const Manifest m = small_manifest();
  CampaignOptions options;
  options.shard_count = 0;
  EXPECT_THROW((void)run_campaign(m, options), std::invalid_argument);
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW((void)run_campaign(m, options), std::invalid_argument);
}

}  // namespace
}  // namespace pas::exp
