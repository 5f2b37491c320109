// Aggregator: durable row-store recording, resume recovery, CSV export;
// render_jsonl: the JSON-lines rendering of a finalized point CSV.
#include "exp/aggregate.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "exp/row_store.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "metrics/stats.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

class AggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_agg_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    csv_ = (dir_ / "out.csv").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static world::ReplicatedMetrics fake_metrics(double delay) {
    world::ReplicatedMetrics m;
    m.delay_s = {.n = 2, .mean = delay, .stddev = 0.0, .min = delay,
                 .max = delay, .ci95_half = 0.0};
    m.energy_j = {.n = 2, .mean = 4.0, .stddev = 0.0, .min = 4.0, .max = 4.0,
                  .ci95_half = 0.0};
    m.active_fraction = {.n = 2, .mean = 0.5, .stddev = 0.0, .min = 0.5,
                         .max = 0.5, .ci95_half = 0.0};
    m.mean_missed = 1.0;
    m.mean_broadcasts = 10.0;
    m.runs.resize(2);
    return m;
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  fs::path dir_;
  std::string csv_;
};

TEST_F(AggregateTest, WritesHeaderAndRowsIncrementally) {
  Aggregator agg(csv_, {"policy"}, 3);
  EXPECT_EQ(agg.load_existing(), 0U);
  agg.record(1, 111, {"SAS"}, fake_metrics(2.0));
  EXPECT_FALSE(agg.is_done(0));
  EXPECT_TRUE(agg.is_done(1));
  EXPECT_EQ(agg.pending(), (std::vector<std::size_t>{0, 2}));
  // The row is on disk (flushed to the row store) before the campaign
  // completes, while the first aggregator is still alive: a second one
  // resumes it as done and renders header plus row.
  Aggregator resumed(csv_, {"policy"}, 3);
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_TRUE(resumed.is_done(1));
  EXPECT_EQ(resumed.pending(), (std::vector<std::size_t>{0, 2}));
  resumed.compact();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_EQ(lines[0].substr(0, 11), "point,seed,");
  EXPECT_EQ(lines[1].substr(0, 6), "1,111,");
}

TEST_F(AggregateTest, ResumeSkipsCompletedPoints) {
  {
    Aggregator agg(csv_, {"policy"}, 4);
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.record(2, 102, {"PAS"}, fake_metrics(1.5));
  }  // "killed" campaign: rows 0 and 2 on disk

  Aggregator resumed(csv_, {"policy"}, 4);
  EXPECT_EQ(resumed.load_existing(), 2U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  EXPECT_TRUE(resumed.is_done(2));
  EXPECT_EQ(resumed.pending(), (std::vector<std::size_t>{1, 3}));

  resumed.record(1, 101, {"SAS"}, fake_metrics(2.0));
  resumed.record(3, 103, {"PAS"}, fake_metrics(3.0));
  resumed.finalize();

  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 5U);
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(lines[p + 1].substr(0, 2), std::to_string(p) + ",");
  }
}

TEST_F(AggregateTest, ResumeDropsTruncatedTrailingRow) {
  {
    Aggregator agg(csv_, {"policy"}, 3);
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.compact();
  }
  // A bare CSV (no row store beside it) resumes through the CSV readers.
  ASSERT_TRUE(fs::remove(RowStore::path_for(csv_)));
  {
    // Simulate a kill mid-write: append half a row.
    std::ofstream out(csv_, std::ios::app);
    out << "1,101,SAS,2,0.5";  // far fewer cells than the header
  }
  Aggregator resumed(csv_, {"policy"}, 3);
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_FALSE(resumed.is_done(1));
  // The compacted file no longer carries the damaged point-1 line.
  resumed.compact();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);  // header + intact row 0
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
}

TEST_F(AggregateTest, HeaderMismatchThrows) {
  {
    std::ofstream out(csv_);
    out << "point,seed,wrong,columns\n";
  }
  Aggregator agg(csv_, {"policy"}, 3);
  EXPECT_THROW(agg.load_existing(), std::runtime_error);
}

TEST_F(AggregateTest, FinalizeRequiresCompleteness) {
  Aggregator agg(csv_, {}, 2);
  agg.load_existing();
  agg.record(0, 100, {}, fake_metrics(0.0));
  EXPECT_THROW(agg.finalize(), std::logic_error);
}

TEST_F(AggregateTest, JsonLinesMirrorRows) {
  const std::string jsonl = (dir_ / "out.jsonl").string();
  Aggregator agg(csv_, {"policy"}, 1);
  agg.load_existing();
  agg.record(0, 100, {"PAS"}, fake_metrics(2.5));
  agg.finalize();
  render_jsonl(csv_, jsonl);
  const auto lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"policy\":\"PAS\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"delay_mean_s\":2.5"), std::string::npos);
  // Rows must be valid JSON documents.
  EXPECT_NO_THROW((void)io::Json::parse(lines[0]));
}

TEST_F(AggregateTest, NonFiniteMetricsBecomeJsonNull) {
  const std::string jsonl = (dir_ / "out.jsonl").string();
  Aggregator agg(csv_, {"policy"}, 1);
  agg.load_existing();
  auto m = fake_metrics(std::numeric_limits<double>::quiet_NaN());
  m.energy_j.mean = std::numeric_limits<double>::infinity();
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  render_jsonl(csv_, jsonl);
  const auto lines = read_lines(jsonl);
  ASSERT_EQ(lines.size(), 1U);
  EXPECT_NE(lines[0].find("\"delay_mean_s\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"energy_mean_j\":null"), std::string::npos);
  EXPECT_NO_THROW((void)io::Json::parse(lines[0]));  // still valid JSON
}

TEST_F(AggregateTest, ResumeRejectsRowsFromDifferentManifest) {
  {
    Aggregator agg(csv_, {"max_sleep_s"}, 2,
                   {{"100", "5"}, {"101", "10"}});
    agg.load_existing();
    agg.record(0, 100, {"5"}, fake_metrics(1.0));
  }
  // Same columns, but the campaign now expects different axis values for
  // point 0 (as if the manifest's sweep values changed).
  Aggregator changed(csv_, {"max_sleep_s"}, 2,
                     {{"100", "7"}, {"101", "10"}});
  EXPECT_THROW(changed.load_existing(), std::runtime_error);

  // A changed seed_base is caught the same way.
  Aggregator reseeded(csv_, {"max_sleep_s"}, 2,
                      {{"999", "5"}, {"998", "10"}});
  EXPECT_THROW(reseeded.load_existing(), std::runtime_error);

  // The matching manifest still resumes cleanly.
  Aggregator same(csv_, {"max_sleep_s"}, 2, {{"100", "5"}, {"101", "10"}});
  EXPECT_EQ(same.load_existing(), 1U);
}

TEST_F(AggregateTest, OwnedPointsRestrictPendingAndFinalize) {
  AggregatorOptions options;
  options.csv_path = csv_;
  options.axis_names = {"policy"};
  options.total_points = 4;
  options.owned_points = {0, 2};
  Aggregator agg(std::move(options));
  EXPECT_EQ(agg.owned_count(), 2U);
  agg.load_existing();
  EXPECT_EQ(agg.pending(), (std::vector<std::size_t>{0, 2}));
  // Foreign points are a scheduling bug, not data.
  EXPECT_THROW(agg.record(1, 101, {"SAS"}, fake_metrics(1.0)),
               std::logic_error);
  agg.record(0, 100, {"NS"}, fake_metrics(0.0));
  agg.record(2, 102, {"PAS"}, fake_metrics(2.0));
  // Complete for this shard even though points 1 and 3 have no rows.
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 3U);
  EXPECT_EQ(lines[1].substr(0, 2), "0,");
  EXPECT_EQ(lines[2].substr(0, 2), "2,");
}

TEST_F(AggregateTest, PerRunRowsMirrorEveryReplication) {
  const std::string runs_csv = (dir_ / "runs.csv").string();
  AggregatorOptions options;
  options.csv_path = csv_;
  options.per_run_path = runs_csv;
  options.axis_names = {"policy"};
  options.total_points = 1;
  options.replications = 2;
  Aggregator agg(std::move(options));
  agg.load_existing();
  auto m = fake_metrics(2.0);
  m.runs[0].avg_delay_s = 1.5;
  m.runs[1].avg_delay_s = 2.5;
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();

  const auto lines = read_lines(runs_csv);
  ASSERT_EQ(lines.size(), 3U);  // header + one row per replication
  EXPECT_EQ(lines[0].substr(0, 15), "point,rep,seed,");
  // Replication r runs with seed 100 + r.
  EXPECT_EQ(lines[1].substr(0, 10), "0,0,100,PA");
  EXPECT_EQ(lines[2].substr(0, 10), "0,1,101,PA");
  EXPECT_NE(lines[1].find(",1.5,"), std::string::npos);
  EXPECT_NE(lines[2].find(",2.5,"), std::string::npos);
}

TEST_F(AggregateTest, ResumeDropsPointsWithTornPerRunGroups) {
  const std::string runs_csv = (dir_ / "runs.csv").string();
  const auto make_options = [&] {
    AggregatorOptions options;
    options.csv_path = csv_;
    options.per_run_path = runs_csv;
    options.axis_names = {"policy"};
    options.total_points = 2;
    options.replications = 2;
    return options;
  };
  {
    Aggregator agg(make_options());
    agg.load_existing();
    agg.record(0, 100, {"NS"}, fake_metrics(0.0));
    agg.record(1, 101, {"PAS"}, fake_metrics(1.0));
    agg.finalize();  // retires the row store: the CSVs are all that is left
  }
  ASSERT_FALSE(fs::exists(RowStore::path_for(csv_)));
  // Tear point 1's per-run group (as if killed mid-write): its summary row
  // must not count as done on resume.
  {
    const auto lines = read_lines(runs_csv);
    ASSERT_EQ(lines.size(), 5U);
    std::ofstream out(runs_csv, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << '\n';
  }
  Aggregator resumed(make_options());
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  // The compacted per-run file dropped the torn group entirely.
  resumed.compact();
  EXPECT_EQ(read_lines(runs_csv).size(), 3U);
}

TEST_F(AggregateTest, MainCsvCarriesDelayPercentileColumns) {
  Aggregator agg(csv_, {"policy"}, 1);
  agg.load_existing();
  auto m = fake_metrics(2.0);
  m.runs[0].avg_delay_s = 1.0;
  m.runs[1].avg_delay_s = 3.0;
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  EXPECT_NE(lines[0].find("delay_p50_s,delay_p95_s,delay_p99_s"),
            std::string::npos);
  // Interpolated over the per-run delays {1, 3}, rendered exactly as the
  // aggregator does (round-trip formatting).
  const auto pct = metrics::Percentiles::of({1.0, 3.0});
  const std::string want = "," + io::format_double(pct.p50) + "," +
                           io::format_double(pct.p95) + "," +
                           io::format_double(pct.p99) + ",";
  EXPECT_NE(lines[1].find(want), std::string::npos);
}

TEST_F(AggregateTest, InMemoryAggregationNeedsNoFiles) {
  Aggregator agg("", {"policy"}, 2);
  agg.load_existing();
  agg.record(0, 1, {"NS"}, fake_metrics(0.0));
  agg.record(1, 2, {"PAS"}, fake_metrics(1.0));
  // A point beyond the grid is a scheduling bug, not a new row.
  EXPECT_THROW(agg.record(2, 3, {"SAS"}, fake_metrics(1.0)),
               std::logic_error);
  agg.finalize();
  EXPECT_EQ(agg.done_count(), 2U);
  EXPECT_EQ(agg.summaries().at(1).delay_s.mean, 1.0);
  EXPECT_TRUE(fs::directory_iterator(dir_) == fs::directory_iterator());
}

// --- Row store and export ---------------------------------------------------

class StoreAggregateTest : public AggregateTest {
 protected:
  /// Deterministic per-(point, rep) metrics, so the exported bytes are a
  /// pure function of the campaign — any byte difference is a pipeline bug.
  static world::ReplicatedMetrics synth_metrics(std::size_t point,
                                                std::size_t reps) {
    world::ReplicatedMetrics m = fake_metrics(
        0.5 + 0.01 * static_cast<double>(point % 13));
    m.runs.resize(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      m.runs[r] = metrics::RunMetrics{};
      m.runs[r].avg_delay_s =
          0.25 + 0.003 * static_cast<double>((point * 7 + r * 3) % 29);
      m.runs[r].avg_energy_j =
          1.0 + 0.001 * static_cast<double>((point + r) % 17);
    }
    return m;
  }

  AggregatorOptions store_options(const fs::path& sub,
                                  std::size_t total_points,
                                  std::size_t reps,
                                  std::size_t spill_budget) {
    fs::create_directories(dir_ / sub);
    AggregatorOptions options;
    options.csv_path = (dir_ / sub / "out.csv").string();
    options.per_run_path = (dir_ / sub / "runs.csv").string();
    options.axis_names = {"x"};
    options.total_points = total_points;
    options.replications = reps;
    options.store_path = RowStore::path_for(options.csv_path);
    options.spill_budget_bytes = spill_budget;
    return options;
  }

  /// finalize() plus the JSON-lines rendering pas-exp --json adds to it.
  static void finalize_with_jsonl(Aggregator& agg,
                                  const AggregatorOptions& options) {
    agg.finalize();
    render_jsonl(options.csv_path,
                 (fs::path(options.csv_path).parent_path() / "out.jsonl")
                     .string());
  }

  static std::string telemetry_row(std::size_t point) {
    return "{\"kind\":\"point\",\"point\":" + std::to_string(point) + "}";
  }

  /// store_options() plus a --metrics path.
  AggregatorOptions telemetry_options(const fs::path& sub,
                                      std::size_t total_points,
                                      std::size_t reps) {
    auto options = store_options(sub, total_points, reps, 0);
    options.metrics_path = (dir_ / sub / "m.jsonl").string();
    return options;
  }

  /// Records `points` (with telemetry rows) the way a drive worker does:
  /// into the store under `sub`, never exported. Returns the store path.
  std::string record_part(const fs::path& sub, std::size_t total_points,
                          std::size_t reps,
                          const std::vector<std::size_t>& points) {
    const auto options = telemetry_options(sub, total_points, reps);
    Aggregator part{AggregatorOptions(options)};
    part.load_existing();
    for (const auto p : points) {
      part.record(p, 100 + p, {std::to_string(p)}, synth_metrics(p, reps),
                  telemetry_row(p));
    }
    return options.store_path;
  }

  /// Records the whole campaign under `sub` and finalizes it: the bytes
  /// every recovery path must reproduce.
  void record_clean(const fs::path& sub, std::size_t total_points,
                    std::size_t reps) {
    Aggregator clean{telemetry_options(sub, total_points, reps)};
    clean.load_existing();
    for (std::size_t p = 0; p < total_points; ++p) {
      clean.record(p, 100 + p, {std::to_string(p)}, synth_metrics(p, reps),
                   telemetry_row(p));
    }
    clean.finalize({"{\"kind\":\"registry\"}"});
  }

  void expect_same_artifacts(const fs::path& a, const fs::path& b) {
    for (const char* name : {"out.csv", "runs.csv", "m.jsonl"}) {
      EXPECT_EQ(read_lines((dir_ / a / name).string()),
                read_lines((dir_ / b / name).string()))
          << name;
    }
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }

  /// FNV-1a over a file's bytes.
  static std::uint64_t file_digest(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    char c = 0;
    while (in.get(c)) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  }
};

TEST_F(StoreAggregateTest, ExportMatchesPinnedLegacyDigests) {
  constexpr std::size_t kPoints = 37;
  constexpr std::size_t kReps = 3;
  // Digests (and sizes) of this campaign's artifacts as the pre-store
  // in-memory aggregator wrote them; the export must reproduce them byte
  // for byte.
  struct Pinned {
    const char* name;
    std::uint64_t digest;
    std::uintmax_t size;
  };
  constexpr Pinned kPinned[] = {
      {"out.csv", 0xc96c2eff8eb9d450ULL, 3053},
      {"out.jsonl", 0x1b096fab23e0feceULL, 12199},
      {"runs.csv", 0xa9e5f502e1fdd501ULL, 4207},
  };
  // The default budget exports from one in-memory batch; a tiny one forces
  // many sorted spill runs and a genuine k-way merge even on this small
  // campaign.
  for (const std::size_t budget : {std::size_t{0}, std::size_t{512}}) {
    const std::string sub = "budget" + std::to_string(budget);
    const auto options = store_options(sub, kPoints, kReps, budget);
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    // Record in a scrambled (but deterministic) completion order.
    for (std::size_t i = 0; i < kPoints; ++i) {
      const std::size_t p = (i * 17) % kPoints;
      agg.record(p, 1000 + p, {std::to_string(p)}, synth_metrics(p, kReps));
    }
    finalize_with_jsonl(agg, options);
    for (const auto& pin : kPinned) {
      const fs::path path = dir_ / sub / pin.name;
      EXPECT_EQ(fs::file_size(path), pin.size) << sub << "/" << pin.name;
      EXPECT_EQ(file_digest(path), pin.digest) << sub << "/" << pin.name;
    }
    // finalize retires the store: the completed campaign is just its CSVs.
    EXPECT_FALSE(fs::exists(options.store_path));
  }
  for (const auto& pin : kPinned) {
    EXPECT_EQ(read_lines((dir_ / "budget0" / pin.name).string()),
              read_lines((dir_ / "budget512" / pin.name).string()))
        << pin.name;
  }
}

TEST_F(StoreAggregateTest, ResumeDropsTornBinaryTail) {
  const auto options = store_options("s", 2, 2, 0);
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    agg.record(0, 100, {"0"}, synth_metrics(0, 2));
    agg.record(1, 101, {"1"}, synth_metrics(1, 2));
    // No finalize: the campaign dies here, rows live only in the store.
  }
  EXPECT_FALSE(fs::exists(options.csv_path));
  ASSERT_TRUE(fs::exists(options.store_path));
  // Tear into point 1's trailing summary record, as a kill mid-write would.
  fs::resize_file(options.store_path, fs::file_size(options.store_path) - 3);

  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 1U);
  EXPECT_TRUE(resumed.is_done(0));
  EXPECT_FALSE(resumed.is_done(1));
  resumed.record(1, 101, {"1"}, synth_metrics(1, 2));
  finalize_with_jsonl(resumed, options);

  // The recovered campaign's artifacts equal an uninterrupted run's.
  const auto clean = store_options("clean", 2, 2, 0);
  Aggregator oracle{AggregatorOptions(clean)};
  oracle.load_existing();
  oracle.record(0, 100, {"0"}, synth_metrics(0, 2));
  oracle.record(1, 101, {"1"}, synth_metrics(1, 2));
  finalize_with_jsonl(oracle, clean);
  for (const char* name : {"out.csv", "out.jsonl", "runs.csv"}) {
    EXPECT_EQ(read_lines((dir_ / "s" / name).string()),
              read_lines((dir_ / "clean" / name).string()))
        << name;
  }
}

// --- absorb: a drive worker's part store into the driver's ---------------

TEST_F(StoreAggregateTest, AbsorbCarriesPerRunAndTelemetryRowsWithSummary) {
  record_clean("clean", 4, 3);
  const auto part = record_part("w0", 4, 3, {2, 0, 3, 1});
  Aggregator driver{telemetry_options("driver", 4, 3)};
  driver.load_existing();
  EXPECT_EQ(driver.absorb(part), (std::vector<std::size_t>{2, 0, 3, 1}));
  EXPECT_EQ(driver.done_count(), 4U);
  driver.finalize({"{\"kind\":\"registry\"}"});
  expect_same_artifacts("driver", "clean");
  // absorb reads the part and leaves deleting it to the caller.
  EXPECT_TRUE(fs::exists(part));
}

TEST_F(StoreAggregateTest, AbsorbSkipsATornLastBatch) {
  const auto part = record_part("w0", 3, 2, {0, 1});
  // Tear into point 1's summary record, the batch's commit mark.
  fs::resize_file(part, fs::file_size(part) - 3);
  Aggregator driver{telemetry_options("driver", 3, 2)};
  driver.load_existing();
  EXPECT_EQ(driver.absorb(part), (std::vector<std::size_t>{0}));
  EXPECT_EQ(driver.pending(), (std::vector<std::size_t>{1, 2}));
}

TEST_F(StoreAggregateTest, AbsorbSkipsPointsTheDriverAlreadyHolds) {
  record_clean("clean", 3, 2);
  const auto options = telemetry_options("driver", 3, 2);
  Aggregator driver{AggregatorOptions(options)};
  driver.load_existing();
  driver.record(1, 101, {"1"}, synth_metrics(1, 2), telemetry_row(1));
  EXPECT_EQ(driver.absorb(record_part("w0", 3, 2, {0})),
            (std::vector<std::size_t>{0}));
  // Points 0 and 1 are held already: only point 2's batch is copied.
  EXPECT_EQ(driver.absorb(record_part("w1", 3, 2, {0, 1, 2})),
            (std::vector<std::size_t>{2}));
  std::vector<std::size_t> records_per_point(3, 0);
  RowStore(options.store_path,
           RowStore::hash_identity(driver.columns(), 3, 2, {}))
      .scan([&](const RowStore::Record& r) { ++records_per_point[r.point]; });
  // Each point once: two per-run rows, its telemetry row, its summary.
  EXPECT_EQ(records_per_point, (std::vector<std::size_t>{4, 4, 4}));
  driver.finalize({"{\"kind\":\"registry\"}"});
  expect_same_artifacts("driver", "clean");
}

// A kill between the driver's flush and the part's deletion leaves the part
// behind; the next resume absorbs it again, and that must change nothing.
TEST_F(StoreAggregateTest, AbsorbingThePartAgainChangesNothing) {
  const auto part = record_part("w0", 3, 2, {0, 2});
  const auto options = telemetry_options("driver", 3, 2);
  {
    Aggregator driver{AggregatorOptions(options)};
    driver.load_existing();
    EXPECT_EQ(driver.absorb(part).size(), 2U);
  }
  const std::string store = slurp(options.store_path);
  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 2U);
  EXPECT_EQ(resumed.absorb(part), std::vector<std::size_t>{});
  EXPECT_EQ(slurp(options.store_path), store);
  EXPECT_EQ(resumed.pending(), (std::vector<std::size_t>{1}));
}

TEST_F(StoreAggregateTest, AbsorbRejectsAPartOfAnotherCampaign) {
  const auto part = record_part("w0", 3, 2, {0});
  // Same columns, one more grid point: a different identity hash.
  Aggregator driver{telemetry_options("driver", 4, 2)};
  driver.load_existing();
  EXPECT_THROW((void)driver.absorb(part), std::runtime_error);
  EXPECT_EQ(driver.done_count(), 0U);
}

TEST_F(StoreAggregateTest, AbsorbRefusesRowsTheDriverWouldDrop) {
  const auto part = record_part("w0", 2, 2, {0});
  auto options = store_options("driver", 2, 2, 0);  // no --metrics
  Aggregator driver{std::move(options)};
  driver.load_existing();
  EXPECT_THROW((void)driver.absorb(part), std::runtime_error);
}

// A resume without the flag that wrote some of the store's rows would
// finalize without them and delete the store: refused before the store is
// touched, while the full set of flags resumes as usual.
TEST_F(StoreAggregateTest, ResumeRefusesToDropPerRunOrTelemetryRows) {
  const auto options = telemetry_options("s", 2, 2);
  (void)record_part("s", 2, 2, {0});
  const std::string store = slurp(options.store_path);
  auto no_runs = options;
  no_runs.per_run_path.clear();
  auto no_metrics = options;
  no_metrics.metrics_path.clear();
  for (auto* partial : {&no_runs, &no_metrics}) {
    Aggregator resumed{AggregatorOptions(*partial)};
    EXPECT_THROW(resumed.load_existing(), std::runtime_error);
    EXPECT_EQ(slurp(options.store_path), store);
  }
  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 1U);
}

// A failed artifact write (ENOSPC: the temp file is a link to /dev/full)
// replaces no artifact, leaves no temp file or spill run, and keeps the
// store byte-unchanged; once the disk has room, resume + finalize produce
// an undisturbed run's bytes.
TEST_F(StoreAggregateTest, FailedExportWriteKeepsTheStoreAndReplacesNothing) {
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  record_clean("clean", 5, 2);
  for (const char* artifact : {"out.csv", "runs.csv", "m.jsonl"}) {
    SCOPED_TRACE(artifact);
    const fs::path sub = std::string("full_") + artifact;
    auto options = telemetry_options(sub, 5, 2);
    options.spill_budget_bytes = 512;  // spill runs exist mid-export
    {
      Aggregator agg{AggregatorOptions(options)};
      agg.load_existing();
      for (std::size_t p = 0; p < 5; ++p) {
        agg.record(p, 100 + p, {std::to_string(p)}, synth_metrics(p, 2),
                   telemetry_row(p));
      }
      const std::string store = slurp(options.store_path);
      const fs::path link = dir_ / sub / (std::string(artifact) + ".tmp");
      fs::create_symlink("/dev/full", link);
      EXPECT_THROW(agg.finalize({"{\"kind\":\"registry\"}"}),
                   std::runtime_error);
      EXPECT_EQ(slurp(options.store_path), store);
      fs::remove(link);
      std::vector<std::string> left;
      for (const auto& entry : fs::directory_iterator(dir_ / sub)) {
        left.push_back(entry.path().filename().string());
      }
      EXPECT_EQ(left, std::vector<std::string>{"out.csv.pasrows"});
    }
    Aggregator resumed{AggregatorOptions(options)};
    EXPECT_EQ(resumed.load_existing(), 5U);
    resumed.finalize({"{\"kind\":\"registry\"}"});
    expect_same_artifacts(sub, "clean");
  }
}

TEST_F(StoreAggregateTest, SeedsFreshStoreFromFinalizedCsv) {
  const auto options = store_options("s", 2, 2, 0);
  {
    Aggregator agg{AggregatorOptions(options)};
    agg.load_existing();
    agg.record(0, 100, {"0"}, synth_metrics(0, 2));
    agg.record(1, 101, {"1"}, synth_metrics(1, 2));
    agg.finalize();
  }
  const auto finalized = read_lines(options.csv_path);
  // Resume over the finalized artifact: no store on disk, so the CSV
  // readers seed a fresh one; everything is already done.
  Aggregator resumed{AggregatorOptions(options)};
  EXPECT_EQ(resumed.load_existing(), 2U);
  EXPECT_EQ(resumed.pending(), std::vector<std::size_t>{});
  resumed.finalize();
  EXPECT_EQ(read_lines(options.csv_path), finalized);
  EXPECT_FALSE(fs::exists(options.store_path));
}

TEST_F(StoreAggregateTest, StoreModeRequiresCsvPath) {
  AggregatorOptions options;
  options.axis_names = {"x"};
  options.total_points = 1;
  options.store_path = (dir_ / "orphan.pasrows").string();
  EXPECT_THROW(Aggregator{std::move(options)}, std::logic_error);
}

TEST_F(StoreAggregateTest, FinalizeRejectsIncompleteCampaignBeforeExport) {
  const auto options = store_options("s", 2, 2, 0);
  Aggregator agg{AggregatorOptions(options)};
  agg.load_existing();
  agg.record(0, 100, {"0"}, synth_metrics(0, 2));
  EXPECT_THROW(agg.finalize(), std::logic_error);
  // The failed finalize touched nothing: no CSV yet, store intact.
  EXPECT_FALSE(fs::exists(options.csv_path));
  EXPECT_TRUE(fs::exists(options.store_path));
}

TEST_F(AggregateTest, RenderJsonlRejectsMalformedInput) {
  // Each input is rejected before a byte of JSON is published: no temp
  // file and no (partial) output remain.
  const std::string header = "point,seed,policy,delay_mean_s\n";
  struct Case {
    const char* name;
    const char* csv;  // nullptr: the input file does not exist
  };
  const std::string short_row = header + "0,100,PAS,2.5\n1,101,NS\n";
  const std::string extra_cell = header + "0,100,PAS,2.5,7\n";
  const Case cases[] = {
      {"missing", nullptr},
      {"per_run", "point,rep,seed,policy,avg_delay_s\n0,0,100,PAS,2.5\n"},
      {"short_row", short_row.c_str()},
      {"extra_cell", extra_cell.c_str()},
  };
  for (const auto& c : cases) {
    const fs::path csv = dir_ / (std::string(c.name) + ".csv");
    const fs::path jsonl = dir_ / (std::string(c.name) + ".jsonl");
    if (c.csv != nullptr) std::ofstream(csv) << c.csv;
    EXPECT_THROW(render_jsonl(csv.string(), jsonl.string()),
                 std::runtime_error)
        << c.name;
    EXPECT_FALSE(fs::exists(jsonl.string() + ".tmp")) << c.name;
    EXPECT_FALSE(fs::exists(jsonl)) << c.name;
  }
}

TEST_F(AggregateTest, SketchQuantilesEngageBeyondExactThreshold) {
  // Above the exact-quantile retention bound (256 reps) record() reads the
  // delay percentiles from the streaming digest fed by reduce_runs; with
  // the digest absent (hand-built metrics, as here) it must fall back to
  // the exact sort so partial fixtures keep working.
  constexpr std::size_t kReps = 300;
  Aggregator agg(csv_, {"policy"}, 1);
  agg.load_existing();
  world::ReplicatedMetrics m = fake_metrics(1.0);
  m.runs.resize(kReps);
  std::vector<double> delays;
  for (std::size_t r = 0; r < kReps; ++r) {
    m.runs[r] = metrics::RunMetrics{};
    m.runs[r].avg_delay_s = static_cast<double>((r * 37) % kReps);
    delays.push_back(m.runs[r].avg_delay_s);
    m.delay_digest.add(m.runs[r].avg_delay_s);
  }
  agg.record(0, 100, {"PAS"}, m);
  agg.finalize();
  const auto lines = read_lines(csv_);
  ASSERT_EQ(lines.size(), 2U);
  const std::string want = "," + io::format_double(m.delay_digest.quantile(0.50)) +
                           "," + io::format_double(m.delay_digest.quantile(0.95)) +
                           "," + io::format_double(m.delay_digest.quantile(0.99)) + ",";
  EXPECT_NE(lines[1].find(want), std::string::npos);
  // And the sketch sits within rank tolerance of the exact quantiles.
  const auto exact = metrics::Percentiles::of(delays);
  EXPECT_NEAR(m.delay_digest.quantile(0.95), exact.p95,
              0.02 * static_cast<double>(kReps));
}

}  // namespace
}  // namespace pas::exp
