// Campaign telemetry: the row schema, telemetry rows riding the Aggregator's
// row store (resume, import, torn batches), part-file merging, and the hard
// invariant that --metrics never changes the CSV.
#include "exp/telemetry.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <vector>

#include "exp/aggregate.hpp"
#include "exp/row_store.hpp"
#include "exp/runner.hpp"
#include "world/paper_setup.hpp"

namespace pas::exp {
namespace {

namespace fs = std::filesystem;

Manifest small_manifest() {
  Manifest m;
  m.name = "telemetry-test";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;
  m.replications = 2;
  m.seed_base = 3;
  m.axes = {
      Axis{.kind = AxisKind::kPolicy, .labels = {"NS", "SAS", "PAS"}},
      Axis{.kind = AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_telemetry_" + std::to_string(::getpid()) + "_" +
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

  static std::vector<std::string> lines_of(const fs::path& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  static std::vector<io::Json> parse_lines(const fs::path& path) {
    std::ifstream in(path);
    std::vector<io::Json> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) rows.push_back(io::Json::parse(line));
    }
    return rows;
  }

  /// A fabricated two-run ReplicatedMetrics with recognizable counters.
  static world::ReplicatedMetrics fake_metrics(std::uint64_t base) {
    world::ReplicatedMetrics m;
    m.runs.resize(2);
    for (auto& run : m.runs) {
      run.kernel.events_dispatched = base;
      run.kernel.max_pending = base + 1;
      run.protocol.wakeups = base * 2;
      run.protocol.sleep_s.record(2.0);
    }
    return m;
  }

  /// Aggregator options for small_manifest() with a --metrics file.
  AggregatorOptions telemetry_options(const std::vector<GridPoint>& points,
                                      const Manifest& m) const {
    AggregatorOptions options;
    options.csv_path = (dir_ / "out.csv").string();
    options.metrics_path = (dir_ / "metrics.jsonl").string();
    options.axis_names = axis_columns(m);
    options.total_points = points.size();
    options.replications = m.replications;
    options.expected_identity = grid_identity(points);
    return options;
  }

  /// Records `point` with fake_metrics(base) and its telemetry row.
  static void record_point(Aggregator& aggregator, const Manifest& m,
                           const GridPoint& point, std::uint64_t base) {
    const auto metrics = fake_metrics(base);
    aggregator.record(
        point.index, point.seed, point.values, metrics,
        telemetry_point_row(point, axis_columns(m), metrics).dump());
  }

  fs::path dir_;
};

TEST_F(TelemetryTest, PointRowSchema) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const auto row = telemetry_point_row(points[4], axis_columns(m),
                                       fake_metrics(10));
  EXPECT_EQ(row.at("kind").as_string(), "point");
  EXPECT_DOUBLE_EQ(row.at("point").as_double(), 4.0);
  EXPECT_EQ(row.at("seed").as_string(), std::to_string(points[4].seed));
  EXPECT_DOUBLE_EQ(row.at("replications").as_double(), 2.0);
  EXPECT_EQ(row.at("policy").as_string(), "PAS");

  // Axes echo the grid coordinates under the CSV column names.
  const auto& axes = row.at("axes").as_object();
  EXPECT_EQ(axes.size(), 2U);

  // Kernel and protocol sections sum the replications.
  EXPECT_DOUBLE_EQ(row.at("kernel").at("events_dispatched").as_double(), 20.0);
  EXPECT_DOUBLE_EQ(row.at("kernel").at("max_pending").as_double(), 11.0);
  EXPECT_DOUBLE_EQ(row.at("protocol").at("wakeups").as_double(), 40.0);
  EXPECT_DOUBLE_EQ(row.at("protocol").at("sleep_s").at("total").as_double(),
                   2.0);
}

TEST_F(TelemetryTest, StoreKeepsFirstRowAndResumeAddsOnlyNewRows) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const fs::path metrics = dir_ / "metrics.jsonl";
  {
    Aggregator aggregator(telemetry_options(points, m));
    EXPECT_EQ(aggregator.load_existing(), 0U);
    record_point(aggregator, m, points[3], 5);
    record_point(aggregator, m, points[1], 7);
    record_point(aggregator, m, points[1], 9);  // duplicate: first wins
    EXPECT_EQ(aggregator.done_count(), 2U);
    // No finalize: the row store is the crash artifact.
  }
  EXPECT_FALSE(fs::exists(metrics));
  {
    // Resume keeps the stored rows and only adds the new ones.
    Aggregator aggregator(telemetry_options(points, m));
    EXPECT_EQ(aggregator.load_existing(), 2U);
    record_point(aggregator, m, points[1], 11);  // already on disk: ignored
    for (const std::size_t p : {0, 2, 4, 5}) {
      record_point(aggregator, m, points[p], p + 1);
    }
    aggregator.finalize({R"({"kind":"registry"})"});
  }

  const auto rows = parse_lines(metrics);
  ASSERT_EQ(rows.size(), 7U);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(rows[i].at("point").as_double(), static_cast<double>(i));
  }
  EXPECT_EQ(rows[6].at("kind").as_string(), "registry");
  // Point 1 kept the first-recorded payload.
  EXPECT_DOUBLE_EQ(rows[1].at("protocol").at("wakeups").as_double(), 28.0);
  EXPECT_DOUBLE_EQ(rows[3].at("protocol").at("wakeups").as_double(), 20.0);
}

TEST_F(TelemetryTest, ResumeImportDropsGarbageAndForeignRows) {
  const Manifest m = small_manifest();
  const auto points = expand_grid(m);
  const fs::path metrics = dir_ / "metrics.jsonl";
  auto options = telemetry_options(points, m);
  options.owned_points = {0, 2, 4};
  {
    Aggregator aggregator(options);
    aggregator.load_existing();
    for (const std::size_t p : *options.owned_points) {
      record_point(aggregator, m, points[p], p + 1);
    }
    aggregator.finalize();
  }
  const std::string good = R"({"kind":"point","point":2})";
  {
    std::ofstream out(metrics, std::ios::trunc);
    out << "not json at all\n";
    out << "{\"kind\":\"registry\",\"scope\":\"campaign\"}\n";  // stale trailer
    out << "{\"kind\":\"point\",\"point\":999}\n";  // outside the grid
    out << "{\"kind\":\"point\",\"point\":3}\n";    // another shard's
    out << good << '\n';                               // the one good row
    out << "{\"kind\":\"point\",\"point\":2,\"x\":1}\n";  // duplicate
  }
  // Resuming the finished campaign seeds the store from its CSV and
  // imports what the telemetry file still has for owned points.
  Aggregator aggregator(options);
  EXPECT_EQ(aggregator.load_existing(), 3U);
  aggregator.finalize();
  EXPECT_EQ(lines_of(metrics), std::vector<std::string>{good});
}

TEST_F(TelemetryTest, MetricsOnAndOffProduceIdenticalCsv) {
  const Manifest m = small_manifest();

  CampaignOptions off;
  off.jobs = 1;
  off.out_csv = (dir_ / "off.csv").string();
  run_campaign(m, off);

  CampaignOptions on;
  on.jobs = 1;
  on.out_csv = (dir_ / "on.csv").string();
  on.metrics_path = (dir_ / "on.jsonl").string();
  run_campaign(m, on);

  const std::string a = slurp(dir_ / "off.csv");
  const std::string b = slurp(dir_ / "on.csv");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(TelemetryTest, CampaignTelemetryIsScheduleIndependent) {
  const Manifest m = small_manifest();

  CampaignOptions serial;
  serial.jobs = 1;
  serial.out_csv = (dir_ / "serial.csv").string();
  serial.metrics_path = (dir_ / "serial.jsonl").string();
  run_campaign(m, serial);

  CampaignOptions parallel;
  parallel.jobs = 4;
  parallel.out_csv = (dir_ / "parallel.csv").string();
  parallel.metrics_path = (dir_ / "parallel.jsonl").string();
  run_campaign(m, parallel);

  EXPECT_EQ(slurp(dir_ / "serial.csv"), slurp(dir_ / "parallel.csv"));
  // Point rows and the campaign registry trailer are pure functions of the
  // grid, so the whole telemetry file is byte-identical across schedules.
  const std::string a = slurp(dir_ / "serial.jsonl");
  const std::string b = slurp(dir_ / "parallel.jsonl");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // Every point row carries all three layers' sections.
  const auto rows = parse_lines(dir_ / "serial.jsonl");
  ASSERT_EQ(rows.size(), 7U);  // 6 points + registry trailer
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& row = rows[i];
    EXPECT_EQ(row.at("kind").as_string(), "point");
    EXPECT_GT(row.at("kernel").at("events_dispatched").as_double(), 0.0);
    if (row.at("policy").as_string() != "NS") {
      // A never-sleeping node never wakes; sleeping policies must.
      EXPECT_GT(row.at("protocol").at("wakeups").as_double(), 0.0);
    }
  }
  const auto& trailer = rows[6];
  EXPECT_EQ(trailer.at("kind").as_string(), "registry");
  EXPECT_EQ(trailer.at("scope").as_string(), "campaign");
#if !defined(PAS_OBS_OFF)
  const auto& instruments = trailer.at("instruments");
  EXPECT_DOUBLE_EQ(instruments.at("campaign.points_completed").as_double(),
                   6.0);
  EXPECT_GT(instruments.at("kernel.events_dispatched").as_double(), 0.0);
  EXPECT_GT(instruments.at("policy.PAS.wakeups").as_double(), 0.0);
#endif
}

TEST_F(TelemetryTest, ResumeCompletesTheTelemetryFile) {
  const Manifest m = small_manifest();
  const std::string out = (dir_ / "campaign.csv").string();
  const std::string metrics = (dir_ / "metrics.jsonl").string();

  CampaignOptions options;
  options.jobs = 1;
  options.out_csv = out;
  options.metrics_path = metrics;
  run_campaign(m, options);
  const std::string complete_csv = slurp(out);
  const std::string complete_metrics = slurp(metrics);

  // Drop the even points from both files, as if the campaign had been
  // killed mid-flight with both outputs in the same partial state. CSV data
  // line i and telemetry line i both hold point i (the trailer drops too,
  // which is exactly what a kill before finalize leaves behind).
  const auto keep_odd_points = [](const std::string& text,
                                  const std::string& path, int header_lines) {
    std::istringstream in(text);
    std::ofstream truncated(path, std::ios::trunc);
    std::string line;
    int n = 0;
    while (std::getline(in, line)) {
      if (n < header_lines || (n - header_lines) % 2 == 1) {
        truncated << line << '\n';
      }
      ++n;
    }
  };
  keep_odd_points(complete_csv, out, 1);
  keep_odd_points(complete_metrics, metrics, 0);

  options.resume = true;
  run_campaign(m, options);
  EXPECT_EQ(slurp(out), complete_csv);
  // The finalized telemetry file has every point row again. The registry
  // trailer only covers the points computed by the *resuming* invocation,
  // so compare point rows, not trailer bytes.
  const auto rows = parse_lines(metrics);
  std::size_t point_rows = 0;
  for (const auto& row : rows) {
    if (row.at("kind").as_string() == "point") ++point_rows;
  }
  EXPECT_EQ(point_rows, 6U);
}

// A point's CSV row and telemetry row share one row-store batch whose
// summary record commits it: a kill anywhere inside the last batch loses
// both rows, and resume recomputes both.
TEST_F(TelemetryTest, TornBatchRecomputesCsvAndTelemetryRowsTogether) {
  const Manifest m = small_manifest();

  CampaignOptions reference;
  reference.jobs = 1;
  reference.out_csv = (dir_ / "ref.csv").string();
  reference.per_run_csv = (dir_ / "ref_runs.csv").string();
  reference.metrics_path = (dir_ / "ref.jsonl").string();
  run_campaign(m, reference);
  const auto reference_rows = lines_of(reference.metrics_path);
  ASSERT_EQ(reference_rows.size(), 7U);  // 6 points + registry trailer

  // Store offsets inside the last point's batch, which is per-run rows,
  // then the telemetry row (its JSON text begins with the sorted "axes"
  // key), then the summary: cut into the telemetry record, or into the
  // summary with the telemetry record whole.
  const std::vector<std::pair<const char*, std::function<std::size_t(
                                                const std::string&)>>>
      cuts = {
          {"telemetry", [](const std::string& bytes) {
             return bytes.rfind("{\"axes\"") + 10;
           }},
          {"summary",
           [](const std::string& bytes) { return bytes.size() - 5; }},
      };
  for (const auto& [name, cut_at] : cuts) {
    SCOPED_TRACE(name);
    const fs::path sub = dir_ / name;
    fs::create_directories(sub);
    CampaignOptions options;
    options.jobs = 1;
    options.out_csv = (sub / "out.csv").string();
    options.per_run_csv = (sub / "runs.csv").string();
    options.metrics_path = (sub / "metrics.jsonl").string();
    std::size_t done = 0;
    options.progress = [&done](const PointSummary&, std::size_t d,
                               std::size_t) { done = d; };
    options.should_stop = [&done] { return done >= 3; };
    ASSERT_TRUE(run_campaign(m, options).interrupted);

    const std::string store = RowStore::path_for(options.out_csv);
    const std::string bytes = slurp(store);
    const std::size_t cut = cut_at(bytes);
    ASSERT_LT(cut, bytes.size());
    fs::resize_file(store, cut);

    options.resume = true;
    options.progress = nullptr;
    options.should_stop = nullptr;
    const auto report = run_campaign(m, options);
    EXPECT_EQ(report.skipped, 2U);
    EXPECT_EQ(report.computed, 4U);
    EXPECT_EQ(slurp(options.out_csv), slurp(reference.out_csv));
    EXPECT_EQ(slurp(options.per_run_csv), slurp(reference.per_run_csv));
    // Point rows byte-equal an uninterrupted run's; the registry trailer
    // covers only the points this invocation computed.
    auto rows = lines_of(options.metrics_path);
    ASSERT_EQ(rows.size(), reference_rows.size());
    EXPECT_EQ(io::Json::parse(rows.back()).string_or("kind", ""), "registry");
    rows.back() = reference_rows.back();
    EXPECT_EQ(rows, reference_rows);
  }
}

}  // namespace
}  // namespace pas::exp
