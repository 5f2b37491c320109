// Integration tests pinning the paper's evaluation (§4.2/§4.3) to committed
// artifacts. Each examples/paper/<name>.json manifest is run once per test
// binary through the campaign engine; its point CSV must equal the pinned
// examples/paper/<name>.csv byte for byte, and the paper's shape claims are
// asserted on the pinned rows (30 replications per point):
//
//   Fig 4: NS delay ≡ 0; PAS and SAS delay grow with max sleep; PAS < SAS.
//   Fig 5: PAS delay decreases as the alert threshold grows.
//   Fig 6: NS energy highest; PAS ≥ SAS; sleepers fall with max sleep.
//   Fig 7: PAS energy increases with the alert threshold.
//   A2:    detection never breaks under channel loss or node failures.
//
// A change that moves these numbers re-pins a CSV by deleting it and
// running `pas-exp --manifest examples/paper/<name>.json --out
// examples/paper/<name>.csv`; the row diff states what moved.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "io/csv.hpp"
#include "world/paper_setup.hpp"
#include "world/sweep.hpp"

namespace pas::world {
namespace {

namespace fs = std::filesystem;

const char* const kPaperManifests[] = {"sleep_cap", "alert_threshold",
                                       "sleep_ramp", "robustness", "stimulus"};

fs::path paper_dir() {
  const std::string here = __FILE__;
  return fs::path(here.substr(0, here.find("tests/integration/"))) /
         "examples" / "paper";
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

using Row = std::map<std::string, std::string>;

struct PaperCsv {
  std::string pinned;
  std::string regenerated;
  std::vector<Row> rows;  // parsed from the pinned bytes
};

PaperCsv load(const std::string& name) {
  PaperCsv csv;
  const fs::path dir = paper_dir();
  csv.pinned = slurp(dir / (name + ".csv"));

  const fs::path tmp = fs::temp_directory_path() /
                       ("pas_paper_" + std::to_string(::getpid()) + "_" + name);
  fs::create_directories(tmp);
  exp::CampaignOptions options;
  options.jobs = 0;
  options.out_csv = (tmp / (name + ".csv")).string();
  (void)exp::run_campaign(exp::Manifest::load((dir / (name + ".json")).string()),
                          options);
  csv.regenerated = slurp(options.out_csv);
  fs::remove_all(tmp);

  std::istringstream in(csv.pinned);
  std::string line;
  std::getline(in, line);
  const auto header = split_line(line);
  while (std::getline(in, line)) {
    const auto cells = split_line(line);
    Row row;
    for (std::size_t i = 0; i < header.size() && i < cells.size(); ++i) {
      row[header[i]] = cells[i];
    }
    csv.rows.push_back(std::move(row));
  }
  return csv;
}

/// Each manifest runs at most once per test binary.
const PaperCsv& paper(const std::string& name) {
  static std::map<std::string, PaperCsv> cache;
  auto it = cache.find(name);
  if (it == cache.end()) it = cache.emplace(name, load(name)).first;
  return it->second;
}

/// The one pinned row of `name` whose axis cells equal `axes`.
const Row& row(const std::string& name,
               const std::vector<std::pair<std::string, std::string>>& axes) {
  const Row* found = nullptr;
  for (const auto& r : paper(name).rows) {
    bool match = true;
    for (const auto& [axis, value] : axes) match = match && r.at(axis) == value;
    if (!match) continue;
    if (found != nullptr) throw std::logic_error(name + ": ambiguous row");
    found = &r;
  }
  if (found == nullptr) throw std::logic_error(name + ": no such row");
  return *found;
}

double metric(const Row& r, const std::string& column) {
  return std::stod(r.at(column));
}

/// sleep_cap.json: `policy` at `max_sleep` (T_alert 20 s).
const Row& sleep_cap(const std::string& policy, const std::string& max_sleep) {
  return row("sleep_cap", {{"policy", policy}, {"max_sleep_s", max_sleep}});
}

/// alert_threshold.json: PAS at `alert_threshold` (max sleep 20 s).
const Row& alert(const std::string& alert_threshold) {
  return row("alert_threshold", {{"alert_threshold_s", alert_threshold}});
}

TEST(PaperArtifacts, RegeneratedCsvsMatchThePinnedFiles) {
  for (const std::string name : kPaperManifests) {
    const auto& csv = paper(name);
    ASSERT_FALSE(csv.pinned.empty()) << name << ".csv is missing";
    EXPECT_EQ(csv.regenerated, csv.pinned) << name << ".csv";
  }
}

TEST(PaperArtifacts, SleepCapPointIsThePaperScenario) {
  // The manifests spell paper_scenario() out in JSON; a replicated run of
  // paper_scenario() at the point's seed must reproduce the row exactly.
  const Row& r = sleep_cap("PAS", "20");
  PaperSetupOverrides o;
  o.policy = core::Policy::kPas;
  o.max_sleep_s = 20.0;
  o.alert_threshold_s = 20.0;
  o.seed = std::stoull(r.at("seed"));
  const auto agg = run_replicated(paper_scenario(o), 30);
  EXPECT_EQ(io::format_double(agg.delay_s.mean), r.at("delay_mean_s"));
  EXPECT_EQ(io::format_double(agg.energy_j.mean), r.at("energy_mean_j"));
}

TEST(Fig4Shape, NsHasZeroDelay) {
  EXPECT_NEAR(metric(sleep_cap("NS", "20"), "delay_mean_s"), 0.0, 1e-9);
}

TEST(Fig4Shape, PasDelayBelowSas) {
  const double pas = metric(sleep_cap("PAS", "20"), "delay_mean_s");
  const double sas = metric(sleep_cap("SAS", "20"), "delay_mean_s");
  EXPECT_GT(pas, 0.0);
  EXPECT_LT(pas, sas);
}

TEST(Fig4Shape, DelayGrowsWithMaxSleep) {
  EXPECT_LT(metric(sleep_cap("PAS", "5"), "delay_mean_s"),
            metric(sleep_cap("PAS", "35"), "delay_mean_s"));
  EXPECT_LT(metric(sleep_cap("SAS", "5"), "delay_mean_s"),
            metric(sleep_cap("SAS", "35"), "delay_mean_s"));
}

TEST(Fig5Shape, PasDelayFallsWithAlertThreshold) {
  EXPECT_LT(metric(alert("30"), "delay_mean_s"),
            metric(alert("10"), "delay_mean_s"));
}

TEST(Fig6Shape, NsEnergyHighestAndFlat) {
  const double ns5 = metric(sleep_cap("NS", "5"), "energy_mean_j");
  const double ns35 = metric(sleep_cap("NS", "35"), "energy_mean_j");
  const double pas = metric(sleep_cap("PAS", "20"), "energy_mean_j");
  const double sas = metric(sleep_cap("SAS", "20"), "energy_mean_j");
  // NS is flat in max sleep (it never sleeps)...
  EXPECT_NEAR(ns5, ns35, 0.01 * ns5);
  // ...and far above either sleeping policy. (The exact factor depends on
  // how much of the field ends up covered — covered nodes are active under
  // every policy — so assert a conservative 1.6×; measured ≈2× — see EXPERIMENTS.md.)
  EXPECT_GT(ns5, 1.6 * pas);
  EXPECT_GT(ns5, 1.6 * sas);
}

TEST(Fig6Shape, PasCostsAtLeastSas) {
  // PAS activates not only neighbors but also far-away sensors (§4.3); its
  // energy sits at or slightly above SAS.
  const double pas = metric(sleep_cap("PAS", "20"), "energy_mean_j");
  const double sas = metric(sleep_cap("SAS", "20"), "energy_mean_j");
  EXPECT_GE(pas, 0.95 * sas);
  // "the difference is trivial" — bounded above too.
  EXPECT_LT(pas, 3.0 * sas);
}

TEST(Fig6Shape, SleeperEnergyFallsWithMaxSleep) {
  EXPECT_GT(metric(sleep_cap("PAS", "5"), "energy_mean_j"),
            metric(sleep_cap("PAS", "35"), "energy_mean_j"));
}

TEST(Fig7Shape, PasEnergyGrowsWithAlertThreshold) {
  EXPECT_GT(metric(alert("30"), "energy_mean_j"),
            metric(alert("10"), "energy_mean_j"));
}

TEST(RobustnessShape, DetectionNeverBreaks) {
  // Sensing is radio-independent: loss and failures thin out the alert belt
  // but never leave a reached, live node undetected.
  const auto& rows = paper("robustness").rows;
  EXPECT_EQ(rows.size(), 16U);
  for (const auto& r : rows) {
    EXPECT_EQ(metric(r, "missed_mean"), 0.0)
        << "channel_loss " << r.at("channel_loss") << ", failure_fraction "
        << r.at("failure_fraction");
  }
}

TEST(AlertMechanism, PasAlertsMoreNodesThanSas) {
  PaperSetupOverrides o;
  o.policy = core::Policy::kPas;
  const auto pas = run_scenario(paper_scenario(o));
  o.policy = core::Policy::kSas;
  const auto sas = run_scenario(paper_scenario(o));
  EXPECT_GE(pas.metrics.protocol.alert_entries,
            sas.metrics.protocol.alert_entries);
}

}  // namespace
}  // namespace pas::world
