// The serving contract: attaching a CampaignFeed + live Server to a
// running campaign is observe-only — point and per-run CSVs are
// byte-identical to an unobserved run — and a should_stop interrupt
// leaves outputs resumable to the same final bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "exp/manifest.hpp"
#include "exp/runner.hpp"
#include "serve/feed.hpp"
#include "serve/server.hpp"
#include "world/paper_setup.hpp"

namespace pas::serve {
namespace {

namespace fs = std::filesystem;

exp::Manifest small_manifest() {
  exp::Manifest m;
  m.name = "serve-identity";
  m.base = world::paper_scenario();
  m.base.duration_s = 60.0;
  m.replications = 2;
  m.seed_base = 5;
  m.axes = {
      exp::Axis{.kind = exp::AxisKind::kPolicy, .labels = {"NS", "PAS"}},
      exp::Axis{.kind = exp::AxisKind::kMaxSleep, .numbers = {5.0, 15.0}},
  };
  return m;
}

class ServeIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("pas_serve_" + std::to_string(::getpid()) + "_" +
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

  fs::path dir_;
};

TEST_F(ServeIdentityTest, ObservedRunIsByteIdenticalToUnobserved) {
  const exp::Manifest m = small_manifest();

  exp::CampaignOptions plain;
  plain.jobs = 2;
  plain.out_csv = (dir_ / "plain.csv").string();
  plain.per_run_csv = (dir_ / "plain_runs.csv").string();
  const auto plain_report = exp::run_campaign(m, plain);
  EXPECT_EQ(plain_report.computed, 4U);

  // Observed run: feed attached, server live, one SSE client connected and
  // a poller hammering /api/status for the duration.
  CampaignFeed::Options feed_options;
  feed_options.store_points = true;
  CampaignFeed feed(feed_options);
  Server::Options server_options;
  server_options.port = 0;
  server_options.tick_ms = 10;
  Server server(feed, server_options);
  std::string error;
  ASSERT_TRUE(server.start(error)) << error;
  std::thread server_thread([&server] { server.run(); });
  std::atomic<bool> polling{true};
  std::thread poller([&feed, &polling] {
    while (polling.load()) {
      (void)feed.status();
      (void)feed.events_since(0, 64);
      (void)feed.metrics();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  exp::CampaignOptions observed;
  observed.jobs = 2;
  observed.out_csv = (dir_ / "observed.csv").string();
  observed.per_run_csv = (dir_ / "observed_runs.csv").string();
  observed.feed = &feed;
  const auto observed_report = exp::run_campaign(m, observed);
  EXPECT_EQ(observed_report.computed, 4U);

  polling.store(false);
  poller.join();
  server.stop();
  server_thread.join();

  EXPECT_EQ(slurp(dir_ / "plain.csv"), slurp(dir_ / "observed.csv"));
  EXPECT_EQ(slurp(dir_ / "plain_runs.csv"), slurp(dir_ / "observed_runs.csv"));

  // The feed retained a row per point and marked the campaign done.
  EXPECT_EQ(feed.points_since(0).size(), 4U);
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kDone);
}

TEST_F(ServeIdentityTest, InterruptLeavesResumableOutput) {
  const exp::Manifest m = small_manifest();

  exp::CampaignOptions reference;
  reference.jobs = 1;
  reference.out_csv = (dir_ / "reference.csv").string();
  (void)exp::run_campaign(m, reference);

  // Stop after the first completed point: the engine abandons in-flight
  // work, skips finalize, and reports the interrupt.
  CampaignFeed feed;
  std::atomic<int> done_points{0};
  exp::CampaignOptions interrupted;
  interrupted.jobs = 1;
  interrupted.out_csv = (dir_ / "partial.csv").string();
  interrupted.feed = &feed;
  interrupted.progress = [&done_points](const exp::PointSummary&, std::size_t,
                                        std::size_t) { ++done_points; };
  interrupted.should_stop = [&done_points] { return done_points.load() >= 1; };
  const auto report = exp::run_campaign(m, interrupted);
  EXPECT_TRUE(report.interrupted);
  EXPECT_LT(report.computed, 4U);
  EXPECT_EQ(feed.status().state, CampaignFeed::State::kInterrupted);

  // Resuming computes only the rest and converges to identical bytes.
  exp::CampaignOptions resume;
  resume.jobs = 1;
  resume.out_csv = (dir_ / "partial.csv").string();
  resume.resume = true;
  const auto resumed = exp::run_campaign(m, resume);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.computed + resumed.skipped, 4U);
  EXPECT_GT(resumed.skipped, 0U);
  EXPECT_EQ(slurp(dir_ / "reference.csv"), slurp(dir_ / "partial.csv"));
}

}  // namespace
}  // namespace pas::serve
