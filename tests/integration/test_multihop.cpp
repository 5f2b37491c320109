// Multihop collection: golden-seed pinning and the routing invariant sweep.
//
// The mac-off golden digests (test_golden_trace.cpp) prove the MAC's
// *absence* changes nothing; these tests pin the MAC-on event order the same
// way — the slotted LPL rendezvous, backoff and collision schedule at a
// fixed seed is part of the determinism contract (docs/ARCHITECTURE.md) —
// and sweep the structural invariant every delivered alert must satisfy:
// a connected, strictly-uphill path from its origin to the sink.
//
// If a deliberate semantic change to the MAC or collection layer invalidates
// the pinned values, re-record them (the failure message prints the new
// numbers) and say so in the commit message.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "net/collection.hpp"
#include "net/mac.hpp"
#include "metrics/report.hpp"
#include "net/network.hpp"
#include "world/paper_setup.hpp"
#include "world/scenario.hpp"

namespace pas {
namespace {

/// Same order-sensitive FNV-1a as test_golden_trace.cpp.
std::uint64_t trace_digest(const sim::TraceLog& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& e : log.events()) {
    mix(std::bit_cast<std::uint64_t>(e.time), 8);
    mix(static_cast<std::uint64_t>(e.category), 1);
    mix(e.node, 4);
  }
  return h;
}

/// FNV-1a over the bit patterns of every node's energy breakdown. Idle LPL
/// slot samples emit no trace event, so trace digests alone would not catch
/// a miscounted sample; its CCA charge lands here.
std::uint64_t energy_digest(const std::vector<metrics::NodeOutcome>& nodes) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& o : nodes) {
    mix(std::bit_cast<std::uint64_t>(o.energy_cca_j));
    mix(o.cca_count);
    mix(std::bit_cast<std::uint64_t>(o.energy_listen_j));
    mix(std::bit_cast<std::uint64_t>(o.energy_preamble_j));
    mix(std::bit_cast<std::uint64_t>(o.energy_tx_j));
    mix(std::bit_cast<std::uint64_t>(o.energy_sleep_j));
    mix(std::bit_cast<std::uint64_t>(o.energy_active_j));
  }
  return h;
}

world::ScenarioConfig multihop_scenario(core::Policy policy,
                                        std::uint64_t seed) {
  world::PaperSetupOverrides o;
  o.policy = policy;
  o.seed = seed;
  auto cfg = world::paper_scenario(o);
  cfg.mac.enabled = true;
  cfg.collection.sink_placement = net::SinkPlacement::kCorner;
  cfg.enable_trace = true;
  return cfg;
}

TEST(GoldenMultihop, PasMacSeed7) {
  const auto result =
      run_scenario(multihop_scenario(core::Policy::kPas, 7));
  EXPECT_EQ(result.trace.size(), 3406ULL);
  EXPECT_EQ(trace_digest(result.trace), 13528915297150654845ULL);
  // PAS suppresses redundant detections (covered nodes stay quiet), so only
  // a subset of the 30 nodes ever originates an alert.
  EXPECT_EQ(result.metrics.collection.originated, 10ULL);
  EXPECT_EQ(result.metrics.collection.delivered, 10ULL);
  EXPECT_EQ(result.metrics.collection.delivered_predicted, 0ULL);
  EXPECT_EQ(result.metrics.mac.rendezvous_tx, 1ULL);
  // Synchronized response bursts make broadcasts collide heavily — exactly
  // the contention cost the coin-flip model hides.
  EXPECT_EQ(result.metrics.mac.collisions, 373ULL);
  EXPECT_EQ(result.metrics.mac.lpl_samples, 27890ULL);
  EXPECT_EQ(result.metrics.mac.lpl_wakeups, 49ULL);
  EXPECT_EQ(result.metrics.mac.overhears, 23ULL);
  EXPECT_EQ(energy_digest(result.outcomes), 6697221839778559781ULL);
}

TEST(GoldenMultihop, DutyCycleMacSeed5) {
  const auto result =
      run_scenario(multihop_scenario(core::Policy::kDutyCycle, 5));
  EXPECT_EQ(result.trace.size(), 1235ULL);
  EXPECT_EQ(trace_digest(result.trace), 17812644017731850357ULL);
  EXPECT_EQ(result.metrics.collection.originated, 19ULL);
  // DutyCycle opts out of sleeping-backbone relay
  // (wants_collection_relay() == false), so alerts that hit a sleeping
  // next hop fall back to the predicted value instead of rendezvousing.
  EXPECT_EQ(result.metrics.collection.delivered, 17ULL);
  EXPECT_EQ(result.metrics.collection.delivered_predicted, 2ULL);
  EXPECT_EQ(result.metrics.mac.rendezvous_tx, 0ULL);
  EXPECT_EQ(result.metrics.mac.lpl_samples, 27318ULL);
  EXPECT_EQ(result.metrics.mac.lpl_wakeups, 0ULL);
  EXPECT_EQ(result.metrics.mac.overhears, 2ULL);
  EXPECT_EQ(energy_digest(result.outcomes), 11809379176478765757ULL);
}

TEST(GoldenMultihop, PasMacFailuresAndLossSeed13) {
  // Mid-run failures end sampling chains; Bernoulli loss forces retries.
  auto cfg = multihop_scenario(core::Policy::kPas, 13);
  cfg.failures = {.fraction = 0.3, .window_start_s = 20.0,
                  .window_end_s = 120.0};
  cfg.channel = world::ChannelKind::kBernoulli;
  cfg.channel_loss = 0.1;
  const auto result = run_scenario(cfg);
  EXPECT_EQ(result.trace.size(), 2443ULL);
  EXPECT_EQ(trace_digest(result.trace), 851822801872274708ULL);
  EXPECT_EQ(result.metrics.mac.retries, 6ULL);
  EXPECT_EQ(result.metrics.mac.lpl_samples, 24416ULL);
  EXPECT_EQ(result.metrics.mac.lpl_wakeups, 40ULL);
  EXPECT_EQ(result.metrics.mac.overhears, 26ULL);
  EXPECT_EQ(energy_digest(result.outcomes), 4652299405175089735ULL);
}

TEST(GoldenMultihop, MacRunsAreSeedDeterministic) {
  const auto cfg = multihop_scenario(core::Policy::kPas, 11);
  const auto a = run_scenario(cfg);
  const auto b = run_scenario(cfg);
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_EQ(trace_digest(a.trace), trace_digest(b.trace));
  EXPECT_EQ(a.metrics.mac, b.metrics.mac);
  EXPECT_EQ(a.metrics.collection, b.metrics.collection);
  EXPECT_DOUBLE_EQ(a.metrics.avg_energy_j, b.metrics.avg_energy_j);
}

/// Net-layer invariant harness: a 7×7 grid under randomized sleep schedules
/// and staggered originations. Returns the Collection for inspection.
struct InvariantWorld {
  sim::Simulator simulator;
  sim::SeedSequence seeds;
  std::vector<geom::Vec2> positions;
  net::Network network;
  net::SlottedLplMac mac;
  net::Collection collection;

  static std::vector<geom::Vec2> grid_49() {
    std::vector<geom::Vec2> p;
    for (int y = 0; y < 7; ++y) {
      for (int x = 0; x < 7; ++x) {
        p.push_back({x * 12.0, y * 12.0});
      }
    }
    return p;
  }

  explicit InvariantWorld(std::uint64_t seed)
      : seeds(seed),
        positions(grid_49()),
        network(simulator, positions, net::RadioConfig{.range_m = 14.0},
                std::make_shared<net::PerfectChannel>(), seeds),
        mac(simulator, network),
        collection(simulator, network, mac) {
    mac.reset(net::MacConfig{}, seeds);
    network.attach_mac(&mac);
    collection.reset(net::CollectionConfig{}, /*relay_through_sleeping=*/true,
                     {{0.0, 0.0}, {72.0, 72.0}}, nullptr);
  }

  /// Random sleep toggles + originations over [0, horizon), then run.
  void churn(double horizon) {
    sim::Pcg32 rng = seeds.stream(sim::SeedSequence::kUser);
    for (std::uint32_t i = 0; i < 49; ++i) {
      // Each node flips its radio a few times; roughly half start asleep.
      bool listening = rng.uniform01() < 0.5;
      network.set_listening(i, listening);
      for (int flip = 0; flip < 4; ++flip) {
        listening = !listening;
        simulator.schedule_at(rng.uniform(0.0, horizon),
                              [this, i, listening] {
                                if (!network.failed(i)) {
                                  network.set_listening(i, listening);
                                }
                              });
      }
    }
    for (int a = 0; a < 25; ++a) {
      const auto origin =
          static_cast<std::uint32_t>(rng.uniform_int(0, 48));
      simulator.schedule_at(rng.uniform(0.0, horizon * 0.8),
                            [this, origin] {
                              collection.originate(origin, simulator.now(),
                                                   simulator.now() + 5.0);
                            });
    }
    simulator.run_until(horizon);
  }

  [[nodiscard]] bool are_neighbors(std::uint32_t a, std::uint32_t b) const {
    const auto& n = network.neighbors_of(a);
    return std::find(n.begin(), n.end(), b) != n.end();
  }
};

TEST(MultihopInvariants, DeliveredPathsAreConnectedAndStrictlyUphill) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    InvariantWorld w(seed);
    w.churn(30.0);
    EXPECT_GT(w.collection.stats().delivered, 0ULL) << "seed " << seed;
    for (const auto& r : w.collection.records()) {
      ASSERT_FALSE(r.path.empty());
      EXPECT_EQ(r.path.front(), r.origin);
      if (!r.delivered) continue;
      EXPECT_EQ(r.path.back(), w.collection.sink());
      EXPECT_EQ(r.path.size(), static_cast<std::size_t>(r.hops) + 1);
      for (std::size_t h = 1; h < r.path.size(); ++h) {
        // Every hop crossed a real radio link...
        EXPECT_TRUE(w.are_neighbors(r.path[h - 1], r.path[h]))
            << "seed " << seed << " alert " << r.alert_id << " hop " << h;
        // ...and moved strictly closer to the sink (uphill rule = no loops).
        EXPECT_LT(w.collection.depth(r.path[h]),
                  w.collection.depth(r.path[h - 1]));
      }
      EXPECT_GE(r.completed_at, r.detected_at);
    }
  }
}

TEST(MultihopInvariants, AlertsAreConservedWithoutFailures) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    InvariantWorld w(seed);
    w.churn(30.0);
    const auto& s = w.collection.stats();
    EXPECT_EQ(s.originated, 25ULL) << "seed " << seed;
    // Without node failures every alert ends in exactly one bucket (or is
    // still traveling at the horizon).
    EXPECT_EQ(s.delivered + s.delivered_predicted + s.dropped_ttl +
                  s.dropped_queue + w.collection.in_flight(),
              s.originated)
        << "seed " << seed;
    EXPECT_EQ(w.collection.records().size(),
              s.delivered + s.delivered_predicted);
  }
}

TEST(MultihopInvariants, HarnessIsDeterministic) {
  InvariantWorld a(9), b(9);
  a.churn(30.0);
  b.churn(30.0);
  EXPECT_EQ(a.mac.stats(), b.mac.stats());
  EXPECT_EQ(a.collection.stats(), b.collection.stats());
  ASSERT_EQ(a.collection.records().size(), b.collection.records().size());
  for (std::size_t i = 0; i < a.collection.records().size(); ++i) {
    EXPECT_EQ(a.collection.records()[i].path, b.collection.records()[i].path);
  }
}

}  // namespace
}  // namespace pas
