#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pas::net {
namespace {

struct NetworkFixture : ::testing::Test {
  // Chain topology: 0 -- 1 -- 2, spacing 8 m, range 10 m (0 and 2 are 16 m
  // apart, out of range).
  sim::Simulator simulator;
  sim::SeedSequence seeds{42};
  std::vector<geom::Vec2> positions{{0.0, 0.0}, {8.0, 0.0}, {16.0, 0.0}};
  RadioConfig config{};
  Network network{simulator, positions, config,
                  std::make_shared<PerfectChannel>(), seeds};
};

TEST_F(NetworkFixture, NeighborListsFromRange) {
  EXPECT_EQ(network.neighbors_of(0), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(network.neighbors_of(1), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(network.neighbors_of(2), (std::vector<std::uint32_t>{1}));
  EXPECT_NEAR(network.mean_degree(), 4.0 / 3.0, 1e-12);
}

TEST_F(NetworkFixture, BroadcastReachesOnlyInRangeNeighbors) {
  std::vector<std::uint32_t> received;
  for (std::uint32_t i = 0; i < 3; ++i) {
    network.set_rx_handler(i, [&received, i](const Message&) {
      received.push_back(i);
    });
  }
  Message m;
  m.type = MessageType::kRequest;
  network.broadcast(0, m);
  simulator.run();
  EXPECT_EQ(received, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(network.stats().deliveries, 1U);
}

TEST_F(NetworkFixture, DeliveryIsDelayedByOnAirTime) {
  sim::Time delivered_at = -1.0;
  network.set_rx_handler(1, [&](const Message&) {
    delivered_at = simulator.now();
  });
  Message m;
  m.type = MessageType::kResponse;
  network.broadcast(0, m);
  simulator.run();
  const double on_air = static_cast<double>(m.size_bits()) / 250e3;
  EXPECT_GE(delivered_at, on_air);
  EXPECT_LE(delivered_at, on_air + config.max_jitter_s + 1e-3);
}

TEST_F(NetworkFixture, MessageStampedWithSenderAndTime) {
  Message got;
  network.set_rx_handler(1, [&](const Message& m) { got = m; });
  simulator.schedule_at(5.0, [&] {
    Message m;
    m.type = MessageType::kRequest;
    network.broadcast(0, m);
  });
  simulator.run();
  EXPECT_EQ(got.sender, 0U);
  EXPECT_DOUBLE_EQ(got.sent_at, 5.0);
}

TEST_F(NetworkFixture, SleepingReceiverMissesPacket) {
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_listening(1, false);
  Message m;
  network.broadcast(0, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_not_listening, 1U);
}

TEST_F(NetworkFixture, ListeningCheckedAtDeliveryTime) {
  // Receiver wakes between send and delivery: packet arrives.
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_listening(1, false);
  Message m;
  network.broadcast(0, m);
  simulator.schedule_at(1e-7, [&] { network.set_listening(1, true); });
  simulator.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkFixture, FailedNodesNeitherSendNorReceive) {
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  network.set_failed(0);
  Message m;
  network.broadcast(0, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().blocked_sender_failed, 1U);

  network.set_failed(1);
  network.broadcast(2, m);
  simulator.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(network.stats().dropped_failed, 1U);
}

TEST_F(NetworkFixture, EnergyHooksFire) {
  std::vector<std::pair<std::uint32_t, std::size_t>> tx, rx;
  network.set_tx_hook([&](std::uint32_t n, std::size_t b) { tx.push_back({n, b}); });
  network.set_rx_hook([&](std::uint32_t n, std::size_t b) { rx.push_back({n, b}); });
  Message m;
  m.type = MessageType::kResponse;
  network.broadcast(1, m);
  simulator.run();
  ASSERT_EQ(tx.size(), 1U);
  EXPECT_EQ(tx[0].first, 1U);
  EXPECT_EQ(tx[0].second, m.size_bits());
  ASSERT_EQ(rx.size(), 2U);  // nodes 0 and 2
}

// Four mutually in-range nodes whose grid-cell order differs from id order
// (nodes 1-3 share the first 10 m cell, node 0 sits in the next one), with
// zero MAC jitter so same-instant broadcasts deliver at the same time.
struct FanOutFixture : ::testing::Test {
  struct Rx {
    std::uint32_t to;
    std::uint32_t sender;
    double value;
    bool operator==(const Rx&) const = default;
  };

  static RadioConfig no_jitter() {
    RadioConfig c;
    c.max_jitter_s = 0.0;
    return c;
  }

  static Message response(double value) {
    Message m;
    m.type = MessageType::kResponse;
    m.payload.predicted_arrival = value;
    return m;
  }

  void record_all() {
    for (std::uint32_t i = 0; i < network.size(); ++i) {
      network.set_rx_handler(i, [this, i](const Message& m) {
        log.push_back({i, m.sender, m.payload.predicted_arrival});
      });
    }
  }

  sim::Simulator simulator;
  sim::SeedSequence seeds{7};
  Network network{simulator,
                  {{15.0, 0.0}, {5.0, 0.0}, {10.0, 0.0}, {8.0, 0.0}},
                  no_jitter(), std::make_shared<PerfectChannel>(), seeds};
  std::vector<Rx> log;
};

TEST_F(FanOutFixture, NeighborListsAscendingWithoutSelf) {
  EXPECT_EQ(network.neighbors_of(0), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(network.neighbors_of(1), (std::vector<std::uint32_t>{0, 2, 3}));
  EXPECT_EQ(network.neighbors_of(2), (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(network.neighbors_of(3), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST_F(FanOutFixture, SameInstantBroadcastsDeliverInBroadcastThenIdOrder) {
  record_all();
  network.broadcast(2, response(1.0));
  network.broadcast(0, response(2.0));
  simulator.run();
  const std::vector<Rx> expected{{0, 2, 1.0}, {1, 2, 1.0}, {3, 2, 1.0},
                                 {1, 0, 2.0}, {2, 0, 2.0}, {3, 0, 2.0}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(network.stats().deliveries, 6U);
}

TEST_F(FanOutFixture, BroadcastFromHandlerLeavesLaterReceiversIntact) {
  record_all();
  // Node 0 hears node 2 first and answers with enough broadcasts to force
  // the in-flight slab to grow (and move) mid-fan-out.
  constexpr int kBurst = 64;
  bool answered = false;
  network.set_rx_handler(0, [&](const Message& m) {
    log.push_back({0, m.sender, m.payload.predicted_arrival});
    if (answered) return;
    answered = true;
    for (int k = 0; k < kBurst; ++k) network.broadcast(0, response(100.0 + k));
  });
  network.broadcast(2, response(1.0));
  ASSERT_TRUE(simulator.step());  // the whole fan-out of node 2's frame
  const std::vector<Rx> first{{0, 2, 1.0}, {1, 2, 1.0}, {3, 2, 1.0}};
  EXPECT_EQ(log, first);
  simulator.run();
  ASSERT_EQ(log.size(), 3U + 3U * kBurst);
  for (int k = 0; k < kBurst; ++k) {
    for (std::uint32_t r = 0; r < 3; ++r) {
      const Rx& rx = log[3 + 3 * static_cast<std::size_t>(k) + r];
      EXPECT_EQ(rx.sender, 0U);
      EXPECT_EQ(rx.to, r + 1);
      EXPECT_DOUBLE_EQ(rx.value, 100.0 + k);
    }
  }
}

TEST_F(FanOutFixture, ReceiverStateChangesMidFanOutApplyToLaterNeighbors) {
  record_all();
  // Node 0 is first in node 2's fan-out; its handler puts node 1 to sleep
  // and fails node 3 before their turn comes.
  network.set_rx_handler(0, [&](const Message& m) {
    log.push_back({0, m.sender, m.payload.predicted_arrival});
    network.set_listening(1, false);
    network.set_failed(3);
  });
  network.broadcast(2, response(1.0));
  simulator.run();
  EXPECT_EQ(log, (std::vector<Rx>{{0, 2, 1.0}}));
  EXPECT_EQ(network.stats().deliveries, 1U);
  EXPECT_EQ(network.stats().dropped_not_listening, 1U);
  EXPECT_EQ(network.stats().dropped_failed, 1U);
}

TEST_F(FanOutFixture, OneKernelEventPerBroadcast) {
  network.broadcast(0, response(1.0));
  network.broadcast(1, response(2.0));
  EXPECT_EQ(simulator.pending_events(), 2U);
  simulator.run();
  EXPECT_EQ(simulator.executed_events(), 2U);
  EXPECT_EQ(network.stats().deliveries, 6U);
}

TEST(Network, LossyChannelDropsStatistically) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(9);
  const std::vector<geom::Vec2> positions{{0.0, 0.0}, {5.0, 0.0}};
  Network network(simulator, positions, RadioConfig{},
                  std::make_shared<BernoulliLossChannel>(0.5), seeds);
  int received = 0;
  network.set_rx_handler(1, [&](const Message&) { ++received; });
  for (int i = 0; i < 1000; ++i) {
    Message m;
    network.broadcast(0, m);
  }
  simulator.run();
  EXPECT_GT(received, 400);
  EXPECT_LT(received, 600);
  EXPECT_EQ(network.stats().dropped_channel,
            1000U - static_cast<unsigned>(received));
}

TEST(Network, ValidationErrors) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(1);
  EXPECT_THROW(Network(simulator, {}, RadioConfig{},
                       std::make_shared<PerfectChannel>(), seeds),
               std::invalid_argument);
  RadioConfig bad;
  bad.range_m = 0.0;
  EXPECT_THROW(Network(simulator, {{0.0, 0.0}}, bad,
                       std::make_shared<PerfectChannel>(), seeds),
               std::invalid_argument);
  EXPECT_THROW(Network(simulator, {{0.0, 0.0}}, RadioConfig{}, nullptr, seeds),
               std::invalid_argument);
}

TEST(Network, BroadcastFromUnknownSenderThrows) {
  sim::Simulator simulator;
  const sim::SeedSequence seeds(1);
  Network network(simulator, {{0.0, 0.0}}, RadioConfig{},
                  std::make_shared<PerfectChannel>(), seeds);
  Message m;
  EXPECT_THROW(network.broadcast(5, m), std::out_of_range);
}

}  // namespace
}  // namespace pas::net
