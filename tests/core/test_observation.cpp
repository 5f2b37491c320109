#include "core/observation.hpp"

#include <gtest/gtest.h>

#include <map>

#include "sim/rng.hpp"

namespace pas::core {
namespace {

PeerObservation obs(std::uint32_t id, sim::Time received) {
  PeerObservation o;
  o.id = id;
  o.received_at = received;
  return o;
}

TEST(PeerTable, UpdateInsertsAndReplaces) {
  PeerTable t;
  t.update(obs(1, 1.0));
  EXPECT_EQ(t.size(), 1U);
  t.update(obs(1, 2.0));
  EXPECT_EQ(t.size(), 1U);
  ASSERT_TRUE(t.find(1).has_value());
  EXPECT_DOUBLE_EQ(t.find(1)->received_at, 2.0);
}

TEST(PeerTable, FindMissingReturnsNullopt) {
  PeerTable t;
  EXPECT_FALSE(t.find(7).has_value());
}

TEST(PeerTable, SnapshotOrderedById) {
  PeerTable t;
  t.update(obs(9, 1.0));
  t.update(obs(2, 1.0));
  t.update(obs(5, 1.0));
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3U);
  EXPECT_EQ(snap[0].id, 2U);
  EXPECT_EQ(snap[1].id, 5U);
  EXPECT_EQ(snap[2].id, 9U);
}

TEST(PeerTable, ExpireDropsOldEntries) {
  PeerTable t;
  t.update(obs(1, 1.0));
  t.update(obs(2, 5.0));
  t.update(obs(3, 9.0));
  t.expire_older_than(5.0);
  EXPECT_EQ(t.size(), 2U);
  EXPECT_FALSE(t.find(1).has_value());
  EXPECT_TRUE(t.find(2).has_value());  // exactly-at-cutoff survives
  EXPECT_TRUE(t.find(3).has_value());
}

TEST(PeerTable, ClearEmpties) {
  PeerTable t;
  t.update(obs(1, 1.0));
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(PeerTable, EntriesMatchStdMapUnderRandomOperations) {
  // Differential check of the flat sorted array against an ordered map:
  // same membership, same contents, and entries() in ascending id order.
  sim::Pcg32 rng(2024, 7);
  PeerTable t;
  std::map<std::uint32_t, PeerObservation> ref;
  sim::Time now = 0.0;
  for (int step = 0; step < 5000; ++step) {
    now += rng.uniform(0.0, 0.5);
    const double op = rng.uniform(0.0, 1.0);
    if (op < 0.6) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, 39));
      PeerObservation o = obs(id, now);
      o.predicted_arrival = rng.uniform(0.0, 100.0);
      t.update(o);
      ref[o.id] = o;
    } else if (op < 0.7) {
      const sim::Time cutoff = now - rng.uniform(0.0, 10.0);
      t.expire_older_than(cutoff);
      std::erase_if(ref, [cutoff](const auto& kv) {
        return kv.second.received_at < cutoff;
      });
    } else if (op < 0.71) {
      t.clear();
      ref.clear();
    } else {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, 39));
      const auto found = t.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(found.has_value(), it != ref.end()) << "step " << step;
      if (found) {
        EXPECT_DOUBLE_EQ(found->received_at, it->second.received_at);
        EXPECT_DOUBLE_EQ(found->predicted_arrival,
                         it->second.predicted_arrival);
      }
    }
    ASSERT_EQ(t.size(), ref.size());
    const auto entries = t.entries();
    auto it = ref.begin();
    for (const PeerObservation& e : entries) {
      ASSERT_EQ(e.id, it->first) << "step " << step;
      EXPECT_DOUBLE_EQ(e.received_at, it->second.received_at);
      EXPECT_DOUBLE_EQ(e.predicted_arrival, it->second.predicted_arrival);
      ++it;
    }
  }
}

TEST(StateCodec, RoundTrips) {
  EXPECT_EQ(decode_state(encode(NodeState::kSafe)), NodeState::kSafe);
  EXPECT_EQ(decode_state(encode(NodeState::kAlert)), NodeState::kAlert);
  EXPECT_EQ(decode_state(encode(NodeState::kCovered)), NodeState::kCovered);
}

TEST(StateCodec, GarbageDecodesToSafe) {
  EXPECT_EQ(decode_state(200), NodeState::kSafe);
}

TEST(StateNames, Distinct) {
  EXPECT_STREQ(to_string(NodeState::kSafe), "safe");
  EXPECT_STREQ(to_string(NodeState::kAlert), "alert");
  EXPECT_STREQ(to_string(NodeState::kCovered), "covered");
}

}  // namespace
}  // namespace pas::core
