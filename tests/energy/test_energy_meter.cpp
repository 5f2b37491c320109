#include "energy/energy_meter.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pas::energy {
namespace {

constexpr PowerProfile kTelos = PowerProfile::telos();

TEST(EnergyMeter, AccruesActivePower) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.active_j(), 41e-3 * 10.0);
  EXPECT_DOUBLE_EQ(m.sleep_j(), 0.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 10.0);
}

TEST(EnergyMeter, AccruesSleepPower) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kSleep);
  m.finalize(100.0);
  EXPECT_DOUBLE_EQ(m.sleep_j(), 15e-6 * 100.0);
  EXPECT_DOUBLE_EQ(m.sleep_s(), 100.0);
}

TEST(EnergyMeter, ModeSwitchSplitsIntervalsAndBooksTransition) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.set_mode(PowerMode::kSleep, 4.0);
  m.set_mode(PowerMode::kActive, 9.0);
  m.finalize(10.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 5.0);  // [0,4) + [9,10)
  EXPECT_DOUBLE_EQ(m.sleep_s(), 5.0);   // [4,9)
  EXPECT_EQ(m.transitions(), 2U);
  EXPECT_DOUBLE_EQ(m.transition_j(), 2.0 * kTelos.transition_energy());
}

TEST(EnergyMeter, RedundantModeSetIsFree) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.set_mode(PowerMode::kActive, 5.0);
  EXPECT_EQ(m.transitions(), 0U);
  EXPECT_DOUBLE_EQ(m.transition_j(), 0.0);
}

TEST(EnergyMeter, TxEnergyAndCount) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.add_tx(1000);
  m.add_tx(2000);
  EXPECT_EQ(m.tx_count(), 2U);
  EXPECT_DOUBLE_EQ(m.tx_j(), kTelos.tx_energy(1000) + kTelos.tx_energy(2000));
}

TEST(EnergyMeter, RxEnergyAndCount) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  m.add_rx(500);
  EXPECT_EQ(m.rx_count(), 1U);
  EXPECT_DOUBLE_EQ(m.rx_j(), kTelos.rx_energy(500));
}

TEST(EnergyMeter, TotalIncludesOpenInterval) {
  EnergyMeter m(kTelos, 0.0, PowerMode::kActive);
  // Without finalize, total_j(now) prices the open interval.
  EXPECT_DOUBLE_EQ(m.total_j(2.0), 41e-3 * 2.0);
  m.add_tx(1000);
  EXPECT_DOUBLE_EQ(m.total_j(2.0), 41e-3 * 2.0 + kTelos.tx_energy(1000));
}

TEST(EnergyMeter, NsVersusSleeperOverSameWindow) {
  // The core economics of the paper: a sleeping node costs ~3 orders of
  // magnitude less than an always-on node over the same window.
  EnergyMeter ns(kTelos, 0.0, PowerMode::kActive);
  EnergyMeter sleeper(kTelos, 0.0, PowerMode::kSleep);
  ns.finalize(150.0);
  sleeper.finalize(150.0);
  EXPECT_GT(ns.total_j(150.0), 1000.0 * sleeper.total_j(150.0));
}

TEST(EnergyMeter, NonFiniteStartHandledByConstruction) {
  // Meter honours a nonzero start time: nothing accrues before it.
  EnergyMeter m(kTelos, 5.0, PowerMode::kActive);
  m.finalize(6.0);
  EXPECT_DOUBLE_EQ(m.active_s(), 1.0);
}

TEST(EnergyMeter, BulkCcaIsBitEqualToSingleCalls) {
  // Exact equality on the doubles: lazy LPL sampling charges idle samples in
  // bulk and must reproduce per-sample charging to the last bit.
  constexpr double kCca = 2e-3;
  for (const std::uint64_t n : {0ULL, 1ULL, 7ULL, 1000ULL, 123457ULL}) {
    EnergyMeter bulk(kTelos, 0.0, PowerMode::kSleep);
    EnergyMeter single(kTelos, 0.0, PowerMode::kSleep);
    bulk.add_cca(kCca, n);
    for (std::uint64_t i = 0; i < n; ++i) single.add_cca(kCca);
    EXPECT_EQ(bulk.cca_j(), single.cca_j()) << n;
    EXPECT_EQ(bulk.cca_count(), n);
    EXPECT_EQ(single.cca_count(), n);
  }
}

TEST(EnergyMeter, BulkCcaInterleavedWithOtherLineItems) {
  constexpr double kCca = 2e-3;
  EnergyMeter bulk(kTelos, 0.0, PowerMode::kSleep);
  EnergyMeter single(kTelos, 0.0, PowerMode::kSleep);
  // Bulk runs of varying length, split by single CCAs, mode switches and
  // the other MAC line items, replayed one sample at a time on `single`.
  const std::uint64_t runs[] = {3, 0, 250, 1, 17, 4096, 2, 999};
  double t = 0.0;
  for (const std::uint64_t n : runs) {
    bulk.add_cca(kCca, n);
    for (std::uint64_t i = 0; i < n; ++i) single.add_cca(kCca);
    bulk.add_cca(kCca);
    single.add_cca(kCca);
    t += 1.25;
    const PowerMode mode =
        n % 2 == 0 ? PowerMode::kActive : PowerMode::kSleep;
    for (EnergyMeter* m : {&bulk, &single}) {
      m->add_preamble(0.013);
      m->add_listen(0.004);
      m->add_tx(256);
      m->set_mode(mode, t);
    }
  }
  bulk.finalize(t + 1.0);
  single.finalize(t + 1.0);
  EXPECT_EQ(bulk.cca_j(), single.cca_j());
  EXPECT_EQ(bulk.cca_count(), single.cca_count());
  EXPECT_EQ(bulk.preamble_j(), single.preamble_j());
  EXPECT_EQ(bulk.listen_j(), single.listen_j());
  EXPECT_EQ(bulk.tx_j(), single.tx_j());
  EXPECT_EQ(bulk.sleep_j(), single.sleep_j());
  EXPECT_EQ(bulk.active_j(), single.active_j());
  EXPECT_EQ(bulk.total_j(t + 1.0), single.total_j(t + 1.0));
}

}  // namespace
}  // namespace pas::energy
