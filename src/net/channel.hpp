// Wireless channel models.
//
// The paper's evaluation assumes a perfect channel and names "imperfect
// communication channel" as future work; we ship three models so the
// robustness ablation (examples/paper/robustness.json) can exercise that future work:
//   * PerfectChannel       — every in-range packet arrives.
//   * BernoulliLossChannel — i.i.d. loss with probability p.
//   * GilbertElliottChannel— two-state bursty loss (good/bad link states).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sim/rng.hpp"

namespace pas::net {

class Channel {
 public:
  virtual ~Channel() = default;

  /// Decides whether one unicast copy of a broadcast from `from` reaches
  /// `to`. `rng` is the receiver-link's dedicated stream.
  [[nodiscard]] virtual bool deliver(std::uint32_t from, std::uint32_t to,
                                     sim::Pcg32& rng) = 0;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
};

class PerfectChannel final : public Channel {
 public:
  [[nodiscard]] bool deliver(std::uint32_t, std::uint32_t, sim::Pcg32&) override {
    return true;
  }
  [[nodiscard]] const char* name() const noexcept override { return "perfect"; }
};

class BernoulliLossChannel final : public Channel {
 public:
  /// `loss` in [0, 1): probability an individual delivery is dropped.
  explicit BernoulliLossChannel(double loss);

  [[nodiscard]] bool deliver(std::uint32_t from, std::uint32_t to,
                             sim::Pcg32& rng) override;
  [[nodiscard]] const char* name() const noexcept override { return "bernoulli"; }
  [[nodiscard]] double loss() const noexcept { return loss_; }

 private:
  double loss_;
};

/// Two-state Markov loss: links flip between a good state (low loss) and a
/// bad state (high loss) at per-delivery transition probabilities, giving
/// bursty outages typical of real low-power links.
class GilbertElliottChannel final : public Channel {
 public:
  struct Params {
    double p_good_to_bad = 0.05;
    double p_bad_to_good = 0.2;
    double loss_good = 0.01;
    double loss_bad = 0.6;
  };

  explicit GilbertElliottChannel(Params params);

  [[nodiscard]] bool deliver(std::uint32_t from, std::uint32_t to,
                             sim::Pcg32& rng) override;
  [[nodiscard]] const char* name() const noexcept override { return "gilbert-elliott"; }

 private:
  Params params_;
  // Per directed link: true = bad state.
  std::unordered_map<std::uint64_t, bool> link_bad_;
};

}  // namespace pas::net
