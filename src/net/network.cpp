#include "net/network.hpp"

#include <stdexcept>

#include "net/mac.hpp"
#include "sim/small_fn.hpp"

namespace pas::net {

Network::Network(sim::Simulator& simulator,
                 const std::vector<geom::Vec2>& positions, RadioConfig config,
                 std::shared_ptr<Channel> channel,
                 const sim::SeedSequence& seeds)
    : simulator_(simulator) {
  reset(positions, config, std::move(channel), seeds);
}

void Network::reset(const std::vector<geom::Vec2>& positions,
                    RadioConfig config,
                    std::shared_ptr<Channel> channel,
                    const sim::SeedSequence& seeds) {
  if (positions.empty()) {
    throw std::invalid_argument("Network: need at least one node");
  }
  if (config.range_m <= 0.0 || config.data_rate_bps <= 0.0) {
    throw std::invalid_argument("Network: range and data rate must be > 0");
  }
  if (!channel) {
    throw std::invalid_argument("Network: channel must not be null");
  }
  // assign, not a copy: a kept-warm network reuses its capacity.
  positions_.assign(positions.begin(), positions.end());
  config_ = config;
  channel_ = std::move(channel);
  jitter_rng_ = seeds.stream(sim::SeedSequence::kMacJitter);
  stats_ = Stats{};
  // Hooks capture the previous world's state; a fresh Network has none.
  tx_hook_ = EnergyHook{};
  rx_hook_ = EnergyHook{};
  alert_handler_ = AlertHandler{};
  mac_ = nullptr;

  // Precompute the neighbor lists once; nodes are static for a run. Each
  // pair is tested once, in index order, with the range test is_connected
  // uses, and lands in both lists: node j's list gets the smaller ids while
  // the outer loop reaches them, then its larger ids, so every list comes
  // out sorted with nothing to index or sort. The per-node vectors keep
  // their capacity across resets.
  const double r2 = config_.range_m * config_.range_m;
  const auto n = static_cast<std::uint32_t>(positions_.size());
  neighbors_.resize(n);
  for (auto& nbrs : neighbors_) nbrs.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (geom::distance2(positions_[j], positions_[i]) <= r2) {
        neighbors_[i].push_back(j);
        neighbors_[j].push_back(i);
      }
    }
  }
  frames_.clear();
  free_frames_.clear();

  handlers_.clear();
  handlers_.resize(positions_.size());
  listening_.assign(positions_.size(), 1);
  failed_.assign(positions_.size(), 0);
  link_rng_.clear();
  link_rng_.reserve(positions_.size());
  for (std::uint32_t i = 0; i < positions_.size(); ++i) {
    link_rng_.push_back(seeds.stream(sim::SeedSequence::kChannel, i));
  }
}

void Network::set_rx_handler(std::uint32_t id, RxHandler handler) {
  handlers_.at(id) = std::move(handler);
}

void Network::set_listening(std::uint32_t id, bool listening) {
  listening_.at(id) = listening ? 1 : 0;
  if (mac_ != nullptr) mac_->on_listening_changed(id, listening);
}

void Network::set_failed(std::uint32_t id) {
  failed_.at(id) = 1;
  listening_.at(id) = 0;
  if (mac_ != nullptr) mac_->on_failed(id);
}

void Network::attach_mac(SlottedLplMac* mac) {
  mac_ = mac;
  if (mac_ != nullptr) {
    mac_->set_deliver([this](const Message& msg, std::uint32_t to) {
      deliver_from_mac(msg, to);
    });
  }
}

bool Network::channel_roll(std::uint32_t from, std::uint32_t to) {
  if (channel_->deliver(from, to, link_rng_.at(to))) return true;
  ++stats_.dropped_channel;
  return false;
}

void Network::deliver_from_mac(const Message& msg, std::uint32_t to) {
  ++stats_.deliveries;
  if (rx_hook_) rx_hook_(to, msg.size_bits());
  if (msg.type == MessageType::kAlert) {
    if (alert_handler_) alert_handler_(msg, to);
    return;
  }
  if (handlers_.at(to)) handlers_[to](msg);
}

void Network::broadcast(std::uint32_t from, Message msg) {
  if (from >= positions_.size()) {
    throw std::out_of_range("Network::broadcast: unknown sender");
  }
  if (failed_[from] != 0) {
    ++stats_.blocked_sender_failed;
    return;
  }
  msg.sender = from;
  msg.sent_at = simulator_.now();
  ++stats_.broadcasts;
  if (mac_ != nullptr) {
    // The MAC owns the medium: CCA, backoff, preamble and collision
    // resolution replace the jitter model, and it charges tx energy through
    // its own hook (tx_hook_ here stays silent to avoid double billing).
    mac_->broadcast(from, msg);
    return;
  }
  if (tx_hook_) tx_hook_(from, msg.size_bits());

  const sim::Duration backoff = jitter_rng_.uniform(0.0, config_.max_jitter_s);
  const sim::Duration on_air =
      static_cast<double>(msg.size_bits()) / config_.data_rate_bps;
  const sim::Duration delay = backoff + on_air + config_.propagation_s;
  if (neighbors_[from].empty()) return;

  std::uint32_t slot = 0;
  if (free_frames_.empty()) {
    slot = static_cast<std::uint32_t>(frames_.size());
    frames_.push_back(msg);
  } else {
    slot = free_frames_.back();
    free_frames_.pop_back();
    frames_[slot] = msg;
  }
  const auto deliver = [this, slot] { fan_out(slot); };
  static_assert(sim::SmallFn::stores_inline<decltype(deliver)>,
                "the fan-out closure must not heap-allocate per broadcast");
  simulator_.schedule_in(delay, deliver);
}

void Network::fan_out(std::uint32_t slot) {
  // Copy the frame out first: a handler may broadcast, which can grow (and
  // reallocate) the slab or reuse this slot.
  const Message msg = frames_[slot];
  free_frames_.push_back(slot);
  // Every neighbor receives within this one event, in ascending id order;
  // no other event can run between two receptions of the same frame.
  for (const std::uint32_t to : neighbors_[msg.sender]) {
    if (failed_[to] != 0) {
      ++stats_.dropped_failed;
      continue;
    }
    if (listening_[to] == 0) {
      ++stats_.dropped_not_listening;
      continue;
    }
    if (!channel_->deliver(msg.sender, to, link_rng_[to])) {
      ++stats_.dropped_channel;
      continue;
    }
    ++stats_.deliveries;
    if (rx_hook_) rx_hook_(to, msg.size_bits());
    if (handlers_[to]) handlers_[to](msg);
  }
}

double Network::mean_degree() const noexcept {
  if (neighbors_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& n : neighbors_) total += n.size();
  return static_cast<double>(total) / static_cast<double>(neighbors_.size());
}

}  // namespace pas::net
