#include "core/observation.hpp"

#include <algorithm>

namespace pas::core {

namespace {

bool id_less(const PeerObservation& obs, std::uint32_t id) {
  return obs.id < id;
}

}  // namespace

void PeerTable::update(const PeerObservation& obs) {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), obs.id, id_less);
  if (it != entries_.end() && it->id == obs.id) {
    *it = obs;
  } else {
    entries_.insert(it, obs);
  }
}

std::optional<PeerObservation> PeerTable::find(std::uint32_t id) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), id, id_less);
  if (it == entries_.end() || it->id != id) return std::nullopt;
  return *it;
}

std::vector<PeerObservation> PeerTable::snapshot() const {
  return {entries_.begin(), entries_.end()};
}

void PeerTable::expire_older_than(sim::Time cutoff) {
  std::erase_if(entries_, [cutoff](const PeerObservation& obs) {
    return obs.received_at < cutoff;
  });
}

}  // namespace pas::core
