#include "metrics/report.hpp"

#include <algorithm>

#include "metrics/stats.hpp"

namespace pas::metrics {

std::vector<NodeOutcome> collect_outcomes(
    const std::vector<node::SensorNode>& nodes) {
  std::vector<NodeOutcome> out;
  collect_outcomes(nodes, out);
  return out;
}

void collect_outcomes(const std::vector<node::SensorNode>& nodes,
                      std::vector<NodeOutcome>& out) {
  out.clear();
  out.reserve(nodes.size());
  for (const auto& n : nodes) {
    NodeOutcome o;
    o.id = n.id;
    o.position = n.position;
    o.arrival = n.arrival;
    o.detected = n.detected;
    o.was_reached = n.was_reached();
    o.was_detected = n.has_detected();
    o.failed = n.failed;
    if (o.was_detected) o.delay_s = n.detection_delay();
    o.energy_sleep_j = n.meter.sleep_j();
    o.energy_active_j = n.meter.active_j();
    o.energy_tx_j = n.meter.tx_j();
    o.energy_transition_j = n.meter.transition_j();
    o.energy_cca_j = n.meter.cca_j();
    o.energy_preamble_j = n.meter.preamble_j();
    o.energy_listen_j = n.meter.listen_j();
    o.energy_j = o.energy_sleep_j + o.energy_active_j + o.energy_tx_j +
                 o.energy_transition_j + n.meter.rx_j() + o.energy_cca_j +
                 o.energy_preamble_j + o.energy_listen_j;
    o.active_s = n.meter.active_s();
    o.sleep_s = n.meter.sleep_s();
    o.transitions = n.meter.transitions();
    o.tx_count = n.meter.tx_count();
    o.cca_count = n.meter.cca_count();
    out.push_back(o);
  }
}

RunMetrics summarize(const std::vector<NodeOutcome>& outcomes,
                     double duration_s, double censor_cutoff_s,
                     const net::Network::Stats& network,
                     const core::ProtocolStats& protocol) {
  RunMetrics m;
  m.node_count = outcomes.size();
  m.duration_s = duration_s;
  m.network = network;
  m.protocol = protocol;

  std::vector<double> delays;
  RunningStats energy;
  RunningStats tx_energy;
  RunningStats active_fraction;
  for (const auto& o : outcomes) {
    if (o.was_reached && !o.failed) {
      ++m.reached;
      if (o.was_detected) {
        ++m.detected;
        delays.push_back(o.delay_s);
      } else if (o.arrival > censor_cutoff_s) {
        ++m.censored;
      } else {
        ++m.missed;
      }
    }
    energy.add(o.energy_j);
    tx_energy.add(o.energy_tx_j);
    if (duration_s > 0.0) active_fraction.add(o.active_s / duration_s);
  }

  if (!delays.empty()) {
    const Summary s = Summary::of(delays);
    m.avg_delay_s = s.mean;
    m.max_delay_s = s.max;
    m.p95_delay_s = quantile(delays, 0.95);
  }
  m.avg_energy_j = energy.mean();
  m.total_energy_j = energy.sum();
  m.avg_energy_tx_j = tx_energy.mean();
  m.avg_active_fraction = active_fraction.mean();
  return m;
}

}  // namespace pas::metrics
