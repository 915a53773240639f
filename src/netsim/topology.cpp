#include "netsim/topology.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace hp::netsim {

NodeIndex Topology::add_node(const std::string& name, NodeKind kind) {
  if (by_name_.contains(name)) {
    throw std::invalid_argument("Topology: duplicate node " + name);
  }
  const NodeIndex idx = nodes_.size();
  nodes_.push_back(Node{name, kind});
  outgoing_.emplace_back();
  by_name_.emplace(name, idx);
  return idx;
}

LinkIndex Topology::add_duplex_link(NodeIndex a, NodeIndex b,
                                    double capacity_mbps, double delay_ms,
                                    double loss_rate) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("Topology: bad node index");
  }
  if (a == b) throw std::invalid_argument("Topology: self link");
  // Written so NaN fails each test: these are path-search weights.
  if (!(capacity_mbps > 0.0) || !std::isfinite(capacity_mbps)) {
    throw std::invalid_argument("Topology: capacity must be positive");
  }
  if (!(delay_ms >= 0.0) || !std::isfinite(delay_ms)) {
    throw std::invalid_argument("Topology: delay must be finite, >= 0");
  }
  if (!(loss_rate >= 0.0 && loss_rate < 1.0)) {
    throw std::invalid_argument("Topology: loss rate in [0,1)");
  }
  const LinkIndex fwd = links_.size();
  links_.push_back(Link{a, b, capacity_mbps, delay_ms, loss_rate});
  outgoing_[a].push_back(fwd);
  links_.push_back(Link{b, a, capacity_mbps, delay_ms, loss_rate});
  outgoing_[b].push_back(fwd + 1);
  // emplace keeps the first link for parallel duplicates, matching the
  // linear-scan behaviour link_between had before the hash existed.
  adjacency_.emplace(node_pair_key(a, b), fwd);
  adjacency_.emplace(node_pair_key(b, a), fwd + 1);
  return fwd;
}

NodeIndex Topology::index_of(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("Topology: unknown node " + name);
  }
  return it->second;
}

std::optional<LinkIndex> Topology::link_between(NodeIndex a,
                                                NodeIndex b) const {
  if (a >= nodes_.size()) {
    throw std::out_of_range("Topology: bad node index");
  }
  const auto it = adjacency_.find(node_pair_key(a, b));
  if (it == adjacency_.end()) return std::nullopt;
  return it->second;
}

Path Topology::path_through(const std::vector<std::string>& names) const {
  if (names.size() < 2) {
    throw std::invalid_argument("path_through: need at least two nodes");
  }
  Path path;
  path.reserve(names.size() - 1);
  for (std::size_t i = 0; i + 1 < names.size(); ++i) {
    const NodeIndex a = index_of(names[i]);
    const NodeIndex b = index_of(names[i + 1]);
    const auto l = link_between(a, b);
    if (!l) {
      throw std::invalid_argument("path_through: no link " + names[i] +
                                  " -> " + names[i + 1]);
    }
    path.push_back(*l);
  }
  return path;
}

double Topology::path_delay_ms(const Path& path) const {
  double total = 0.0;
  for (const LinkIndex l : path) total += links_.at(l).delay_ms;
  return total;
}

double Topology::path_bottleneck_mbps(const Path& path) const {
  double bottleneck = std::numeric_limits<double>::infinity();
  for (const LinkIndex l : path) {
    bottleneck = std::min(bottleneck, links_.at(l).capacity_mbps);
  }
  return bottleneck;
}

bool Topology::is_connected_path(const Path& path) const {
  if (path.empty()) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (links_.at(path[i]).to != links_.at(path[i + 1]).from) return false;
  }
  return true;
}

Topology make_global_p4_lab() {
  Topology topo;
  const NodeIndex mia = topo.add_node("MIA");
  const NodeIndex chi = topo.add_node("CHI");
  const NodeIndex cal = topo.add_node("CAL");
  const NodeIndex sao = topo.add_node("SAO");
  const NodeIndex ams = topo.add_node("AMS");
  const NodeIndex host1 = topo.add_node("host1", NodeKind::kHost);
  const NodeIndex host2 = topo.add_node("host2", NodeKind::kHost);

  // Experiment-2 capacities; MIA-SAO carries the transatlantic 20 ms
  // delay injected with tc in the paper's setup.
  topo.add_duplex_link(mia, sao, 20.0, 20.0);
  topo.add_duplex_link(sao, ams, 20.0, 2.0);
  topo.add_duplex_link(chi, ams, 20.0, 2.0);
  topo.add_duplex_link(mia, chi, 10.0, 2.0);
  topo.add_duplex_link(mia, cal, 5.0, 2.0);
  topo.add_duplex_link(cal, chi, 5.0, 2.0);
  topo.add_duplex_link(host1, mia, 1000.0, 0.1);
  topo.add_duplex_link(ams, host2, 1000.0, 0.1);
  return topo;
}

}  // namespace hp::netsim
