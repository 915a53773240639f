#pragma once
// Network topology model for the emulated testbed.
//
// Mirrors what the paper builds in VirtualBox (Fig 9): named routers and
// hosts joined by duplex links with a capacity (the VirtualBox rate
// limit), a propagation delay (the tc-injected 20 ms on MIA-SAO) and an
// optional loss rate.  Directed link objects are the unit the flow model
// and telemetry operate on.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace hp::netsim {

using NodeIndex = std::size_t;
using LinkIndex = std::size_t;

inline constexpr std::size_t kInvalidIndex = static_cast<std::size_t>(-1);

/// Pack an ordered node pair into one hash/map key (topologies stay
/// below 2^32 nodes; every layer keying on pairs shares this helper).
[[nodiscard]] inline std::uint64_t node_pair_key(NodeIndex from,
                                                 NodeIndex to) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to & 0xFFFFFFFFu);
}

/// Inverse of node_pair_key.
[[nodiscard]] inline std::pair<NodeIndex, NodeIndex> node_pair_from_key(
    std::uint64_t key) noexcept {
  return {static_cast<NodeIndex>(key >> 32),
          static_cast<NodeIndex>(key & 0xFFFFFFFFu)};
}

/// Role of a node (hosts terminate flows; routers forward).
enum class NodeKind { kRouter, kHost };

struct Node {
  std::string name;
  NodeKind kind = NodeKind::kRouter;
};

/// One *directed* link.  Duplex physical links become two of these.
struct Link {
  NodeIndex from = kInvalidIndex;
  NodeIndex to = kInvalidIndex;
  double capacity_mbps = 0.0;
  double delay_ms = 0.0;
  double loss_rate = 0.0;  ///< packet loss probability in [0,1)
};

/// A path is a sequence of directed link indices with matching ends.
using Path = std::vector<LinkIndex>;

/// Named-router topology with duplex link helpers.
class Topology {
 public:
  /// Add a node; names must be unique (throws std::invalid_argument).
  NodeIndex add_node(const std::string& name,
                     NodeKind kind = NodeKind::kRouter);

  /// Add a duplex link (two directed links with the same parameters);
  /// returns the index of the forward direction (the reverse is always
  /// the next index).  Throws std::invalid_argument unless the capacity
  /// is finite and positive, the delay finite and non-negative (both
  /// are path-search weights) and the loss rate in [0, 1).
  LinkIndex add_duplex_link(NodeIndex a, NodeIndex b, double capacity_mbps,
                            double delay_ms, double loss_rate = 0.0);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] const Node& node(NodeIndex i) const { return nodes_.at(i); }
  [[nodiscard]] const Link& link(LinkIndex i) const { return links_.at(i); }
  [[nodiscard]] Link& mutable_link(LinkIndex i) { return links_.at(i); }

  [[nodiscard]] NodeIndex index_of(const std::string& name) const;
  [[nodiscard]] bool has_node(const std::string& name) const {
    return by_name_.contains(name);
  }

  /// Directed link from `a` to `b`, if one exists.
  [[nodiscard]] std::optional<LinkIndex> link_between(NodeIndex a,
                                                      NodeIndex b) const;

  /// Build a path from a list of node names (throws std::invalid_argument
  /// when consecutive nodes are not linked).
  [[nodiscard]] Path path_through(const std::vector<std::string>& names) const;

  /// Sum of link propagation delays along a path (ms).
  [[nodiscard]] double path_delay_ms(const Path& path) const;

  /// Minimum link capacity along a path (Mbps); infinity for empty path.
  [[nodiscard]] double path_bottleneck_mbps(const Path& path) const;

  /// Validate that `path` is connected (each link starts where the
  /// previous ended).  Returns false for empty paths.
  [[nodiscard]] bool is_connected_path(const Path& path) const;

  /// Outgoing directed links of a node.
  [[nodiscard]] const std::vector<LinkIndex>& outgoing(NodeIndex n) const {
    return outgoing_.at(n);
  }

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkIndex>> outgoing_;
  std::unordered_map<std::string, NodeIndex> by_name_;
  /// (from << 32 | to) -> first directed link, so link_between stays
  /// O(1) on the dense generated topologies (node count < 2^32).
  std::unordered_map<std::uint64_t, LinkIndex> adjacency_;
};

/// The Fig 9 topology: a subset of the Global P4 Lab with routers
/// MIA, CHI, CAL, SAO, AMS plus host1 (at MIA) and host2 (at AMS), with
/// the paper's experiment-2 capacities and the 20 ms MIA-SAO delay.
/// Capacities (Mbps): MIA-SAO 20, SAO-AMS 20, CHI-AMS 20, MIA-CHI 10,
/// MIA-CAL 5, CAL-CHI 5.  Host access links are 1000 Mbps.
[[nodiscard]] Topology make_global_p4_lab();

}  // namespace hp::netsim
