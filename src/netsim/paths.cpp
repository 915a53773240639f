#include "netsim/paths.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <span>
#include <stdexcept>

namespace hp::netsim {

double link_weight(const Link& link, PathMetric metric) {
  switch (metric) {
    case PathMetric::kDelay:
      return link.delay_ms;
    case PathMetric::kHopCount:
      return 1.0;
    case PathMetric::kInverseCapacity:
      return 1.0 / link.capacity_mbps;
  }
  throw std::logic_error("link_weight: unknown metric");
}

namespace {

/// The one Dijkstra every search runs.  Links marked in `link_down` and
/// edges into nodes marked in `node_banned` are skipped (an empty mask
/// bans nothing).  With `stop` set, the search ends when it settles
/// `stop`, whose path is final by then.  The frontier orders by
/// (dist, node index) and relaxes on a strict `<`, so among equal-weight
/// paths the first settled predecessor wins.  Throws
/// std::invalid_argument for a non-empty `link_down` that does not
/// cover exactly every link.
PathTree search(const Topology& topo, NodeIndex src, PathMetric metric,
                std::span<const char> link_down,
                std::span<const char> node_banned,
                NodeIndex stop = kInvalidIndex) {
  if (!link_down.empty() && link_down.size() != topo.link_count()) {
    throw std::invalid_argument("path search: mask size != link_count()");
  }
  PathTree tree;
  tree.src = src;
  tree.dist.assign(topo.node_count(), std::numeric_limits<double>::infinity());
  tree.via.assign(topo.node_count(), kInvalidIndex);
  using QueueEntry = std::pair<double, NodeIndex>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      frontier;
  tree.dist[src] = 0.0;
  frontier.emplace(0.0, src);
  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > tree.dist[u]) continue;
    if (u == stop) break;
    // Hosts do not forward: they may start a path but not extend one.
    if (u != src && topo.node(u).kind == NodeKind::kHost) continue;
    for (const LinkIndex l : topo.outgoing(u)) {
      if (!link_down.empty() && link_down[l] != 0) continue;
      const Link& link = topo.link(l);
      if (!node_banned.empty() && node_banned[link.to] != 0) continue;
      const double nd = d + link_weight(link, metric);
      if (nd < tree.dist[link.to]) {
        tree.dist[link.to] = nd;
        tree.via[link.to] = l;
        frontier.emplace(nd, link.to);
      }
    }
  }
  return tree;
}

}  // namespace

PathTree shortest_path_tree(const Topology& topo, NodeIndex src,
                            PathMetric metric,
                            std::span<const char> link_down) {
  if (src >= topo.node_count()) {
    throw std::out_of_range("shortest_path_tree: bad node index");
  }
  return search(topo, src, metric, link_down, {});
}

std::optional<Path> tree_path(const PathTree& tree, const Topology& topo,
                              NodeIndex dst) {
  if (dst >= tree.via.size()) {
    throw std::out_of_range("tree_path: bad node index");
  }
  if (dst == tree.src) return Path{};
  if (tree.via[dst] == kInvalidIndex) return std::nullopt;
  Path path;
  for (NodeIndex cur = dst; cur != tree.src;) {
    const LinkIndex l = tree.via[cur];
    if (l == kInvalidIndex) return std::nullopt;
    path.push_back(l);
    cur = topo.link(l).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<std::vector<NodeIndex>> tree_children(const PathTree& tree,
                                                  const Topology& topo) {
  std::vector<std::vector<NodeIndex>> children(tree.via.size());
  for (NodeIndex c = 0; c < tree.via.size(); ++c) {
    if (c == tree.src || tree.via[c] == kInvalidIndex) continue;
    children[topo.link(tree.via[c]).from].push_back(c);
  }
  return children;
}

std::optional<Path> shortest_path(const Topology& topo, NodeIndex src,
                                  NodeIndex dst, PathMetric metric) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("shortest_path: bad node index");
  }
  return tree_path(search(topo, src, metric, {}, {}, dst), topo, dst);
}

double path_weight(const Topology& topo, const Path& path,
                   PathMetric metric) {
  double total = 0.0;
  for (const LinkIndex l : path) total += link_weight(topo.link(l), metric);
  return total;
}

bool path_is_up(const Path& path, std::span<const char> link_down) {
  return std::ranges::none_of(path, [&](LinkIndex l) {
    return l < link_down.size() && link_down[l] != 0;
  });
}

std::vector<NodeIndex> path_nodes(const Topology& topo, const Path& path) {
  std::vector<NodeIndex> nodes;
  if (path.empty()) return nodes;
  nodes.push_back(topo.link(path.front()).from);
  for (const LinkIndex l : path) nodes.push_back(topo.link(l).to);
  return nodes;
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeIndex src,
                                   NodeIndex dst, std::size_t k,
                                   PathMetric metric) {
  std::vector<Path> result;
  if (k == 0) return result;
  const auto first = shortest_path(topo, src, dst, metric);
  if (!first) return result;
  result.push_back(*first);

  // Candidate pool ordered by weight (then lexicographic for
  // determinism).
  auto cmp = [&](const Path& a, const Path& b) {
    const double wa = path_weight(topo, a, metric);
    const double wb = path_weight(topo, b, metric);
    if (wa != wb) return wa < wb;
    return a < b;
  };
  std::set<Path, decltype(cmp)> candidates(cmp);

  // Spur-search bans: root nodes keep paths loopless; links that would
  // recreate an already-found path with the same root.
  std::vector<char> link_banned(topo.link_count(), 0);
  std::vector<char> node_banned(topo.node_count(), 0);
  while (result.size() < k) {
    const Path& previous = result.back();
    const auto prev_nodes = path_nodes(topo, previous);
    std::ranges::fill(node_banned, 0);
    // Spur from every node of the previous path (except the last).
    for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
      const NodeIndex spur = prev_nodes[i];
      if (i > 0) node_banned[prev_nodes[i - 1]] = 1;
      const Path root(previous.begin(),
                      previous.begin() + static_cast<std::ptrdiff_t>(i));
      std::ranges::fill(link_banned, 0);
      for (const Path& found : result) {
        if (found.size() > i &&
            std::equal(root.begin(), root.end(), found.begin())) {
          link_banned[found[i]] = 1;
        }
      }
      const auto spur_path =
          tree_path(search(topo, spur, metric, link_banned, node_banned, dst),
                    topo, dst);
      if (!spur_path) continue;
      Path total = root;
      total.insert(total.end(), spur_path->begin(), spur_path->end());
      if (std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.insert(std::move(total));
      }
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

std::vector<Path> k_disjoint_paths(const Topology& topo, NodeIndex src,
                                   NodeIndex dst, std::size_t k,
                                   PathMetric metric,
                                   std::span<const char> link_down) {
  if (src >= topo.node_count() || dst >= topo.node_count()) {
    throw std::out_of_range("k_disjoint_paths: bad node index");
  }
  std::vector<Path> result;
  if (k == 0 || src == dst) return result;
  // Iterative Dijkstra over an accumulating private copy of the mask
  // (the search checks its size): each found path retires its links
  // (both directions) before the next search, so the results are
  // mutually duplex-link-disjoint by construction.
  std::vector<char> banned(link_down.begin(), link_down.end());
  if (banned.empty()) banned.resize(topo.link_count(), 0);
  while (result.size() < k) {
    auto path =
        tree_path(search(topo, src, metric, banned, {}, dst), topo, dst);
    if (!path || path->empty()) break;
    for (const LinkIndex l : *path) {
      banned[l] = 1;
      const Link& link = topo.link(l);
      if (const auto rev = topo.link_between(link.to, link.from)) {
        banned[*rev] = 1;
      }
    }
    result.push_back(std::move(*path));
  }
  return result;
}

}  // namespace hp::netsim
