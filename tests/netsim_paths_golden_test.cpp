// Golden path matrix for netsim's path computation.
//
// Each hash covers every path the searches return over a fixed input
// set, so a change to a search's tie-breaking (frontier order, the
// strict relax test, the host rule, where a targeted search stops)
// moves a hash even when every returned path is still a shortest one.
// The inputs: every builtin registry topology and seeded random graphs
// with host nodes, zero-delay links and hop-count ties, under all three
// metrics (shortest_path, Yen's k = 4, disjoint k = 3, the dist/via of
// every shortest-path tree); and the masked searches behind BuiltFabric
// (route() after a seeded sequence of failures and restores, and the
// backup paths enable_protection(2) plans on a degraded fabric).
//
// The hashes were computed at the parent of the single-Dijkstra
// refactor of paths.cpp, on the std::set ban search it replaced, and
// must not be edited to follow a change of path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "netsim/paths.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"

namespace netsim = hp::netsim;
namespace scenario = hp::scenario;

namespace {

/// FNV-1a over 64-bit words.
class Hash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xffU);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const netsim::Path& path) {
    add(static_cast<std::uint64_t>(path.size()));
    for (const netsim::LinkIndex l : path) add(static_cast<std::uint64_t>(l));
  }
  void add(const std::optional<netsim::Path>& path) {
    if (!path) {
      add(~std::uint64_t{0});
      return;
    }
    add(*path);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint64_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 1469598103934665603ULL;
};

constexpr netsim::PathMetric kMetrics[] = {
    netsim::PathMetric::kDelay, netsim::PathMetric::kHopCount,
    netsim::PathMetric::kInverseCapacity};

/// Every search over every ordered node pair of `topo`.
void add_all_searches(Hash& h, const netsim::Topology& topo) {
  const std::size_t n = topo.node_count();
  for (const netsim::PathMetric metric : kMetrics) {
    for (netsim::NodeIndex src = 0; src < n; ++src) {
      const netsim::PathTree tree =
          netsim::shortest_path_tree(topo, src, metric);
      for (netsim::NodeIndex v = 0; v < n; ++v) {
        h.add(tree.dist[v]);
        h.add(static_cast<std::uint64_t>(tree.via[v]));
      }
      for (netsim::NodeIndex dst = 0; dst < n; ++dst) {
        h.add(netsim::shortest_path(topo, src, dst, metric));
        for (const netsim::Path& p :
             netsim::k_shortest_paths(topo, src, dst, 4, metric)) {
          h.add(p);
        }
        h.add(std::uint64_t{0xD15});
        for (const netsim::Path& p :
             netsim::k_disjoint_paths(topo, src, dst, 3, metric)) {
          h.add(p);
        }
        h.add(std::uint64_t{0xE0D});
      }
    }
  }
}

/// One representative spec per builtin topology (the registry crosses
/// each topology with four traffic patterns).
std::map<std::string, scenario::ScenarioSpec> registry_topologies() {
  std::map<std::string, scenario::ScenarioSpec> out;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    out.try_emplace(spec.name.substr(0, spec.name.find('/')), spec);
  }
  return out;
}

/// A random multigraph: ~1 in 5 nodes a host, delays drawn from a small
/// set with zeros and repeats (ties under every metric), parallel links
/// allowed.  Raw mt19937_64 draws keep it identical on every platform.
netsim::Topology random_graph(std::mt19937_64& rng) {
  netsim::Topology topo;
  const std::size_t n = 5 + rng() % 10;
  for (std::size_t i = 0; i < n; ++i) {
    const bool host = rng() % 5 == 0;
    topo.add_node("n" + std::to_string(i), host ? netsim::NodeKind::kHost
                                                : netsim::NodeKind::kRouter);
  }
  constexpr double kDelays[] = {0.0, 0.5, 1.0, 1.0, 2.0};
  constexpr double kCapacities[] = {10.0, 20.0, 40.0};
  const std::size_t links = n + rng() % (2 * n);
  for (std::size_t i = 0; i < links; ++i) {
    const netsim::NodeIndex a = rng() % n;
    const netsim::NodeIndex b = rng() % n;
    const double capacity = kCapacities[rng() % 3];
    const double delay = kDelays[rng() % 5];
    if (a != b) topo.add_duplex_link(a, b, capacity, delay);
  }
  return topo;
}

/// Every router pair's route() through the fabric's cache.
void add_routes(Hash& h, scenario::BuiltFabric& fabric) {
  for (const netsim::NodeIndex src : fabric.routers()) {
    for (const netsim::NodeIndex dst : fabric.routers()) {
      if (src == dst) continue;
      const scenario::CompiledRoute* route = fabric.route(src, dst);
      if (route == nullptr) {
        h.add(~std::uint64_t{0});
      } else {
        h.add(route->path);
      }
    }
  }
}

/// Every backup path of every router pair (0xB0 marks an unprotected pair).
void add_backups(Hash& h, const scenario::BuiltFabric& fabric) {
  for (const netsim::NodeIndex src : fabric.routers()) {
    for (const netsim::NodeIndex dst : fabric.routers()) {
      const auto* backups =
          fabric.backup_table().backups_for(netsim::node_pair_key(src, dst));
      if (backups == nullptr) {
        h.add(std::uint64_t{0xB0});
        continue;
      }
      for (const scenario::BackupRoute& b : *backups) h.add(b.path);
    }
  }
}

/// A duplex link's endpoints, picked uniformly over link_count() / 2.
std::pair<netsim::NodeIndex, netsim::NodeIndex> random_link(
    const netsim::Topology& topo, std::mt19937_64& rng) {
  const netsim::Link& link = topo.link(2 * (rng() % (topo.link_count() / 2)));
  return {link.from, link.to};
}

TEST(GoldenPaths, RegistryTopologies) {
  const std::map<std::string, std::uint64_t> expected = {
      {"fat_tree_k4", 0xb706a6de44e791c3ULL},
      {"leaf_spine_4x8", 0x78a061ae32327a73ULL},
      {"ring12", 0xc3c9f2e0eb006e37ULL},
      {"rr16d4", 0xbc77ef66c73e8fcdULL},
      {"torus4x4", 0x6da315fd8711455bULL},
  };
  const auto topologies = registry_topologies();
  ASSERT_EQ(topologies.size(), expected.size());
  for (const auto& [name, spec] : topologies) {
    Hash h;
    add_all_searches(h, scenario::build_topology(spec));
    EXPECT_EQ(h.value(), expected.at(name))
        << name << ": 0x" << std::hex << h.value();
  }
}

TEST(GoldenPaths, SeededRandomGraphs) {
  std::mt19937_64 rng(2024);
  Hash h;
  for (int g = 0; g < 60; ++g) add_all_searches(h, random_graph(rng));
  EXPECT_EQ(h.value(), 0xa8c1deeac9f9a61ULL) << "0x" << std::hex << h.value();
}

TEST(GoldenPaths, FabricRoutesUnderFailuresAndRestores) {
  const std::map<std::string, std::uint64_t> expected = {
      {"fat_tree_k4", 0x9e3f5b39d791d0a4ULL},
      {"leaf_spine_4x8", 0x2c834530d88c7d63ULL},
      {"ring12", 0xb0ec1287becd6ed3ULL},
      {"rr16d4", 0x5c8a735e2a9a15a7ULL},
      {"torus4x4", 0x588aa78e627026a1ULL},
  };
  for (const auto& [name, spec] : registry_topologies()) {
    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    std::mt19937_64 rng(31);
    std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>> down;
    Hash h;
    add_routes(h, fabric);
    for (int event = 0; event < 12; ++event) {
      if (!down.empty() && rng() % 3 == 0) {
        const std::size_t i = rng() % down.size();
        (void)fabric.restore_link(down[i].first, down[i].second);
        down.erase(down.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        const auto link = random_link(fabric.topology(), rng);
        if (!fabric.apply_failure(link.first, link.second).duplicate) {
          down.push_back(link);
        }
      }
      h.add(static_cast<std::uint64_t>(fabric.failed_links().size()));
      add_routes(h, fabric);
    }
    EXPECT_EQ(h.value(), expected.at(name))
        << name << ": 0x" << std::hex << h.value();
  }
}

TEST(GoldenPaths, BackupsPlannedOnADegradedFabric) {
  const std::map<std::string, std::uint64_t> expected = {
      {"fat_tree_k4", 0xb2f2c29934b7530cULL},
      {"leaf_spine_4x8", 0xe91a9bc9e4cd8690ULL},
      {"ring12", 0x66e553c0a3c1ba33ULL},
      {"rr16d4", 0x2bc9552a19164c9aULL},
      {"torus4x4", 0xfa1db429dcfc38aeULL},
  };
  for (const auto& [name, spec] : registry_topologies()) {
    scenario::BuiltFabric fabric(scenario::build_topology(spec));
    std::mt19937_64 rng(47);
    for (int i = 0; i < 3; ++i) {
      const auto link = random_link(fabric.topology(), rng);
      (void)fabric.apply_failure(link.first, link.second);
    }
    (void)fabric.compile_all_pairs();
    Hash h;
    h.add(static_cast<std::uint64_t>(fabric.enable_protection(2)));
    add_backups(h, fabric);
    // One more failure with protection armed, then the lazy repair
    // replans the dead pairs' protection against the new damage.
    const auto link = random_link(fabric.topology(), rng);
    (void)fabric.apply_failure(link.first, link.second);
    (void)fabric.repair_pending();
    add_backups(h, fabric);
    add_routes(h, fabric);
    EXPECT_EQ(h.value(), expected.at(name))
        << name << ": 0x" << std::hex << h.value();
  }
}

}  // namespace
