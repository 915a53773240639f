// Tests for the topology model and the Fig 9 Global P4 Lab builder.

#include "netsim/topology.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace hp::netsim {
namespace {

TEST(Topology, NodesAndDuplexLinks) {
  Topology topo;
  const NodeIndex a = topo.add_node("A");
  const NodeIndex b = topo.add_node("B");
  const LinkIndex fwd = topo.add_duplex_link(a, b, 10.0, 5.0);
  EXPECT_EQ(topo.node_count(), 2U);
  EXPECT_EQ(topo.link_count(), 2U);
  EXPECT_EQ(topo.link(fwd).from, a);
  EXPECT_EQ(topo.link(fwd).to, b);
  EXPECT_EQ(topo.link(fwd + 1).from, b);
  EXPECT_EQ(topo.link(fwd + 1).to, a);
  EXPECT_DOUBLE_EQ(topo.link(fwd).capacity_mbps, 10.0);
}

TEST(Topology, Validation) {
  Topology topo;
  const NodeIndex a = topo.add_node("A");
  EXPECT_THROW(topo.add_node("A"), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, a, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, 5, 1.0, 1.0), std::out_of_range);
  const NodeIndex b = topo.add_node("B");
  EXPECT_THROW(topo.add_duplex_link(a, b, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, 1.0, 1.0, 1.0),
               std::invalid_argument);
}

TEST(Topology, RejectsLinkWeightsPathSearchCannotUse) {
  Topology topo;
  const NodeIndex a = topo.add_node("A");
  const NodeIndex b = topo.add_node("B");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(topo.add_duplex_link(a, b, nan, 1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, inf, 1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, 1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, 1.0, nan), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, 1.0, inf), std::invalid_argument);
  EXPECT_THROW(topo.add_duplex_link(a, b, 1.0, 1.0, nan),
               std::invalid_argument);
  EXPECT_EQ(topo.link_count(), 0U);  // nothing half-added
  // Zero delay is a valid weight (co-located nodes).
  EXPECT_NO_THROW(topo.add_duplex_link(a, b, 1.0, 0.0));
}

TEST(Topology, LinkBetween) {
  Topology topo;
  const NodeIndex a = topo.add_node("A");
  const NodeIndex b = topo.add_node("B");
  const NodeIndex c = topo.add_node("C");
  topo.add_duplex_link(a, b, 1.0, 1.0);
  EXPECT_TRUE(topo.link_between(a, b).has_value());
  EXPECT_TRUE(topo.link_between(b, a).has_value());
  EXPECT_FALSE(topo.link_between(a, c).has_value());
}

TEST(Topology, PathThroughAndMetrics) {
  Topology topo;
  topo.add_node("A");
  topo.add_node("B");
  topo.add_node("C");
  topo.add_duplex_link(0, 1, 10.0, 5.0);
  topo.add_duplex_link(1, 2, 4.0, 7.0);
  const Path path = topo.path_through({"A", "B", "C"});
  ASSERT_EQ(path.size(), 2U);
  EXPECT_TRUE(topo.is_connected_path(path));
  EXPECT_DOUBLE_EQ(topo.path_delay_ms(path), 12.0);
  EXPECT_DOUBLE_EQ(topo.path_bottleneck_mbps(path), 4.0);
  EXPECT_THROW((void)topo.path_through({"A", "C"}), std::invalid_argument);
  EXPECT_THROW((void)topo.path_through({"A"}), std::invalid_argument);
}

TEST(Topology, DisconnectedPathDetected) {
  Topology topo;
  topo.add_node("A");
  topo.add_node("B");
  topo.add_node("C");
  topo.add_duplex_link(0, 1, 1.0, 1.0);  // links 0,1
  topo.add_duplex_link(1, 2, 1.0, 1.0);  // links 2,3
  EXPECT_TRUE(topo.is_connected_path({0, 2}));
  EXPECT_FALSE(topo.is_connected_path({0, 3}));
  EXPECT_FALSE(topo.is_connected_path({}));
}

TEST(GlobalP4Lab, MatchesFigNine) {
  const Topology topo = make_global_p4_lab();
  EXPECT_EQ(topo.node_count(), 7U);  // 5 routers + 2 hosts
  for (const char* name : {"MIA", "CHI", "CAL", "SAO", "AMS"}) {
    EXPECT_EQ(topo.node(topo.index_of(name)).kind, NodeKind::kRouter) << name;
  }
  EXPECT_EQ(topo.node(topo.index_of("host1")).kind, NodeKind::kHost);

  // The experiment-2 capacities.
  const auto cap = [&](const char* a, const char* b) {
    return topo.link(*topo.link_between(topo.index_of(a), topo.index_of(b)))
        .capacity_mbps;
  };
  EXPECT_DOUBLE_EQ(cap("MIA", "SAO"), 20.0);
  EXPECT_DOUBLE_EQ(cap("SAO", "AMS"), 20.0);
  EXPECT_DOUBLE_EQ(cap("CHI", "AMS"), 20.0);
  EXPECT_DOUBLE_EQ(cap("MIA", "CHI"), 10.0);
  EXPECT_DOUBLE_EQ(cap("MIA", "CAL"), 5.0);
  EXPECT_DOUBLE_EQ(cap("CAL", "CHI"), 5.0);

  // The transatlantic 20 ms tc delay sits on MIA-SAO.
  const auto delay = [&](const char* a, const char* b) {
    return topo.link(*topo.link_between(topo.index_of(a), topo.index_of(b)))
        .delay_ms;
  };
  EXPECT_DOUBLE_EQ(delay("MIA", "SAO"), 20.0);
  EXPECT_LT(delay("MIA", "CHI"), 20.0);

  // Tunnel 1 (MIA-SAO-AMS) is the high-latency path; tunnel 2
  // (MIA-CHI-AMS) the low-latency one -- the experiment 1 contrast.
  const Path t1 = topo.path_through({"MIA", "SAO", "AMS"});
  const Path t2 = topo.path_through({"MIA", "CHI", "AMS"});
  EXPECT_GT(topo.path_delay_ms(t1), topo.path_delay_ms(t2) + 10.0);
}

}  // namespace
}  // namespace hp::netsim
