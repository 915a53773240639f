// Contract-macro semantics (core/contracts.hpp) and the enforcement
// points wired into the protection and event-queue layers.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/topology.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/protection.hpp"
#include "sim/event_queue.hpp"
#include "sim/packet_sim.hpp"

namespace hp {
namespace {

TEST(Contracts, CheckPassesSilently) {
  int evaluations = 0;
  EXPECT_NO_THROW(HP_CHECK(++evaluations == 1, "must hold"));
  EXPECT_EQ(evaluations, 1);  // condition evaluated exactly once
}

TEST(Contracts, CheckThrowsContractViolationWithContext) {
  try {
    HP_CHECK(1 + 1 == 3, "arithmetic drifted");
    FAIL() << "HP_CHECK(false) did not throw";
  } catch (const core::ContractViolation& e) {
    const std::string what = e.what();
    // The message carries the caller's explanation, the stringized
    // expression, and the source location -- enough to act on from a
    // CI log alone.
    EXPECT_NE(what.find("arithmetic drifted"), std::string::npos) << what;
    EXPECT_NE(what.find("1 + 1 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("core_contracts_test.cpp"), std::string::npos) << what;
  }
}

TEST(Contracts, ContractViolationIsALogicError) {
  // Catchable as std::logic_error: contract breaks are programming
  // errors, not runtime conditions callers should route around.
  EXPECT_THROW(HP_CHECK(false, "x"), std::logic_error);
}

TEST(Contracts, DcheckCompilesOutUnderNdebugButStillParses) {
  int evaluations = 0;
  HP_DCHECK(++evaluations >= 0, "side effect probe");
#if defined(NDEBUG) && !defined(HP_FORCE_DCHECKS)
  EXPECT_EQ(evaluations, 0);  // release: condition not evaluated
#else
  EXPECT_EQ(evaluations, 1);  // debug: full HP_CHECK semantics
  EXPECT_THROW(HP_DCHECK(false, "x"), core::ContractViolation);
#endif
}

TEST(Contracts, BackupInstallRejectsUnroutableRoutes) {
  // The protection plane copies backup fields straight into the live
  // route table on failover; contracts catch a malformed install at
  // install time instead of surfacing packets later.
  scenario::BackupTable table;
  scenario::BackupRoute no_labels;
  no_labels.path = {0, 1};
  EXPECT_THROW(table.install(7, {no_labels}), core::ContractViolation);

  scenario::BackupRoute no_path;
  no_path.segments.labels = {polka::RouteLabel{42}};
  EXPECT_THROW(table.install(7, {no_path}), core::ContractViolation);
  EXPECT_EQ(table.pair_count(), 0u);

  scenario::BackupRoute ok;
  ok.segments.labels = {polka::RouteLabel{42}};
  ok.path = {0, 1};
  EXPECT_NO_THROW(table.install(7, {ok}));
  EXPECT_EQ(table.pair_count(), 1u);
}

// Always on, Release included: a push before the queue's floor would
// be filed in the wrong radix bucket and silently reorder events.
TEST(Contracts, EventQueueRejectsPushIntoThePast) {
  sim::EventQueue q;
  q.push(10, 0, 0);
  EXPECT_EQ(q.pop().at, 10u);
  EXPECT_THROW(q.push(9, 0, 1), core::ContractViolation);
  EXPECT_TRUE(q.empty());
  EXPECT_NO_THROW(q.push(10, 0, 2));  // the floor tick itself is fine

  // top() refills, which raises the floor to the earliest pending tick.
  sim::EventQueue r;
  r.push(20, 0, 0);
  r.push(30, 0, 1);
  EXPECT_EQ(r.top().at, 20u);
  EXPECT_THROW(r.push(15, 0, 2), core::ContractViolation);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_NO_THROW(r.push(20, 0, 3));
  EXPECT_EQ(r.pop().arg, 0u);
  EXPECT_EQ(r.pop().arg, 3u);
  EXPECT_EQ(r.pop().arg, 1u);
}

// Always on, Release included: a deferred event takes its place among
// same-tick events by an older seq, so one filed on the floor tick --
// whose events are already being popped -- would pop out of order.
TEST(Contracts, EventQueueRejectsDeferredPushAtOrBeforeTheFloor) {
  sim::EventQueue q;
  const std::uint64_t early = q.take_seq();
  q.push(10, 0, 0);
  EXPECT_EQ(q.pop().at, 10u);
  EXPECT_THROW(q.push_deferred(10, early, 0, 1), core::ContractViolation);
  EXPECT_THROW(q.push_deferred(9, early, 0, 1), core::ContractViolation);
  EXPECT_TRUE(q.empty());
  // Strictly after the floor it is accepted, and it pops ahead of a
  // newer-seq event pushed on the same tick before it.
  q.push(11, 0, 2);
  EXPECT_NO_THROW(q.push_deferred(11, early, 0, 3));
  EXPECT_EQ(q.pop().arg, 3u);
  EXPECT_EQ(q.pop().arg, 2u);
}

TEST(Contracts, PacketSimRejectsInjectBeforeNow) {
  netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
  const scenario::BuiltFabric fabric(std::move(topo));
  const polka::CompiledFabric& fast = fabric.compiled();
  const std::size_t n = fast.node_count();
  // No channels: every port is an egress, so a packet delivers at once.
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_offset[i + 1] = node_offset[i] + fast.port_count(i);
  }
  std::vector<std::uint32_t> port_channel(node_offset[n],
                                          sim::PacketSim::kNoChannel);
  sim::PacketSim ps(fast, {}, std::move(node_offset), std::move(port_channel));
  const std::uint32_t flow = ps.add_flow(polka::PacketResult{});
  ps.inject(10, polka::RouteLabel{1}, polka::SegmentRef{}, 0, flow);
  ASSERT_EQ(ps.run().counters.injected, 1u);
  ASSERT_EQ(ps.now(), 10u);
  EXPECT_THROW(ps.inject(9, polka::RouteLabel{1}, polka::SegmentRef{}, 0, flow),
               core::ContractViolation);
  // The rejected packet left no trace; one at now() is still accepted.
  EXPECT_NO_THROW(
      ps.inject(10, polka::RouteLabel{1}, polka::SegmentRef{}, 0, flow));
  EXPECT_EQ(ps.run().counters.injected, 2u);
}

#if !defined(NDEBUG) || defined(HP_FORCE_DCHECKS)
TEST(Contracts, EventQueueGuardsEmptyTopAndPop) {
  sim::EventQueue q;
  EXPECT_THROW((void)q.top(), core::ContractViolation);
  EXPECT_THROW(q.pop(), core::ContractViolation);
}
#endif

}  // namespace
}  // namespace hp
