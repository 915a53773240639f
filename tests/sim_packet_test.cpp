// Event-driven packet-level simulator tests: event-queue ordering
// (plus differential checks of the radix heap against one reference
// binary heap), every registry scenario family producing congestion
// metrics through SimRunner, bit-identical determinism across runs and
// thread counts, waypoint parity on segmented routes, and the
// single-link saturation sanity check (offered load >> capacity =>
// queue at cap, drops, utilization ~= 1).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/topology.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

TEST(EventQueue, PopsInTimeOrderWithFifoTies) {
  sim::EventQueue q;
  q.push(30, 0, 0);
  q.push(10, 0, 1);
  q.push(20, 0, 2);
  q.push(10, 0, 3);  // same tick as seq-earlier arg=1: must pop after it
  q.push(10, 0, 4);

  std::vector<std::uint32_t> order;
  std::vector<sim::Tick> times;
  while (!q.empty()) {
    const sim::Event e = q.pop();
    order.push_back(e.arg);
    times.push_back(e.at);
  }
  EXPECT_EQ(times, (std::vector<sim::Tick>{10, 10, 10, 20, 30}));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 3, 4, 2, 0}));
}

TEST(EventQueue, TwoTierMatchesSingleHeapOnSeededScripts) {
  // Reference: one std::priority_queue on (at, seq) -- the order the
  // backlog + heap merge must reproduce exactly, ties included.
  struct Later {
    bool operator()(const sim::Event& a, const sim::Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto draw = [&](std::uint64_t n) { return rng() % n; };
    sim::EventQueue q;
    std::priority_queue<sim::Event, std::vector<sim::Event>, Later> ref;
    std::uint64_t seq = 0;
    std::uint32_t arg = 0;
    const auto push = [&](sim::Tick at) {
      const auto kind = static_cast<std::uint32_t>(draw(4));
      q.push(at, kind, arg);
      ref.push(sim::Event{at, seq++, kind, arg++});
    };
    sim::Tick now = 0;
    std::size_t pushed_in_drain = 0;
    // Several batches: each is pushed while the queue is idle, then
    // drained to empty (the phased-run() shape).
    for (int batch = 0; batch < 4; ++batch) {
      // Tie-heavy ticks in a narrow window; batch 3 arrives in sorted
      // order.
      const std::size_t idle_pushes = 1 + draw(200);
      for (std::size_t i = 0; i < idle_pushes; ++i) {
        push(batch == 3 ? now + i / 4 : now + draw(32));
      }
      while (!q.empty()) {
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.top().seq, ref.top().seq);
        const sim::Event got = q.pop();
        const sim::Event want = ref.top();
        ref.pop();
        ASSERT_EQ(got.at, want.at);
        ASSERT_EQ(got.seq, want.seq);
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.arg, want.arg);
        now = got.at;
        // Pushes during the drain land on the current tick, just after
        // it, or far past it: before, on and after the backlog cursor.
        const std::uint64_t fanout = draw(3);
        for (std::uint64_t k = 0; k < fanout && seq < 20'000; ++k) {
          const sim::Tick delta =
              draw(4) == 0 ? 0 : (draw(2) == 0 ? draw(4) : draw(64));
          push(now + delta);
          ++pushed_in_drain;
        }
      }
      EXPECT_TRUE(ref.empty());
    }
    EXPECT_GT(pushed_in_drain, 0u);
  }
}

TEST(EventQueue, RadixMatchesReferenceOnWideTickRanges) {
  // Reference: one std::priority_queue on (at, seq).  The scripts span
  // every radix bucket: deltas log-uniform over 2^0..2^40, tie bursts
  // on the current tick, a pre-run batch of >= 10^4 events, drains to
  // empty between batches, and one script whose ticks cross 2^63 so
  // bucket 64 (top bit differs from the floor) holds events.
  struct Later {
    bool operator()(const sim::Event& a, const sim::Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  struct Script {
    std::uint64_t seed;
    sim::Tick start;
  };
  constexpr sim::Tick kTopBit = sim::Tick{1} << 63;
  for (const Script& script :
       {Script{11, 0}, Script{12, 0}, Script{13, 1'000'000},
        Script{14, kTopBit - (sim::Tick{1} << 30)}}) {
    SCOPED_TRACE("seed " + std::to_string(script.seed));
    std::mt19937_64 rng(script.seed);
    const auto draw = [&](std::uint64_t n) { return rng() % n; };
    // Uniform bit length 0..40, then uniform below it.
    const auto log_delta = [&]() -> sim::Tick {
      const auto bits = static_cast<int>(draw(41));
      return bits == 0 ? 0 : rng() >> (64 - bits);
    };
    sim::EventQueue q;
    std::priority_queue<sim::Event, std::vector<sim::Event>, Later> ref;
    std::uint64_t seq = 0;
    std::uint32_t arg = 0;
    const auto push = [&](sim::Tick at) {
      const auto kind = static_cast<std::uint32_t>(draw(4));
      q.push(at, kind, arg);
      ref.push(sim::Event{at, seq++, kind, arg++});
    };
    sim::Tick now = script.start;
    std::size_t tie_bursts = 0;
    bool popped_top_half = false;
    for (int batch = 0; batch < 3; ++batch) {
      const std::size_t idle = batch == 0 ? 10'000 + draw(1'000) : draw(500);
      for (std::size_t i = 0; i < idle; ++i) push(now + log_delta());
      while (!q.empty()) {
        ASSERT_EQ(q.size(), ref.size());
        ASSERT_EQ(q.top().at, ref.top().at);
        ASSERT_EQ(q.top().seq, ref.top().seq);
        const sim::Event got = q.pop();
        const sim::Event want = ref.top();
        ref.pop();
        ASSERT_EQ(got.at, want.at);
        ASSERT_EQ(got.seq, want.seq);
        ASSERT_EQ(got.kind, want.kind);
        ASSERT_EQ(got.arg, want.arg);
        now = got.at;
        popped_top_half = popped_top_half || now >= kTopBit;
        if (seq >= 40'000) continue;
        if (draw(8) == 0) {
          const std::uint64_t burst = 2 + draw(8);
          for (std::uint64_t k = 0; k < burst; ++k) push(now);
          ++tie_bursts;
        } else {
          const std::uint64_t fanout = draw(3);
          for (std::uint64_t k = 0; k < fanout; ++k) push(now + log_delta());
        }
      }
      EXPECT_TRUE(ref.empty());
    }
    EXPECT_GT(tie_bursts, 0u);
    EXPECT_EQ(popped_top_half, script.start >= kTopBit / 2);
  }
}

TEST(EventQueue, DeferredPushesMatchReferenceOnSeededScripts) {
  // take_seq() reserves a place in the (at, seq) order without pushing;
  // push_deferred() files an event there later, possibly behind
  // newer-seq events already pending on the same tick.  Reference: one
  // std::priority_queue on (at, seq).
  struct Later {
    bool operator()(const sim::Event& a, const sim::Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const auto draw = [&](std::uint64_t n) { return rng() % n; };
    sim::EventQueue q;
    std::priority_queue<sim::Event, std::vector<sim::Event>, Later> ref;
    std::vector<std::uint64_t> reserved;  // taken, not pushed yet
    std::uint32_t arg = 0;
    const auto push = [&](sim::Tick at) {
      const auto kind = static_cast<std::uint32_t>(draw(4));
      const std::uint64_t seq = q.push(at, kind, arg);
      ref.push(sim::Event{at, seq, kind, arg++});
    };
    const auto defer = [&](sim::Tick at) {
      const std::size_t i = draw(reserved.size());
      const std::uint64_t seq = reserved[i];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
      const auto kind = static_cast<std::uint32_t>(draw(4));
      q.push_deferred(at, seq, kind, arg);
      ref.push(sim::Event{at, seq, kind, arg++});
    };
    for (int i = 0; i < 64; ++i) push(draw(32));
    std::size_t ties = 0;
    std::size_t deferred = 0;
    while (!q.empty()) {
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.top().seq, ref.top().seq);
      const sim::Event got = q.pop();
      const sim::Event want = ref.top();
      ref.pop();
      ASSERT_EQ(got.at, want.at);
      ASSERT_EQ(got.seq, want.seq);
      ASSERT_EQ(got.kind, want.kind);
      ASSERT_EQ(got.arg, want.arg);
      const sim::Tick now = got.at;
      if (arg >= 20'000) continue;  // stop growing; drain
      const std::uint64_t step = draw(6);
      if (step == 0) {
        reserved.push_back(q.take_seq());
      } else if (step == 1 && !reserved.empty()) {
        // A newer-seq event first, then the deferred one on its tick.
        const sim::Tick at = now + 1 + draw(16);
        push(at);
        defer(at);
        ++ties;
        ++deferred;
      } else if (step == 2 && !reserved.empty()) {
        defer(now + 1 + draw(256));
        ++deferred;
      } else {
        const std::uint64_t fanout = draw(4);
        for (std::uint64_t k = 0; k < fanout; ++k) push(now + draw(64));
      }
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_GT(ties, 0u);
    EXPECT_GT(deferred, 100u);
  }
}

/// A small per-family spec: the registry's topology at a stream size
/// that keeps the whole suite fast.
scenario::ScenarioSpec small_spec(const scenario::ScenarioSpec& base,
                                  scenario::TrafficPattern pattern) {
  scenario::ScenarioSpec spec = base;
  spec.traffic.pattern = pattern;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

TEST(SimRunner, EveryRegistryFamilyReportsCongestionMetrics) {
  // One spec per topology family (the registry crosses each family
  // with every pattern; family coverage is what matters here).
  std::vector<const scenario::ScenarioSpec*> families;
  std::vector<scenario::TopologyFamily> seen;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    if (std::find(seen.begin(), seen.end(), spec.family) == seen.end()) {
      seen.push_back(spec.family);
      families.push_back(&spec);
    }
  }
  ASSERT_EQ(families.size(), 5u);

  for (const scenario::ScenarioSpec* base : families) {
    for (const auto pattern : {scenario::TrafficPattern::kUniformRandom,
                               scenario::TrafficPattern::kHotspot}) {
      const scenario::ScenarioSpec spec = small_spec(*base, pattern);
      SCOPED_TRACE(std::string(scenario::to_string(spec.family)) + "/" +
                   scenario::to_string(pattern));
      const sim::SimReport report = sim::run_sim_scenario(spec);

      // Every injected packet is accounted for exactly once.
      EXPECT_EQ(report.forwarding.packets + report.forwarding.dropped_packets,
                spec.traffic.packets);
      // The sim walks the same compiled routes as replay: every
      // delivered packet must egress exactly where the pair expects.
      EXPECT_EQ(report.forwarding.wrong_egress, 0u);
      EXPECT_EQ(report.forwarding.ttl_expired, 0u);
      EXPECT_GT(report.flows, 0u);
      EXPECT_GT(report.completed_flows, 0u);
      EXPECT_GT(report.fct_p50_ns(), 0u);
      EXPECT_GE(report.fct_p95_ns(), report.fct_p50_ns());
      EXPECT_GE(report.drop_rate(), 0.0);
      EXPECT_LE(report.drop_rate(), 1.0);
      EXPECT_GE(report.max_queue_depth, 1u);
      EXPECT_GT(report.max_link_utilization, 0.0);
      EXPECT_LE(report.max_link_utilization, 1.0 + 1e-9);
      EXPECT_GT(report.duration_ns, 0u);
      EXPECT_GT(report.forwarding.mod_operations,
                report.forwarding.packets);  // multi-hop routes
    }
  }
}

TEST(SimRunner, FixedSeedIsBitIdenticalAcrossRunsAndThreadCounts) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);

  sim::SimOptions options;
  const sim::SimReport first = sim::run_sim_scenario(spec, options);
  const sim::SimReport again = sim::run_sim_scenario(spec, options);
  EXPECT_EQ(first, again) << "same seed, same options: report must be "
                             "bit-identical across runs";

  // Route compilation sharded across more threads must not change a
  // single simulated outcome (the sim itself is single-threaded).
  for (const unsigned threads : {2u, 4u}) {
    sim::SimOptions threaded = options;
    threaded.compile_threads = threads;
    const sim::SimReport report = sim::run_sim_scenario(spec, threaded);
    EXPECT_EQ(first, report)
        << "compile_threads=" << threads << " changed the simulated report";
  }
}

TEST(SimRunner, RejectsZeroQueueCapacity) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);
  sim::SimOptions options;
  options.queue_capacity = 0;
  options.ecn_threshold = 0;
  EXPECT_THROW((void)sim::run_sim_scenario(spec, options),
               hp::core::ContractViolation);
}

TEST(SimRunner, RejectsEcnThresholdBeyondQueueCapacity) {
  // A mark threshold the queue can never reach silently disables ECN;
  // better a loud contract violation than a knob that does nothing.
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  const scenario::ScenarioSpec spec =
      small_spec(*base, scenario::TrafficPattern::kHotspot);
  sim::SimOptions options;
  options.queue_capacity = 32;
  options.ecn_threshold = 33;
  EXPECT_THROW((void)sim::run_sim_scenario(spec, options),
               hp::core::ContractViolation);
}

TEST(SimRunner, SegmentedRoutesSimulateWithWaypointParity) {
  // Deep ring paths outgrow one 64-bit label, so their sim walk must
  // re-label at waypoints exactly like forward_segmented does.
  scenario::ScenarioSpec spec;
  spec.name = "ring48/uniform";
  spec.family = scenario::TopologyFamily::kRing;
  spec.a = 48;
  spec.traffic.pattern = scenario::TrafficPattern::kUniformRandom;
  spec.traffic.packets = 1024;
  spec.traffic.max_pairs = 96;
  spec.traffic.seed = 3;

  const sim::SimReport report = sim::run_sim_scenario(spec);
  EXPECT_GT(report.forwarding.segmented_packets, 0u)
      << "ring48 should need multi-segment routes";
  EXPECT_GT(report.forwarding.segment_swaps, 0u);
  EXPECT_EQ(report.forwarding.wrong_egress, 0u)
      << "waypoint re-labels diverged from the compiled expectation";
  EXPECT_EQ(report.forwarding.ttl_expired, 0u);
}

TEST(SimRunner, SingleLinkSaturationFillsQueueDropsAndSaturatesWire) {
  // Two routers, one 10 Mbps duplex link; sources inject at 1000 Mbps
  // => offered load is 100x capacity.  The egress queue must grow to
  // its cap, tail-drop the excess and keep the wire ~100% busy.
  hp::netsim::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_duplex_link(a, b, /*capacity_mbps=*/10.0, /*delay_ms=*/0.1);
  scenario::BuiltFabric fabric(std::move(topo));

  scenario::TrafficParams traffic;
  traffic.pattern = scenario::TrafficPattern::kUniformRandom;
  traffic.packets = 512;
  traffic.max_pairs = 4;
  traffic.seed = 9;
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, traffic);

  sim::SimOptions options;
  options.source_rate_mbps = 1000.0;
  options.queue_capacity = 16;
  options.ecn_threshold = 8;
  options.flow_packets = 256;
  const sim::SimReport report = sim::SimRunner(options).run(fabric, stream);

  EXPECT_EQ(report.max_queue_depth, options.queue_capacity)
      << "queue should grow exactly to its cap under sustained overload";
  EXPECT_GT(report.forwarding.dropped_packets, 0u);
  EXPECT_GT(report.drop_rate(), 0.5) << "100x overload must shed most load";
  EXPECT_GT(report.max_link_utilization, 0.9)
      << "the bottleneck wire should be busy almost the whole run";
  EXPECT_LE(report.max_link_utilization, 1.0 + 1e-9);
  EXPECT_GT(report.ecn_marked, 0u);
  EXPECT_EQ(report.forwarding.wrong_egress, 0u);
}

}  // namespace
