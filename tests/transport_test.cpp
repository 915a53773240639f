// Closed-loop transport tests.  The contracts under test:
//  - RTO semantics on a dead wire: exponential backoff doubling, the
//    rto_max cap, and max-retries abandonment (graceful degradation);
//  - delivery semantics on a healthy wire: the flow completes with no
//    retransmissions and full goodput;
//  - option validation (HP_CHECK contract violations), and timers
//    need an attached transport;
//  - determinism through SimRunner: fixed seed => bit-identical
//    SimReport across runs and compile_threads, with retransmits and a
//    flap failure schedule active, and the liveness invariant
//    completed_flows + abandoned_flows == flows.

#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "netsim/topology.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "sim/packet_sim.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;

namespace {

constexpr std::uint64_t kPacketBytes = 1000;

/// Two routers, one duplex 100 Mbps / 0.01 ms link, wired into a
/// PacketSim exactly as SimRunner wires channels.  `wire_down` takes
/// both directions down at tick 0, so every injection is a silent
/// failover loss and only the RTO can recover.
struct Rig {
  scenario::BuiltFabric fabric;
  std::optional<sim::PacketSim> sim;
  sim::RouteEpoch epoch;       ///< base a->b route, from = 0
  std::uint32_t source = 0;    ///< fabric index of router a
  std::size_t channel_count = 0;

  explicit Rig(bool wire_down) : fabric(make_topo()) {
    const auto& fast = fabric.compiled();
    const auto& topo = fabric.topology();
    const std::size_t n = fast.node_count();
    std::vector<std::uint32_t> node_offset(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      node_offset[i + 1] = node_offset[i] + fast.port_count(i);
    }
    std::vector<std::uint32_t> port_channel(node_offset[n],
                                            sim::PacketSim::kNoChannel);
    std::vector<sim::Channel> channels;
    for (std::size_t node = 0; node < n; ++node) {
      for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
        const std::uint32_t peer = fast.neighbor(node, port);
        if (peer == hp::polka::CompiledFabric::kNoNode) continue;
        const auto link = topo.link_between(fabric.topo_index(node),
                                            fabric.topo_index(peer));
        if (!link.has_value()) {
          throw std::logic_error("Rig: fabric wiring names a missing link");
        }
        const hp::netsim::Link& l = topo.link(*link);
        sim::Channel ch;
        ch.latency_ns = static_cast<sim::Tick>(
            std::llround(std::max(l.delay_ms, 0.0) * 1e6));
        const double bits = static_cast<double>(kPacketBytes) * 8.0;
        ch.serialize_ns =
            static_cast<sim::Tick>(std::llround(bits * 1000.0 /
                                                l.capacity_mbps));
        ch.queue_capacity = 16;
        ch.ecn_threshold = 0;  // marking off: these tests pin RTO/drop paths
        port_channel[node_offset[node] + port] =
            static_cast<std::uint32_t>(channels.size());
        channels.push_back(ch);
      }
    }
    channel_count = channels.size();
    sim.emplace(fast, std::move(channels), std::move(node_offset),
                std::move(port_channel), sim::SimConfig{});
    if (wire_down) set_wire(0, /*up=*/false);
    const scenario::CompiledRoute* route = fabric.route(0, 1);
    if (route == nullptr) {
      throw std::logic_error("Rig: a->b route failed to compile");
    }
    epoch.from = 0;
    epoch.label = route->segments.labels.front();
    epoch.ref = {};  // one hop: single label, no pooled segments
    epoch.expected = route->expected;
    source = route->ingress;
  }

  /// Take both directions of the wire down (or back up) at `at`.
  void set_wire(sim::Tick at, bool up) {
    for (std::size_t ch = 0; ch < channel_count; ++ch) {
      sim->schedule_link_state(at, static_cast<std::uint32_t>(ch), up);
    }
  }

 private:
  static hp::netsim::Topology make_topo() {
    hp::netsim::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_duplex_link(a, b, /*capacity_mbps=*/100.0, /*delay_ms=*/0.01);
    return topo;
  }
};

TEST(Transport, RtoBackoffDoublesCapsAndAbandons) {
  Rig rig(/*wire_down=*/true);
  sim::TransportOptions options;
  options.init_cwnd = 1;
  options.max_cwnd = 4;
  options.rto_min_ns = 1'000;
  options.rto_max_ns = 8'000;  // = rto_min * 2^3, so backoff hits the cap
  options.max_retries = 4;
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/1,
                    /*packets=*/1);
  tp.arm();
  (void)rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.abandoned);
  EXPECT_FALSE(view.completed);
  EXPECT_EQ(view.delivered, 0u);
  // max_retries retransmissions burn max_retries + 1 timeouts: the
  // original send and each retry all time out before the give-up.
  EXPECT_EQ(view.timeouts, options.max_retries + 1);
  // Expiries at 1000, 3000, 7000, 15000, 23000: gaps 2000, 4000 double
  // from the rto_min base, then 8000, 8000 pin the rto_max cap.
  EXPECT_EQ(view.timeout_at,
            (std::vector<sim::Tick>{1'000, 3'000, 7'000, 15'000, 23'000}));

  const sim::TransportReport& report = tp.report();
  EXPECT_EQ(report.retransmits, options.max_retries);
  EXPECT_EQ(report.timeouts, options.max_retries + 1);
  EXPECT_EQ(report.abandoned_flows, 1u);
  EXPECT_EQ(report.goodput_bytes, 0u);
  EXPECT_EQ(report.offered_bytes, kPacketBytes);
  EXPECT_EQ(tp.completed_flows(), 0u);
}

TEST(Transport, HealthyWireCompletesWithoutRetransmission) {
  Rig rig(/*wire_down=*/false);
  sim::TransportOptions options;
  options.init_cwnd = 4;
  options.max_cwnd = 8;
  options.rto_min_ns = 1'000'000;  // far above the ~90 us path RTT
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/8);
  tp.arm();
  (void)rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.completed);
  EXPECT_FALSE(view.abandoned);
  EXPECT_EQ(view.delivered, 8u);
  EXPECT_GT(view.fct_ns, 0u);
  EXPECT_EQ(view.timeouts, 0u);

  const sim::TransportReport& report = tp.report();
  EXPECT_EQ(report.packets_sent, 8u);
  EXPECT_EQ(report.retransmits, 0u);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_EQ(report.goodput_bytes, 8 * kPacketBytes);
  EXPECT_EQ(report.goodput_bytes, report.offered_bytes);
  EXPECT_EQ(tp.completed_flows(), 1u);
}

// The three ways a flow's one pending RTO wake can fire.  The Rig's
// path delivers 90 us after a send (80 us serialization + 10 us
// propagation), and the RTO floor of 200 us stays above that, so a
// timeout below always means a dead wire.

// A delivery re-arms the RTO later than the pending wake: the new
// deadline only reserves its place in the event order, and the wake,
// firing early, pushes itself again for the live deadline instead of
// expiring.  Once the flow completes, the last wake runs on to the
// latest deadline it ever armed, which is where the run ends.
TEST(Transport, EarlyWakeReschedulesForTheLiveDeadline) {
  Rig rig(/*wire_down=*/false);
  sim::TransportOptions options;
  options.init_cwnd = 1;  // one packet per RTT: a re-arm per delivery
  options.max_cwnd = 1;
  options.rto_min_ns = 200'000;
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/32);
  tp.arm();
  const sim::SimResult result = rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.completed);
  EXPECT_EQ(view.timeouts, 0u) << "an early wake was taken for an expiry";
  EXPECT_EQ(tp.report().retransmits, 0u);
  // Sequence k arrives at (k + 1) * 90 us.  The last re-arm, at the
  // delivery of sequence 30 (2,790 us), set the latest deadline,
  // 2,990 us; the completion at 2,880 us cancels nothing, so the run
  // ends there, as it did when every re-arm pushed its own timer.
  EXPECT_EQ(result.counters.end_ns, 2'990'000u);
  // One flow-open kick, 16 early wakes 180 us apart (200 .. 2,900 us)
  // and the run-on wake at 2,990 us.  A timer per arm was 33 events:
  // the kick, the first send and 31 re-arms.
  EXPECT_EQ(rig.sim->event_counts().timer, 18u);
}

// A delivery after backed-off timeouts arms a deadline earlier than
// the pending wake: it is pushed at once and fires at its own tick.
TEST(Transport, EarlierDeadlineIsPushedAndFiresOnTime) {
  Rig rig(/*wire_down=*/true);
  rig.set_wire(300'000, /*up=*/true);
  rig.set_wire(650'000, /*up=*/false);  // dead again after one delivery
  sim::TransportOptions options;
  options.init_cwnd = 1;
  options.max_cwnd = 1;
  options.rto_min_ns = 200'000;
  options.rto_max_ns = 10'000'000;
  options.max_retries = 3;
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/2);
  tp.arm();
  const sim::SimResult result = rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.abandoned);
  EXPECT_EQ(view.delivered, 1u);
  // Sequence 0 dies at 0 and 200 us; its third copy (600 us) arrives at
  // 690 us, when the backed-off wake pends at 600 + 800 = 1,400 us.
  // The delivery resets the backoff and arms 690 + 200 = 890 us, which
  // must expire there (sequence 1 died at the dead wire), not at 1,400.
  EXPECT_EQ(view.timeout_at,
            (std::vector<sim::Tick>{200'000, 600'000, 890'000, 1'290'000,
                                    2'090'000, 3'690'000}));
  EXPECT_EQ(result.counters.end_ns, 3'690'000u);
  // The kick, the six expiries, and the superseded 1,400 us wake.
  EXPECT_EQ(rig.sim->event_counts().timer, 8u);
}

// Abandonment cancels nothing: the flow's wakes run on to the latest
// deadline it ever armed, so the run ends there.
TEST(Transport, AbandonedFlowRunsOnToItsLatestDeadline) {
  Rig rig(/*wire_down=*/true);
  rig.set_wire(300'000, /*up=*/true);
  sim::TransportOptions options;
  options.init_cwnd = 2;
  options.max_cwnd = 2;
  options.rto_min_ns = 200'000;
  options.rto_max_ns = 10'000'000;
  options.max_retries = 1;
  sim::Transport tp(*rig.sim, options, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/2);
  tp.arm();
  const sim::SimResult result = rig.sim->run();

  const sim::Transport::FlowView view = tp.flow_view(0);
  EXPECT_TRUE(view.abandoned);
  EXPECT_EQ(view.delivered, 1u);
  // Both sequences die at once; the 200 us expiry resends 0 (dead
  // again), the 600 us expiry resends 1, which arrives at 690 us.  That
  // delivery arms 890 us, earlier than the 1,400 us deadline the 600 us
  // resend armed, and at 890 us sequence 0 has used its one retry: the
  // flow is abandoned.  The run still ends at 1,400 us.
  EXPECT_EQ(view.timeout_at,
            (std::vector<sim::Tick>{200'000, 600'000, 890'000}));
  EXPECT_EQ(result.counters.end_ns, 1'400'000u);
  EXPECT_EQ(rig.sim->event_counts().timer, 5u);
}

TEST(Transport, ScheduleTimerNeedsAnAttachedTransport) {
  Rig rig(/*wire_down=*/false);
  EXPECT_THROW(rig.sim->schedule_timer(0, 0), std::logic_error);
  sim::Transport tp(*rig.sim, sim::TransportOptions{}, kPacketBytes, nullptr);
  const std::uint32_t lane = tp.add_lane({rig.epoch});
  (void)tp.add_flow(lane, rig.source, /*start=*/0, /*pace_ns=*/100,
                    /*packets=*/1);
  tp.arm();  // attaches, then schedules the flow-open timer
  (void)rig.sim->run();
  EXPECT_EQ(tp.completed_flows(), 1u);
}

TEST(Transport, ConstructorRejectsIncoherentOptions) {
  Rig rig(/*wire_down=*/false);
  const auto reject = [&](sim::TransportOptions options) {
    EXPECT_THROW(
        sim::Transport(*rig.sim, options, kPacketBytes, nullptr),
        hp::core::ContractViolation);
  };
  sim::TransportOptions options;
  options.init_cwnd = 0;
  reject(options);
  options = {};
  options.max_cwnd = options.init_cwnd - 1;
  reject(options);
  options = {};
  options.rto_min_ns = 0;
  reject(options);
  options = {};
  options.rto_max_ns = options.rto_min_ns - 1;
  reject(options);
  options = {};
  options.max_retries = 0;
  reject(options);
}

/// Incast knobs aggressive enough that the closed loop must retransmit
/// (shallow queues, fast sources piling onto one hot destination) on
/// top of a flapping-link failure schedule.
sim::SimOptions closed_loop_incast_options(const scenario::ScenarioSpec& spec) {
  sim::SimOptions options;
  options.source_rate_mbps = 400.0;
  options.flow_gap_ns = 10'000;
  options.queue_capacity = 16;
  options.ecn_threshold = 12;
  options.protection_k = 1;
  options.transport.enabled = true;
  options.transport.init_cwnd = 4;
  options.transport.max_cwnd = 32;
  // Above the queueing-dominated incast RTT, so timeouts mean real
  // silent loss (dead wires), not spurious expiry.
  options.transport.rto_min_ns = 4'000'000;
  options.transport.rto_max_ns = 50'000'000;
  options.transport.max_retries = 8;

  scenario::FailureInjectorParams failures;
  failures.preset = scenario::FailurePreset::kFlap;
  failures.seed = 17;
  failures.count = 2;
  failures.mean_up_fraction = 0.15;
  failures.mean_down_fraction = 0.05;
  options.failures = scenario::make_failure_schedule(
      scenario::build_topology(spec), failures);
  return options;
}

TEST(TransportRunner, FixedSeedBitIdenticalAcrossRunsAndThreadsUnderFlap) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  scenario::ScenarioSpec spec = *base;
  spec.traffic.pattern = scenario::TrafficPattern::kHotspot;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  const sim::SimOptions options = closed_loop_incast_options(spec);

  const sim::SimReport first = sim::run_sim_scenario(spec, options);
  EXPECT_TRUE(first.transport.enabled);
  EXPECT_GT(first.transport.retransmits, 0u)
      << "incast + flap must force retransmissions for this test to bite";
  EXPECT_GT(first.transport.timeouts, 0u);
  // Liveness: every flow either delivered all its bytes or was
  // abandoned after max_retries -- nothing hangs in between.
  EXPECT_EQ(first.completed_flows + first.transport.abandoned_flows,
            first.flows);
  EXPECT_EQ(first.forwarding.wrong_egress, 0u);

  const sim::SimReport again = sim::run_sim_scenario(spec, options);
  EXPECT_EQ(first, again) << "same seed, same options: closed-loop report "
                             "must be bit-identical across runs";
  for (const unsigned threads : {2u, 4u}) {
    sim::SimOptions threaded = options;
    threaded.compile_threads = threads;
    const sim::SimReport report = sim::run_sim_scenario(spec, threaded);
    EXPECT_EQ(first, report)
        << "compile_threads=" << threads << " changed the closed-loop report";
  }
}

}  // namespace
