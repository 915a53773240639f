#include "sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_bridge.hpp"
#include "obs/trace.hpp"

namespace hp::sim {

namespace {

/// Serialization delay of one packet on a link, in integer ns
/// (clamped to >= 1 so a zero/absurd capacity cannot stall time).
Tick serialize_ns(std::uint64_t packet_bytes, double capacity_mbps) {
  if (capacity_mbps <= 0.0) return 1;
  const double bits = static_cast<double>(packet_bytes) * 8.0;
  // capacity_mbps is bits per microsecond; scale to nanoseconds.
  const double ns = bits * 1000.0 / capacity_mbps;
  return ns < 1.0 ? 1 : static_cast<Tick>(std::llround(ns));
}

}  // namespace

SimReport SimRunner::run(scenario::BuiltFabric& fabric,
                         const scenario::PacketStream& stream) const {
  HP_CHECK(options_.queue_capacity > 0,
           "SimOptions: queue_capacity must be positive");
  HP_CHECK(options_.ecn_threshold <= options_.queue_capacity,
           "SimOptions: ecn_threshold beyond queue_capacity can never mark");
  const polka::CompiledFabric& fast = fabric.compiled();
  const netsim::Topology& topo = fabric.topology();
  const std::size_t n = fast.node_count();

  // Telemetry sampling needs gauges to read; when the caller asked for
  // a telemetry store but gave no registry, a private one supplies
  // them (its snapshot is simply never read).
  obs::MetricRegistry private_registry;
  const bool want_bridge =
      options_.telemetry != nullptr && options_.telemetry_period_ns > 0;
  obs::MetricRegistry* registry = options_.metrics != nullptr
                                      ? options_.metrics
                                      : (want_bridge ? &private_registry
                                                     : nullptr);
  std::optional<obs::TelemetryBridge> bridge;
  if (want_bridge) bridge.emplace(*registry, *options_.telemetry);

  // Phase timer: each emplace closes the previous phase's event and
  // opens the next (TraceScope records on destruction).
  std::optional<obs::TraceScope> phase;
  phase.emplace(options_.trace, "sim.wire", "sim");

  // --- wire the channels: one per directed router adjacency ----------
  std::vector<std::uint32_t> node_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    node_offset[i + 1] = node_offset[i] + fast.port_count(i);
  }
  std::vector<std::uint32_t> port_channel(node_offset[n],
                                          PacketSim::kNoChannel);
  std::vector<Channel> channels;
  // Directed topology pair -> channel index, so the failure schedule
  // below can take the physical wire down at the right tick.
  std::unordered_map<std::uint64_t, std::uint32_t> channel_of;
  for (std::size_t node = 0; node < n; ++node) {
    for (std::uint32_t port = 0; port < fast.port_count(node); ++port) {
      const std::uint32_t peer = fast.neighbor(node, port);
      if (peer == polka::CompiledFabric::kNoNode) continue;
      const auto link = topo.link_between(fabric.topo_index(node),
                                          fabric.topo_index(peer));
      if (!link) {
        throw std::logic_error(
            "SimRunner: fabric wiring names a link the topology lacks");
      }
      const netsim::Link& l = topo.link(*link);
      Channel ch;
      ch.latency_ns =
          static_cast<Tick>(std::llround(std::max(l.delay_ms, 0.0) * 1e6));
      ch.serialize_ns = serialize_ns(options_.packet_bytes, l.capacity_mbps);
      ch.queue_capacity = options_.queue_capacity;
      ch.ecn_threshold = options_.ecn_threshold;
      channel_of.emplace(
          netsim::node_pair_key(fabric.topo_index(node),
                                fabric.topo_index(peer)),
          static_cast<std::uint32_t>(channels.size()));
      port_channel[node_offset[node] + port] =
          static_cast<std::uint32_t>(channels.size());
      channels.push_back(ch);
    }
  }

  SimConfig config;
  config.max_hops = options_.max_hops;
  config.metrics = registry;
  config.recorder = options_.recorder;
  config.telemetry = want_bridge ? &*bridge : nullptr;
  config.telemetry_period_ns = options_.telemetry_period_ns;
  PacketSim sim(fast, std::move(channels), std::move(node_offset),
                std::move(port_channel), config);

  phase.emplace(options_.trace, "sim.schedule", "sim");

  // --- pass 1: the unsplit injection schedule -------------------------
  // A flow is up to flow_packets consecutive packets of one pair (in
  // stream emission order); flow k starts k * flow_gap_ns after t = 0
  // and its source injects back-to-back at source_rate_mbps.  The
  // per-packet ticks are computed first and reused verbatim below, so
  // the failure schedule (whose fractions map onto the last injection
  // tick) cannot perturb packet timing -- a protected and an
  // unprotected run offer the exact same load.
  const Tick src_gap =
      serialize_ns(options_.packet_bytes, options_.source_rate_mbps);
  // Only the open-loop pass 2 reads the per-packet ticks back.
  std::vector<Tick> inject_at(options_.transport.enabled ? 0 : stream.size());
  Tick last_inject = 0;
  // The same flow boundaries, recorded for the closed-loop branch: the
  // transport opens one sender per pass-1 flow (same start tick, same
  // pacing) and lets the window -- not the schedule -- decide sends.
  struct FlowDef {
    std::uint32_t lane = 0;
    std::uint32_t source = 0;
    Tick start = 0;
    std::uint32_t packets = 0;
  };
  std::vector<FlowDef> flow_defs;
  {
    constexpr auto kNoFlow = std::numeric_limits<std::size_t>::max();
    struct Cadence {
      std::size_t injected = 0;
      Tick next_inject = 0;
      std::size_t def = kNoFlow;  ///< index into flow_defs
    };
    // Lanes are dense 0..pairs.size(): index, don't hash.
    std::vector<Cadence> cadence(stream.pairs.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t lane = stream.pair[i];
      Cadence& c = cadence[lane];
      if (c.def == kNoFlow || c.injected >= options_.flow_packets) {
        const auto start =
            static_cast<Tick>(flow_defs.size()) * options_.flow_gap_ns;
        c = Cadence{0, start, flow_defs.size()};
        flow_defs.push_back({lane, stream.pairs[lane].ingress, start, 0});
      }
      if (!inject_at.empty()) inject_at[i] = c.next_inject;
      last_inject = std::max(last_inject, c.next_inject);
      ++c.injected;
      c.next_inject += src_gap;
      ++flow_defs[c.def].packets;
    }
  }

  // --- play the failure schedule against the control plane ------------
  // Each event takes the physical wires down (or up) at its tick; a
  // lane the event moved adopts its new route one control-plane
  // latency later -- switchover_latency_ns for a hitless backup swap,
  // repair_latency_ns for a recompile.  Packets the source emits before
  // the adoption tick still carry the dead route and die at the wire:
  // that gap, times the offered rate, IS the packets-lost-per-failure
  // the reports compare.  Each lane's timeline starts with its base
  // route at tick 0.
  std::vector<std::vector<RouteEpoch>> epochs(stream.pairs.size());
  for (std::uint32_t lane = 0; lane < stream.pairs.size(); ++lane) {
    const scenario::TrafficPair& pair = stream.pairs[lane];
    epochs[lane].push_back(
        {0, pair.label,
         lane < stream.seg_refs.size() ? stream.seg_refs[lane]
                                       : polka::SegmentRef{},
         pair.expected});
  }
  scenario::RouteTimeline timeline(fabric, stream, options_.failures,
                                   options_.protection_k);
  SimReport report;
  scenario::ScenarioReport& fwd = report.forwarding;
  for (const scenario::LinkFailure& failure : timeline.schedule()) {
    const Tick at = scenario::RouteTimeline::position(failure, last_inject);
    const scenario::RouteEvent ev = timeline.apply(failure);
    if (ev.report.duplicate) continue;
    for (const std::uint64_t key :
         {netsim::node_pair_key(failure.a, failure.b),
          netsim::node_pair_key(failure.b, failure.a)}) {
      if (const auto it = channel_of.find(key); it != channel_of.end()) {
        sim.schedule_link_state(at, it->second, failure.restore);
      }
    }
    fwd.window_recompiles += ev.report.window_recompiles;
    for (const scenario::LaneChange& change : ev.changes) {
      using Kind = scenario::LaneChange::Kind;
      if (change.kind == Kind::kUnroutable) ++fwd.unroutable_pairs;
      if (!change.route) continue;
      ++fwd.rerouted_pairs;
      if (change.kind == Kind::kSwap) ++fwd.backup_swapped_pairs;
      if (change.kind == Kind::kLazy) ++fwd.lazy_repaired_pairs;
      const Tick latency = change.kind == Kind::kSwap
                               ? options_.switchover_latency_ns
                               : options_.repair_latency_ns;
      const scenario::LaneRoute& route = *change.route;
      epochs[change.lane].push_back(
          {at + latency, route.label, route.ref, route.expected});
    }
  }
  // Events land in tick order but the two control-plane latencies can
  // interleave adoptions; keep each lane's timeline sorted.
  for (auto& timeline_of_lane : epochs) {
    std::ranges::stable_sort(timeline_of_lane, {}, &RouteEpoch::from);
  }
  sim.set_segment_pool(timeline.seg_labels(), timeline.seg_waypoints());

  std::optional<Transport> transport;
  if (options_.transport.enabled) {
    // --- closed loop: hand the flows to the transport ------------------
    // One transport lane per traffic pair, carrying the pair's route
    // timeline; sends resolve their epoch at the send tick, so a
    // retransmit issued after adoption carries the repaired label.
    transport.emplace(sim, options_.transport, options_.packet_bytes,
                      registry);
    std::size_t epoch_count = 0;
    for (const FlowDef& def : flow_defs) epoch_count += epochs[def.lane].size();
    transport->reserve(flow_defs.size(), stream.size(), epoch_count);
    for (std::vector<RouteEpoch>& lane : epochs) {
      (void)transport->add_lane(std::move(lane));
    }
    for (const FlowDef& def : flow_defs) {
      (void)transport->add_flow(def.lane, def.source, def.start, src_gap,
                                def.packets);
    }
    transport->arm();
  } else {
    // --- pass 2: register flows and inject ---------------------------
    // Identical to pass 1 except that a lane whose route epoch changed
    // (by adoption tick) force-opens a new flow: the new route's hop
    // count changes the delivery expectation, and a flow's expectation
    // is fixed at registration.  Forced flows keep the lane's cadence,
    // so the packet timing stays exactly pass 1's.
    constexpr auto kClosed = std::numeric_limits<std::uint32_t>::max();
    struct OpenFlow {
      std::uint32_t handle = kClosed;
      std::size_t injected = 0;
      std::size_t epoch = 0;
    };
    std::vector<OpenFlow> open(stream.pairs.size());  // lane -> open flow
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const std::uint32_t lane = stream.pair[i];
      const Tick at = inject_at[i];
      const std::size_t e = epoch_at(epochs[lane], at);
      const RouteEpoch& epoch = epochs[lane][e];
      OpenFlow& flow = open[lane];
      if (flow.handle == kClosed ||
          flow.injected >= options_.flow_packets || flow.epoch != e) {
        flow = OpenFlow{sim.add_flow(epoch.expected), 0, e};
      }
      sim.inject(at, epoch.label, epoch.ref, stream.pairs[lane].ingress,
                 flow.handle);
      ++flow.injected;
    }
  }

  phase.emplace(options_.trace, "sim.simulate", "sim");
  const SimResult result = sim.run();
  if (options_.event_counts != nullptr) {
    *options_.event_counts = sim.event_counts();
  }
  phase.emplace(options_.trace, "sim.report", "sim");

  // --- shape the result into the report -------------------------------
  // (The failover pair counts were filled in as the schedule played.)
  fwd.fold_kernel = fast.kernel();
  fwd.packets = result.counters.delivered + result.counters.ttl_expired;
  fwd.mod_operations = result.counters.mod_operations;
  fwd.wrong_egress = result.counters.wrong_egress;
  fwd.dropped_packets = result.counters.dropped;
  fwd.ttl_expired = result.counters.ttl_expired;
  fwd.segmented_packets = result.counters.segmented_packets;
  fwd.segment_swaps = result.counters.segment_swaps;
  fwd.failover_packets_lost = result.counters.failover_lost;
  report.duration_ns = result.counters.end_ns;
  // Simulated seconds (deterministic), not wall clock: see SimReport.
  fwd.seconds = static_cast<double>(report.duration_ns) * 1e-9;
  report.ecn_marked = result.counters.ecn_marked;
  obs::Histogram* fct_hist =
      registry != nullptr ? &registry->histogram("sim.fct_ns") : nullptr;
  if (transport.has_value()) {
    // Engine FlowStats count per-epoch injections (retransmits
    // included), so the logical flow facts come from the transport:
    // a flow completes when every distinct sequence arrived, and its
    // FCT spans first send to last first-copy delivery.
    report.flows = transport->flow_count();
    report.completed_flows = transport->completed_flows();
    report.transport = transport->report();
    for (const Tick fct : transport->completed_fct_ns()) {
      report.fct_ns.push_back(fct);
      if (fct_hist != nullptr) fct_hist->record(fct);
    }
  } else {
    report.flows = result.flows.size();
    for (const FlowStat& flow : result.flows) {
      if (!flow.complete()) continue;
      ++report.completed_flows;
      report.fct_ns.push_back(flow.fct_ns());
      if (fct_hist != nullptr) fct_hist->record(flow.fct_ns());
    }
  }
  if (registry != nullptr) {
    // All simulated-schedule derived, so they snapshot identically
    // across runs and thread counts like every other sim.* metric.
    registry->counter("sim.flows").add(report.flows);
    registry->counter("sim.completed_flows").add(report.completed_flows);
    if (!options_.failures.empty() || options_.protection_k > 0) {
      registry->counter("sim.failover.swaps").add(fwd.backup_swapped_pairs);
      registry->counter("sim.failover.lazy_repairs")
          .add(fwd.lazy_repaired_pairs);
      registry->counter("sim.failover.unroutable_pairs")
          .add(fwd.unroutable_pairs);
      registry->counter("sim.failover.window_recompiles")
          .add(fwd.window_recompiles);
    }
    if (transport.has_value()) {
      const TransportReport& tp = report.transport;
      registry->counter("sim.tp.sent").add(tp.packets_sent);
      registry->counter("sim.tp.retransmits").add(tp.retransmits);
      registry->counter("sim.tp.timeouts").add(tp.timeouts);
      registry->counter("sim.tp.ecn_cuts").add(tp.ecn_cwnd_cuts);
      registry->counter("sim.tp.drop_cuts").add(tp.drop_cwnd_cuts);
      registry->counter("sim.tp.spurious").add(tp.spurious_deliveries);
      registry->counter("sim.tp.abandoned_flows").add(tp.abandoned_flows);
      registry->counter("sim.tp.completed_flows").add(report.completed_flows);
    }
  }
  double util_sum = 0.0;
  std::size_t util_links = 0;
  for (const LinkStat& link : result.links) {
    report.max_queue_depth =
        std::max(report.max_queue_depth, link.max_queue_depth);
    const double util = link.utilization(report.duration_ns);
    report.max_link_utilization = std::max(report.max_link_utilization, util);
    if (link.forwarded != 0 || link.tail_drops != 0) {
      util_sum += util;
      ++util_links;
    }
  }
  if (util_links != 0) {
    report.mean_link_utilization = util_sum / static_cast<double>(util_links);
  }
  return report;
}

SimReport run_sim_scenario(const scenario::ScenarioSpec& spec,
                           const SimOptions& options) {
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.set_observability(options.metrics, options.trace);
  // Precompile every route up front (sharded across compile_threads);
  // generate_traffic then reuses the cache instead of compiling lazily.
  fabric.compile_all_pairs(options.compile_threads);
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  return SimRunner(options).run(fabric, stream);
}

}  // namespace hp::sim
