#include "sim/packet_sim.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry_bridge.hpp"
#include "sim/transport.hpp"

namespace hp::sim {

namespace {

/// Event kinds on the engine's queue.
enum EventKind : std::uint32_t {
  kArrive = 0,    ///< arg = packet slot; packet reaches its state's node
  kLinkDown = 1,  ///< arg = channel index; the wire disappears
  kLinkUp = 2,    ///< arg = channel index; the wire comes back
  kTimer = 3,     ///< arg = opaque cookie handed to Transport::on_timer
};

constexpr Tick kEndOfTime = ~Tick{0};

}  // namespace

PacketSim::PacketSim(const polka::CompiledFabric& fabric,
                     std::vector<Channel> channels,
                     std::vector<std::uint32_t> node_offset,
                     std::vector<std::uint32_t> port_channel, SimConfig config)
    : fabric_(fabric),
      channels_(std::move(channels)),
      node_offset_(std::move(node_offset)),
      port_channel_(std::move(port_channel)),
      config_(config) {
  const std::size_t n = fabric_.node_count();
  if (node_offset_.size() != n + 1 || node_offset_.front() != 0 ||
      node_offset_.back() != port_channel_.size()) {
    throw std::invalid_argument("PacketSim: node_offset shape mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (node_offset_[i] > node_offset_[i + 1] ||
        node_offset_[i + 1] - node_offset_[i] != fabric_.port_count(i)) {
      throw std::invalid_argument(
          "PacketSim: node_offset does not match the fabric's port counts");
    }
  }
  for (const std::uint32_t c : port_channel_) {
    if (c != kNoChannel && c >= channels_.size()) {
      throw std::invalid_argument("PacketSim: channel index out of range");
    }
  }
  result_.links.assign(channels_.size(), LinkStat{});
  published_links_ = result_.links;
  channel_state_.assign(channels_.size(), ChannelState{});
  std::size_t rings = 0;
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    channel_state_[ch].ring = static_cast<std::uint32_t>(rings);
    rings += channels_[ch].queue_capacity;
    if (rings >= kNoSlot) {
      throw std::invalid_argument(
          "PacketSim: channel queue capacities exceed 32-bit indexing");
    }
  }
  departures_.assign(rings, EventKey{});
  link_up_.assign(channels_.size(), 1);
  register_metrics();
}

void PacketSim::register_metrics() {
  obs::MetricRegistry* reg = config_.metrics;
  if (reg == nullptr) return;
  obs_.injected = &reg->counter("sim.injected");
  obs_.delivered = &reg->counter("sim.delivered");
  obs_.tail_drops = &reg->counter("sim.tail_drops");
  obs_.ttl_expired = &reg->counter("sim.ttl_expired");
  obs_.ecn_marked = &reg->counter("sim.ecn_marked");
  obs_.folds = &reg->counter("sim.folds");
  obs_.segment_swaps = &reg->counter("sim.segment_swaps");
  obs_.wrong_egress = &reg->counter("sim.wrong_egress");
  obs_.failover_lost = &reg->counter("sim.failover.packets_lost");
  obs_.link_events = &reg->counter("sim.failover.link_events");
  obs_.in_flight = &reg->gauge("sim.in_flight");
  obs_.queue_depth = &reg->histogram("sim.queue_depth");
  obs_.link_depth.reserve(channels_.size());
  obs_.link_drops.reserve(channels_.size());
  obs_.link_ecn.reserve(channels_.size());
  char name[48];
  for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
    // Zero-padded so the name-sorted snapshot lists links numerically.
    std::snprintf(name, sizeof(name), "sim.link.%05zu.queue_depth", ch);
    obs_.link_depth.push_back(&reg->gauge(name));
    std::snprintf(name, sizeof(name), "sim.link.%05zu.drops", ch);
    obs_.link_drops.push_back(&reg->counter(name));
    std::snprintf(name, sizeof(name), "sim.link.%05zu.ecn", ch);
    obs_.link_ecn.push_back(&reg->counter(name));
  }
}

void PacketSim::publish_gauges() {
  if (config_.metrics == nullptr) return;
  const SimCounters& c = result_.counters;
  obs_.in_flight->set(static_cast<std::int64_t>(
      c.injected - c.delivered - c.dropped - c.ttl_expired));
  for (std::size_t ch = 0; ch < channel_state_.size(); ++ch) {
    obs_.link_depth[ch]->set(channel_state_[ch].queued);
  }
}

void PacketSim::publish_counters() {
  if (config_.metrics == nullptr) return;
  const SimCounters& c = result_.counters;
  const SimCounters& p = published_;
  obs_.injected->add(c.injected - p.injected);
  obs_.delivered->add(c.delivered - p.delivered);
  obs_.tail_drops->add((c.dropped - c.failover_lost) -
                       (p.dropped - p.failover_lost));
  obs_.ttl_expired->add(c.ttl_expired - p.ttl_expired);
  obs_.ecn_marked->add(c.ecn_marked - p.ecn_marked);
  obs_.folds->add(c.mod_operations - p.mod_operations);
  obs_.segment_swaps->add(c.segment_swaps - p.segment_swaps);
  obs_.wrong_egress->add(c.wrong_egress - p.wrong_egress);
  obs_.failover_lost->add(c.failover_lost - p.failover_lost);
  obs_.link_events->add(c.link_events - p.link_events);
  for (std::size_t ch = 0; ch < result_.links.size(); ++ch) {
    const LinkStat& l = result_.links[ch];
    const LinkStat& lp = published_links_[ch];
    obs_.link_drops[ch]->add(l.tail_drops + l.failover_drops -
                             lp.tail_drops - lp.failover_drops);
    obs_.link_ecn[ch]->add(l.ecn_marks - lp.ecn_marks);
  }
  published_ = c;
  published_links_ = result_.links;
}

void PacketSim::set_segment_pool(std::span<const polka::RouteLabel> labels,
                                 std::span<const std::uint32_t> waypoints) {
  pool_labels_ = labels;
  pool_waypoints_ = waypoints;
}

void PacketSim::schedule_link_state(Tick at, std::uint32_t channel, bool up) {
  if (channel >= channels_.size()) {
    throw std::invalid_argument(
        "PacketSim::schedule_link_state: bad channel index");
  }
  queue_.push(at, up ? kLinkUp : kLinkDown, channel);
}

std::uint32_t PacketSim::add_flow(const polka::PacketResult& expected) {
  flow_expected_.push_back(expected);
  result_.flows.push_back(FlowStat{});
  return static_cast<std::uint32_t>(flow_expected_.size() - 1);
}

std::uint64_t PacketSim::schedule_timer(Tick at, std::uint32_t arg) {
  if (transport_ == nullptr) {
    throw std::logic_error("PacketSim::schedule_timer: no transport attached");
  }
  return queue_.push(at, kTimer, arg);
}

void PacketSim::schedule_deferred_timer(Tick at, std::uint64_t seq,
                                        std::uint32_t arg) {
  queue_.push_deferred(at, seq, kTimer, arg);
}

std::uint32_t PacketSim::inject(Tick at, polka::RouteLabel label,
                                polka::SegmentRef ref, std::uint32_t source,
                                std::uint32_t flow) {
  if (source >= fabric_.node_count()) {
    throw std::invalid_argument("PacketSim::inject: bad source node");
  }
  if (flow >= flow_expected_.size()) {
    throw std::invalid_argument("PacketSim::inject: unknown flow");
  }
  if (ref.label_count == 0 ||
      (ref.label_count > 1 &&
       (ref.first_label + std::size_t{ref.label_count} > pool_labels_.size() ||
        ref.first_waypoint + std::size_t{ref.label_count} - 1 >
            pool_waypoints_.size()))) {
    throw std::invalid_argument(
        "PacketSim::inject: segment ref outside the pools");
  }
  PacketState p;
  // Mirrors replay_slice's lane split: pooled labels only for genuinely
  // multi-segment routes (a default ref's first_label means nothing).
  p.label = ref.label_count > 1 ? pool_labels_[ref.first_label].bits
                                : label.bits;
  p.ref = ref;
  p.node = source;
  p.flow = flow;
  p.id = static_cast<std::uint32_t>(result_.counters.injected);
  const bool reuse = free_slot_ != kNoSlot;
  const auto index =
      reuse ? free_slot_ : static_cast<std::uint32_t>(packets_.size());
  // Pushed first: a tick before now() throws here, leaving no trace.
  queue_.push(at, kArrive, index);
  if (reuse) {
    free_slot_ = packets_[index].node;
    packets_[index] = p;
  } else {
    HP_CHECK(index != kNoSlot, "PacketSim: packets in flight exceed 32 bits");
    packets_.push_back(p);
  }
  FlowStat& fs = result_.flows[flow];
  if (fs.packets == 0 || at < fs.first_inject) fs.first_inject = at;
  ++fs.packets;
  ++result_.counters.injected;
  if (ref.label_count > 1) ++result_.counters.segmented_packets;
  return index;
}

void PacketSim::release(std::uint32_t packet) noexcept {
  packets_[packet].node = free_slot_;
  free_slot_ = packet;
}

// HP_HOT_BEGIN(event_loop)
// The discrete-event inner loop: every hop is a fold, a wiring lookup
// and O(1) queue/state updates on storage sized at wiring time (the
// channel rings included).  The loop's own code must stay growth-free
// (lint rule hot-path-purity) or event-rate throughput becomes
// allocator-bound; the only registry call per hop is the
// sim.queue_depth histogram record.  Growth that remains happens in the
// calls it makes, and each is bounded by what is in flight, not by
// what was sent: inject() takes a recycled slot and grows packets_
// only at a new in-flight peak; the transport's on_* bookkeeping grows
// its tag table with the slots and appends to its timeout log; the
// EventQueue's bucket vectors grow to their first pending peak and
// re-use that capacity afterwards.
void PacketSim::retire(std::uint32_t ch, EventKey now) {
  ChannelState& state = channel_state_[ch];
  const std::uint32_t capacity = channels_[ch].queue_capacity;
  while (state.queued > 0 && departures_[state.ring + state.head] < now) {
    state.head = state.head + 1 == capacity ? 0 : state.head + 1;
    --state.queued;
  }
}

void PacketSim::handle_arrival(Tick t, std::uint64_t seq,
                               std::uint32_t packet) {
  HP_DCHECK(packet < packets_.size(), "PacketSim: arrival for unknown packet");
  PacketState& s = packets_[packet];
  HP_DCHECK(s.node < fabric_.node_count(),
            "PacketSim: packet parked on an unknown node");
  SimCounters& c = result_.counters;
  // 1-in-N flight recording resolved once per hop; flight is a null
  // pointer for unsampled flows so every tap below is one branch.
  obs::FlightRecorder* const flight =
      config_.recorder != nullptr && config_.recorder->sampled(s.flow)
          ? config_.recorder
          : nullptr;
  // Waypoint re-label before this node's mod, exactly as the batch walk
  // kernel does (fold_kernels.hpp): a waypoint folds once like every
  // other node, just with its fresh label.
  if (s.seg + 1 < s.ref.label_count &&
      s.node == pool_waypoints_[s.ref.first_waypoint + s.seg]) {
    ++s.seg;
    s.label = pool_labels_[s.ref.first_label + s.seg].bits;
    ++c.segment_swaps;
  }
  const std::uint32_t port =
      fabric_.port_of(polka::RouteLabel{s.label}, s.node);
  ++c.mod_operations;
  ++s.hops;
  const std::uint32_t peer = fabric_.neighbor(s.node, port);
  FlowStat& fs = result_.flows[s.flow];
  // Shared delivery tail: the unwired-port and channel-less-port exits.
  const auto deliver = [&] {
    ++c.delivered;
    ++fs.delivered;
    fs.last_delivery = std::max(fs.last_delivery, t);
    const polka::PacketResult got{s.node, port, s.hops, false};
    if (got != flow_expected_[s.flow]) ++c.wrong_egress;
    if (flight != nullptr) {
      flight->record({t, s.flow, s.id, s.node, port, 0,
                      obs::HopOutcome::kDelivered});
    }
    // The callback may inject (and so move packets_): `s` is done with.
    if (transport_ != nullptr) transport_->on_delivered(t, packet);
    release(packet);
  };
  // Shared loss tail: every cause is counted by the caller first.
  const auto lose = [&](DropCause cause, std::uint32_t depth,
                        obs::HopOutcome outcome) {
    if (flight != nullptr) {
      flight->record({t, s.flow, s.id, s.node, port, depth, outcome});
    }
    if (transport_ != nullptr) transport_->on_dropped(t, packet, cause);
    release(packet);
  };
  if (peer == polka::CompiledFabric::kNoNode) {
    // Unwired port: the packet egresses here -- a delivery.
    deliver();
    return;
  }
  if (s.hops >= config_.max_hops) {
    ++c.ttl_expired;
    lose(DropCause::kTtlExpired, 0, obs::HopOutcome::kTtlExpired);
    return;
  }
  const std::uint32_t ch = port_channel_[node_offset_[s.node] + port];
  if (ch == kNoChannel) {
    // A wired fabric port the runner gave no channel (should not happen
    // on runner-built maps); treat as an egress so the walk terminates.
    deliver();
    return;
  }
  const Channel& link = channels_[ch];
  ChannelState& state = channel_state_[ch];
  LinkStat& stat = result_.links[ch];
  // The depth as of this event: departures ordered before it are gone.
  retire(ch, {t, seq});
  if (link_up_[ch] == 0) {
    // The wire is gone: nothing to queue behind, the packet is lost.
    // This is the loss window hitless failover shrinks -- packets that
    // left their source before the control plane swapped the route.
    ++c.dropped;
    ++c.failover_lost;
    ++stat.failover_drops;
    lose(DropCause::kLinkDown, state.queued, obs::HopOutcome::kLinkDown);
    return;
  }
  if (state.queued >= link.queue_capacity) {
    // Tail drop: the egress FIFO is full.
    ++c.dropped;
    ++stat.tail_drops;
    lose(DropCause::kTailDrop, state.queued, obs::HopOutcome::kTailDrop);
    return;
  }
  ++state.queued;
  stat.max_queue_depth = std::max(stat.max_queue_depth, state.queued);
  if (obs_.queue_depth != nullptr) obs_.queue_depth->record(state.queued);
  if (link.ecn_threshold != 0 && state.queued >= link.ecn_threshold) {
    ++c.ecn_marked;
    ++stat.ecn_marks;
    if (transport_ != nullptr) transport_->on_ecn(s.flow);
  }
  if (flight != nullptr) {
    flight->record({t, s.flow, s.id, s.node, port, state.queued,
                    obs::HopOutcome::kForwarded});
  }
  // FIFO serialization: the wire commits to this packet after everything
  // already queued; the departure time is known at enqueue time.
  const Tick start = std::max(t, state.free_at);
  const Tick depart = start + link.serialize_ns;
  state.free_at = depart;
  stat.busy_ns += link.serialize_ns;
  ++stat.forwarded;
  s.node = peer;
  // The departure frees its queue place at (depart, seq), ordered before
  // the downstream arrival, so a zero-latency tie still frees it first.
  std::uint32_t tail = state.head + state.queued - 1;
  if (tail >= link.queue_capacity) tail -= link.queue_capacity;
  departures_[state.ring + tail] = EventKey{depart, queue_.take_seq()};
  queue_.push(depart + link.latency_ns, kArrive, packet);
}

SimResult PacketSim::run() {
  const Tick period = config_.telemetry_period_ns;
  const bool sampling = config_.telemetry != nullptr && period > 0;
  // First boundary at one full period (a t=0 sample would only ever see
  // zeros); next_sample_ persists across run() calls so phased feeding
  // keeps one monotonic series.
  if (sampling && next_sample_ == 0) next_sample_ = period;
  while (!queue_.empty()) {
    // Simulated time never rewinds: the queue pops in (at, seq) order
    // and its push() rejects a tick before the last pop, so scheduling
    // into the past -- the exact class of bug that silently breaks
    // bit-identical replay -- throws at the call that does it.
    const Event e = queue_.pop();
    if (sampling && next_sample_ <= e.at) {
      // Sample every boundary at or before this event, *before*
      // processing it: each point is the state as of the boundary tick,
      // pinned to event order, never wall clock.  Departures can lie
      // between these boundaries, so each one retires its own.
      do {
        for (std::uint32_t ch = 0; ch < channel_state_.size(); ++ch) {
          retire(ch, {next_sample_, 0});
        }
        publish_gauges();
        config_.telemetry->sample(static_cast<double>(next_sample_) * 1e-9);
        next_sample_ += period;
      } while (next_sample_ <= e.at);
    }
    now_ = e.at;
    ++events_.popped;
    switch (e.kind) {
      case kArrive:
        ++events_.arrive;
        handle_arrival(e.at, e.seq, e.arg);
        break;
      case kLinkDown:
      case kLinkUp:
        ++events_.link;
        link_up_[e.arg] = e.kind == kLinkUp ? 1 : 0;
        ++result_.counters.link_events;
        break;
      case kTimer:
        ++events_.timer;
        HP_DCHECK(transport_ != nullptr,
                  "PacketSim: timer event with no transport attached");
        transport_->on_timer(e.at, e.seq, e.arg);
        break;
      default:
        throw std::logic_error("PacketSim: unknown event kind");
    }
  }
  // Every departure precedes its own downstream arrival: all are past.
  for (std::uint32_t ch = 0; ch < channel_state_.size(); ++ch) {
    retire(ch, {kEndOfTime, 0});
  }
  result_.counters.end_ns = now_;
  publish_counters();
  publish_gauges();
  return result_;
}
// HP_HOT_END(event_loop)

}  // namespace hp::sim
