#pragma once
// Event-driven packet-level data plane over a CompiledFabric.
//
// Replay (scenario/runner.hpp) measures pure forwarding throughput:
// every packet walks its whole route in one go, so queueing, latency
// and loss are invisible.  PacketSim adds the missing time axis while
// keeping the exact same forwarding decisions: at every hop the packet
// folds its label through CompiledFabric::port_of (the PCLMUL Barrett
// or slice-by-8 table kernel, whichever the fabric runs) and moves to
// CompiledFabric::neighbor(node, port) -- the hop sequence is
// bit-identical to forward_one / forward_segmented, including waypoint
// re-labels on multi-segment routes.
//
// The timing model is classic store-and-forward output queueing, in
// the style of hansungk/netsim's Sim { EventQueue, Router, Channel,
// Stat }:
//
//  * each directed router adjacency is a Channel with a propagation
//    latency and a per-packet serialization delay (wire size over link
//    bandwidth);
//  * the channel's upstream side is a finite FIFO egress queue: a
//    packet routed onto a busy channel waits behind the packets
//    already committed; arriving at a full queue is a tail drop, and
//    an enqueue at or above `ecn_threshold` is an ECN mark;
//  * per-flow and per-link Stat accumulate delivery times (FCT),
//    queue-depth high-water marks, drops/marks and busy time (link
//    utilization).
//
// Time is integer nanoseconds on an EventQueue (event_queue.hpp): a
// monotone radix heap on the event tick that pops ties in (at, seq)
// order.  Processing is single-threaded and the tie order is pinned, so
// a fixed input schedule produces a bit-identical SimResult on every
// run.
//
// The queue holds three kinds of event: a packet arriving at a node, a
// link going down or up, and a transport timer.  The hot state is
// sized by what is in flight, not by what was sent:
//
//  * a channel queue has no drain event.  Each enqueue writes the
//    packet's (depart tick, seq) into the channel's ring -- one flat
//    array of rings sized by the channels' queue capacities -- taking
//    the seq a pushed drain would have taken.  The queue depth is the
//    ring's occupancy, and the entries ordered before the current
//    event are retired just before the depth is read: at an enqueue,
//    at each telemetry boundary and at the end of run();
//  * a packet's slot is recycled once the packet ends (delivered,
//    dropped or TTL-expired), after the transport callback returns;
//    slots are the handles the transport is called back with, and the
//    flight recorder gets the monotone injection id instead.
//
// The engine owns its stats and calls its components directly: the
// plain SimCounters / LinkStat / queue state are the only record (the
// metric registry receives them at publish points, see SimConfig), and
// a closed-loop Transport attached with attach() gets its feedback as
// plain member calls.

#include <cstdint>
#include <span>
#include <vector>

#include "polka/fastpath.hpp"
#include "polka/label.hpp"
#include "sim/event_queue.hpp"

namespace hp::obs {
class Counter;
class Gauge;
class Histogram;
class MetricRegistry;
class FlightRecorder;
class TelemetryBridge;
}  // namespace hp::obs

namespace hp::sim {

class Transport;

/// One directed channel: the timing constants of a router-to-router
/// link plus the bounds of its upstream egress queue.
struct Channel {
  Tick latency_ns = 0;    ///< propagation delay
  Tick serialize_ns = 1;  ///< transmission time of one packet
  std::uint32_t queue_capacity = 64;  ///< packets queued or in service
  std::uint32_t ecn_threshold = 48;   ///< mark at/above this depth; 0 = off
};

/// Per-channel accumulated statistics.
struct LinkStat {
  std::uint64_t forwarded = 0;   ///< packets serialized onto the wire
  std::uint64_t tail_drops = 0;  ///< arrivals at a full egress queue
  std::uint64_t failover_drops = 0;  ///< arrivals while the link was down
  std::uint64_t ecn_marks = 0;   ///< enqueues at/above the ECN threshold
  std::uint32_t max_queue_depth = 0;  ///< high-water mark (packets)
  Tick busy_ns = 0;  ///< total time the wire was serializing

  /// Fraction of `duration` the wire was busy (0 when duration == 0).
  [[nodiscard]] double utilization(Tick duration) const noexcept {
    return duration == 0 ? 0.0
                         : static_cast<double>(busy_ns) /
                               static_cast<double>(duration);
  }

  friend bool operator==(const LinkStat&, const LinkStat&) noexcept = default;
};

/// Per-flow accumulated statistics.  A flow is complete when every one
/// of its packets was delivered; its FCT is last delivery - first
/// injection.
struct FlowStat {
  std::uint32_t packets = 0;    ///< injected so far
  std::uint32_t delivered = 0;
  Tick first_inject = 0;
  Tick last_delivery = 0;

  [[nodiscard]] bool complete() const noexcept {
    return packets > 0 && delivered == packets;
  }
  [[nodiscard]] Tick fct_ns() const noexcept {
    return complete() ? last_delivery - first_inject : 0;
  }

  friend bool operator==(const FlowStat&, const FlowStat&) noexcept = default;
};

/// Why a packet left the simulation without being delivered.  An
/// attached Transport receives the cause so it can distinguish
/// congestion feedback (a tail drop is reported backwards, like a
/// lossless-fabric NACK) from silent losses (a dead wire or a TTL kill
/// gives the sender nothing -- only its retransmission timer notices).
enum class DropCause : std::uint32_t {
  kTailDrop,    ///< egress FIFO full
  kLinkDown,    ///< routed onto a failed channel
  kTtlExpired,  ///< hop cap reached
};

/// Engine-wide knobs.
struct SimConfig {
  std::size_t max_hops = 64;  ///< same hop cap as the replay walks
  /// Observability taps, all optional (borrowed; must outlive run()).
  /// With `metrics` set the engine registers sim.* counters, the
  /// sim.queue_depth histogram and one sim.link.NNNNN.queue_depth gauge
  /// (plus .drops/.ecn counters) per channel at construction.  The
  /// histogram is recorded per enqueue; everything else is published
  /// from the engine's own state: counters add their delta since the
  /// previous publish at the end of each run() (so phased runs and
  /// registries shared across engines still sum), gauges are set at
  /// every telemetry boundary and at the end of run().  Everything
  /// derives from simulated ticks and event order -- never wall clock
  /// -- so a fixed-seed run snapshots bit-identically.
  obs::MetricRegistry* metrics = nullptr;
  /// Hop-level ring for 1-in-N flows (see obs/flight_recorder.hpp).
  obs::FlightRecorder* recorder = nullptr;
  /// Sampled on simulated-tick boundaries: every `telemetry_period_ns`
  /// the engine sets its gauges and appends each registry gauge to the
  /// bridge's store at t = tick * 1e-9 s, *before* processing any event
  /// at or past the boundary.  0 disables sampling.
  obs::TelemetryBridge* telemetry = nullptr;
  Tick telemetry_period_ns = 0;
};

/// Events popped by run(), by kind: a diagnostic record kept in plain
/// engine state and never published to a registry.
struct SimEventCounts {
  std::uint64_t popped = 0;  ///< every event
  std::uint64_t arrive = 0;  ///< packet arrivals: one per hop walked
  std::uint64_t timer = 0;   ///< transport timers (flow opens, RTO wakes)
  std::uint64_t link = 0;    ///< link down + link up

  friend bool operator==(const SimEventCounts&,
                         const SimEventCounts&) noexcept = default;
};

/// Merged outcome of one PacketSim::run().
struct SimCounters {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;        ///< tail + failover drops
  std::size_t failover_lost = 0;  ///< of `dropped`: arrivals at a dead link
  std::size_t link_events = 0;    ///< link-down + link-up events processed
  std::size_t ttl_expired = 0;
  std::size_t wrong_egress = 0;   ///< delivery diverged from expectation
  std::size_t mod_operations = 0; ///< label folds == hops walked
  std::size_t ecn_marked = 0;
  std::size_t segmented_packets = 0;  ///< injected with > 1 segment label
  std::size_t segment_swaps = 0;      ///< waypoint re-labels performed
  Tick end_ns = 0;  ///< time of the last processed event

  friend bool operator==(const SimCounters&, const SimCounters&) noexcept =
      default;
};

struct SimResult {
  SimCounters counters;
  std::vector<LinkStat> links;  ///< one per channel
  std::vector<FlowStat> flows;  ///< one per registered flow

  friend bool operator==(const SimResult&, const SimResult&) = default;
};

/// The event-driven engine.  Wire it (channels + the per-port channel
/// map), register flows, inject packets, then run() to drain the event
/// queue.  `fabric` and the pooled segment arrays are borrowed and must
/// outlive run().  Time never rewinds: inject(), schedule_timer() and
/// schedule_link_state() at a tick before now() throw
/// core::ContractViolation (the event queue's push check).
class PacketSim {
 public:
  /// Marks a fabric port with no channel behind it (an egress port).
  static constexpr std::uint32_t kNoChannel = 0xFFFFFFFFu;
  /// Ends the free-slot list.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// \param fabric compiled data plane whose kernels make every
  ///   forwarding decision
  /// \param channels one entry per directed router adjacency
  /// \param node_offset size node_count() + 1: node n's ports map
  ///   through port_channel[node_offset[n] .. node_offset[n + 1])
  /// \param port_channel flattened port -> channel map (kNoChannel on
  ///   egress ports); a packet folded onto port p at node n departs on
  ///   channel port_channel[node_offset[n] + p]
  /// Throws std::invalid_argument when the map shape does not match the
  /// fabric or a channel index is out of range.
  PacketSim(const polka::CompiledFabric& fabric, std::vector<Channel> channels,
            std::vector<std::uint32_t> node_offset,
            std::vector<std::uint32_t> port_channel, SimConfig config = {});

  /// Attach the pooled multi-segment label/waypoint arrays that
  /// injected SegmentRefs index (same layout as scenario::PacketStream
  /// seg_labels/seg_waypoints).  Unnecessary when every injection is
  /// single-label.
  void set_segment_pool(std::span<const polka::RouteLabel> labels,
                        std::span<const std::uint32_t> waypoints);

  /// Register a flow; delivered packets are checked against
  /// `expected` (the pair's replay expectation) and divergences count
  /// as wrong_egress.  Returns the flow handle inject() takes.
  std::uint32_t add_flow(const polka::PacketResult& expected);

  /// Schedule one packet: injected at fabric node `source` at time
  /// `at`, carrying `label` (or, when ref.label_count > 1, the pooled
  /// segment list `ref` names -- the first pooled label must equal
  /// `label`, exactly as in a PacketStream).  Returns the packet's
  /// slot (the handle the attached Transport is called back with); the
  /// slot is recycled once the packet ends, so a handle names one
  /// packet only while that packet is in flight.  Safe to call while
  /// run() drains, which is how the transport injects every send.
  /// Throws std::invalid_argument on a bad source, flow or ref.
  std::uint32_t inject(Tick at, polka::RouteLabel label, polka::SegmentRef ref,
                       std::uint32_t source, std::uint32_t flow);

  /// Attach the closed-loop transport (borrowed; must outlive run()).
  /// From then on the engine calls it once per delivered packet, per
  /// lost packet (with its cause), per ECN mark and per timer event.
  /// Transport::arm() does this.
  void attach(Transport& transport) noexcept { transport_ = &transport; }

  /// Schedule a timer event at simulated time `at`; when it fires the
  /// engine calls the attached transport's on_timer(at, seq, arg).
  /// Returns `seq`, the event's place among same-tick events.  The
  /// queue never cancels, so the transport keeps at most one timer
  /// pending per flow and recognises the one that matters by its
  /// (tick, seq).  Throws std::logic_error when no transport is
  /// attached.
  std::uint64_t schedule_timer(Tick at, std::uint32_t arg);

  /// Reserve the seq a timer scheduled now would take, without
  /// scheduling it (see schedule_deferred_timer).
  std::uint64_t reserve_timer_seq() noexcept { return queue_.take_seq(); }

  /// Schedule a timer under a seq reserved earlier, so it fires where a
  /// timer scheduled at reservation time would have.  `at` must be
  /// strictly after now() (core::ContractViolation otherwise).
  void schedule_deferred_timer(Tick at, std::uint64_t seq, std::uint32_t arg);

  /// Schedule the directed channel to go down (up = false) or come
  /// back (up = true) at simulated time `at`.  While a channel is
  /// down, every packet routed onto it is dropped and counted as
  /// failover loss (the wire is gone -- no queueing, no ECN).  Packets
  /// already committed to the wire before `at` still arrive: failing a
  /// link does not destroy in-flight serializations.  Throws
  /// std::invalid_argument on a bad channel index.
  void schedule_link_state(Tick at, std::uint32_t channel, bool up);

  /// Process every pending event; returns the accumulated result.
  /// Resets nothing: a second run() continues from the drained state
  /// (inject more first), which is how arrival schedules can be fed in
  /// phases.
  SimResult run();

  [[nodiscard]] Tick now() const noexcept { return now_; }

  /// Events popped so far, by kind (diagnostic).
  [[nodiscard]] const SimEventCounts& event_counts() const noexcept {
    return events_;
  }

 private:
  /// One packet slot.  A free slot links the free list through `node`.
  struct PacketState {
    std::uint64_t label = 0;     ///< active segment's bits
    polka::SegmentRef ref{};     ///< pooled segments (label_count > 1)
    std::uint32_t seg = 0;       ///< active segment index
    std::uint32_t node = 0;      ///< current / next-arrival node
    std::uint32_t hops = 0;
    std::uint32_t flow = 0;
    std::uint32_t id = 0;        ///< injection order (flight records)
  };
  // The id fills what was padding: a slot stays 40 bytes.
  static_assert(sizeof(PacketState) == 40);

  struct ChannelState {
    std::uint32_t queued = 0;  ///< ring occupancy: waiting + in service
    std::uint32_t head = 0;    ///< ring index of the oldest departure
    std::uint32_t ring = 0;    ///< offset of the ring in departures_
    Tick free_at = 0;          ///< when the wire finishes its last commit
  };

  /// Metric handles resolved once at construction (all null when
  /// config_.metrics is null).
  struct ObsHandles {
    obs::Counter* injected = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* tail_drops = nullptr;
    obs::Counter* ttl_expired = nullptr;
    obs::Counter* ecn_marked = nullptr;
    obs::Counter* folds = nullptr;
    obs::Counter* segment_swaps = nullptr;
    obs::Counter* wrong_egress = nullptr;
    obs::Counter* failover_lost = nullptr;
    obs::Counter* link_events = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Histogram* queue_depth = nullptr;
    std::vector<obs::Gauge*> link_depth;     ///< one per channel
    std::vector<obs::Counter*> link_drops;   ///< one per channel
    std::vector<obs::Counter*> link_ecn;     ///< one per channel
  };

  void register_metrics();
  void handle_arrival(Tick t, std::uint64_t seq, std::uint32_t packet);
  /// Retire the channel's departures ordered before `now`.
  void retire(std::uint32_t ch, EventKey now);
  /// Return an ended packet's slot to the free list.
  void release(std::uint32_t packet) noexcept;
  /// Set the gauges to the engine's current state.
  void publish_gauges();
  /// Add every counter's growth since the previous publish.
  void publish_counters();

  const polka::CompiledFabric& fabric_;
  std::vector<Channel> channels_;
  std::vector<std::uint32_t> node_offset_;
  std::vector<std::uint32_t> port_channel_;
  SimConfig config_;
  std::span<const polka::RouteLabel> pool_labels_;
  std::span<const std::uint32_t> pool_waypoints_;
  std::vector<polka::PacketResult> flow_expected_;
  std::vector<PacketState> packets_;
  std::uint32_t free_slot_ = kNoSlot;  ///< head of the free-slot list
  std::vector<ChannelState> channel_state_;
  /// Every channel's ring of departures: each packet committed to the
  /// channel, keyed where its dequeue falls in the event order.
  std::vector<EventKey> departures_;
  std::vector<char> link_up_;  ///< per channel: 1 while the wire exists
  EventQueue queue_;
  Tick now_ = 0;
  Tick next_sample_ = 0;  ///< next telemetry-bridge tick boundary
  SimResult result_;
  Transport* transport_ = nullptr;
  SimEventCounts events_;
  ObsHandles obs_;
  SimCounters published_;                  ///< counters at the last publish
  std::vector<LinkStat> published_links_;  ///< links at the last publish
};

}  // namespace hp::sim
