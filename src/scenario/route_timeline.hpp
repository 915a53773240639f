#pragma once
// RouteTimeline: the control plane's reaction to a link-failure
// schedule, shared by both execution modes.
//
// Each scheduled event goes to the fabric (apply_failure or
// restore_link, then repair_pending for pairs whose whole protection
// set died) and comes back as lane changes: which traffic lane now
// carries which route, and how it got there -- a hitless backup swap,
// an in-event repair, a lazy repair, or no route left.  New segment
// lists are pooled on the timeline's one private copy of the stream's
// segment pools, so the caller's stream is never touched.
//
// What a change means is each runner's policy.  ScenarioRunner maps an
// event's fraction onto a packet index, replays up to it and rewrites
// its lane columns there; SimRunner maps it onto a tick and adopts the
// route one control-plane latency later.  The timeline keeps no clock
// and records no metrics, so both runners time and count on their own
// terms.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/traffic.hpp"

namespace hp::scenario {

/// One scheduled duplex-link event: a failure, or -- when `restore` is
/// set -- the link coming back up (flap schedules alternate the two).
struct LinkFailure {
  double at_fraction = 0.5;   ///< stream position in [0, 1); must be finite
  netsim::NodeIndex a = 0;    ///< topology endpoints of the duplex link
  netsim::NodeIndex b = 0;
  bool restore = false;       ///< true: the link comes back up
};

/// A lane's route: its first-segment label, its segment ref into the
/// timeline's pools, and the delivery it must produce.
struct LaneRoute {
  polka::RouteLabel label{};
  polka::SegmentRef ref{};
  polka::PacketResult expected{};
};

/// One traffic lane an event moved, and how: a hitless backup swap (or
/// a restore's revert), a recompile inside the event, a lazy recompile
/// by repair_pending after it, or no path left.
struct LaneChange {
  enum class Kind : std::uint8_t { kSwap, kRepair, kLazy, kUnroutable };
  std::uint32_t lane = 0;
  Kind kind = Kind::kSwap;
  /// Empty for kUnroutable, and for a pair the fabric listed but holds
  /// no compiled route for.
  std::optional<LaneRoute> route;
};

/// What one apply() did.
struct RouteEvent {
  FailoverReport report;  ///< the event's own; `duplicate` means no-op
  FailoverReport lazy;    ///< repair_pending's; empty when none pending
  /// Swaps, repairs, lazy repairs, then unroutable lanes, each in the
  /// fabric's pair order.  Pairs outside the stream are left out.
  std::vector<LaneChange> changes;
};

/// Plays a failure schedule against a fabric, lane by lane.
class RouteTimeline {
 public:
  /// Sorts `failures` stably by at_fraction and, when protection_k > 0,
  /// pre-installs that many backups per pair
  /// (BuiltFabric::enable_protection).  Throws ContractViolation when an
  /// at_fraction is NaN or infinite.  `fabric` is borrowed for the
  /// timeline's lifetime; the stream is read here only.
  RouteTimeline(BuiltFabric& fabric, const PacketStream& stream,
                std::vector<LinkFailure> failures, unsigned protection_k);

  /// The schedule in the order the runners play it.
  [[nodiscard]] const std::vector<LinkFailure>& schedule() const noexcept {
    return schedule_;
  }

  /// Where `failure` falls on a run of `length` units (packets or
  /// ticks): at_fraction clamped to [0, 1], scaled and rounded.
  [[nodiscard]] static std::uint64_t position(const LinkFailure& failure,
                                              std::uint64_t length);

  /// Apply one event to the fabric and report the lanes it moved.  A
  /// duplicate (failing a dead link, restoring a live one) changes
  /// nothing and lists no lanes.
  RouteEvent apply(const LinkFailure& failure);

  /// The pools every LaneRoute::ref slices; valid until the next
  /// apply() grows them.
  [[nodiscard]] std::span<const polka::RouteLabel> seg_labels() const {
    return seg_labels_;
  }
  [[nodiscard]] std::span<const std::uint32_t> seg_waypoints() const {
    return seg_waypoints_;
  }

 private:
  void collect(
      const std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>>& pairs,
      LaneChange::Kind kind, std::vector<LaneChange>& out);

  BuiltFabric& fabric_;
  std::vector<LinkFailure> schedule_;
  std::unordered_map<std::uint64_t, std::uint32_t> lane_of_;  ///< pair key
  std::vector<polka::RouteLabel> seg_labels_;
  std::vector<std::uint32_t> seg_waypoints_;
};

}  // namespace hp::scenario
