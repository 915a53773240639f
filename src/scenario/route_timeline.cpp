#include "scenario/route_timeline.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace hp::scenario {

RouteTimeline::RouteTimeline(BuiltFabric& fabric, const PacketStream& stream,
                             std::vector<LinkFailure> failures,
                             unsigned protection_k)
    : fabric_(fabric),
      schedule_(std::move(failures)),
      seg_labels_(stream.seg_labels),
      seg_waypoints_(stream.seg_waypoints) {
  for (const LinkFailure& failure : schedule_) {
    // A NaN breaks the sort's ordering and passes position()'s clamp
    // unchanged (llround of NaN is unspecified); an infinite fraction
    // names no stream position either.
    HP_CHECK(std::isfinite(failure.at_fraction),
             "LinkFailure: at_fraction must be finite");
  }
  std::ranges::stable_sort(schedule_, {}, &LinkFailure::at_fraction);
  if (protection_k > 0) (void)fabric_.enable_protection(protection_k);
  // Streams intern each (src, dst) once: resolve a pair's lane by key
  // instead of per event (flap schedules fire dozens).
  for (std::uint32_t lane = 0; lane < stream.pairs.size(); ++lane) {
    lane_of_.emplace(
        netsim::node_pair_key(stream.pairs[lane].src, stream.pairs[lane].dst),
        lane);
  }
}

std::uint64_t RouteTimeline::position(const LinkFailure& failure,
                                      std::uint64_t length) {
  const double f = std::clamp(failure.at_fraction, 0.0, 1.0);
  return static_cast<std::uint64_t>(
      std::llround(f * static_cast<double>(length)));
}

void RouteTimeline::collect(
    const std::vector<std::pair<netsim::NodeIndex, netsim::NodeIndex>>& pairs,
    LaneChange::Kind kind, std::vector<LaneChange>& out) {
  for (const auto& [src, dst] : pairs) {
    const auto it = lane_of_.find(netsim::node_pair_key(src, dst));
    if (it == lane_of_.end()) continue;
    LaneChange change{it->second, kind, std::nullopt};
    if (kind != LaneChange::Kind::kUnroutable) {
      // A cache hit: the event stored the pair's new route.  A detour
      // may gain or lose segments; pool its list and point the lane at
      // it (the old slice is orphaned, harmlessly).
      const CompiledRoute* route = fabric_.route(src, dst);
      if (route != nullptr && !route->segments.labels.empty()) {
        change.route = LaneRoute{
            route->segments.labels.front(),
            append_segments(seg_labels_, seg_waypoints_, route->segments),
            route->expected};
      }
    }
    out.push_back(change);
  }
}

RouteEvent RouteTimeline::apply(const LinkFailure& failure) {
  RouteEvent ev;
  ev.report = failure.restore ? fabric_.restore_link(failure.a, failure.b)
                              : fabric_.apply_failure(failure.a, failure.b);
  // Graceful degradation: failing a dead link (or restoring a live one)
  // is a no-op, not an error -- storms hit this constantly.
  if (ev.report.duplicate) return ev;
  // Hitless swaps first, then in-event repairs, then the lazy
  // recompiler for pairs whose protection set died.
  collect(ev.report.swapped, LaneChange::Kind::kSwap, ev.changes);
  collect(ev.report.repaired, LaneChange::Kind::kRepair, ev.changes);
  if (fabric_.pending_repair_count() > 0) {
    ev.lazy = fabric_.repair_pending();
    collect(ev.lazy.repaired, LaneChange::Kind::kLazy, ev.changes);
  }
  collect(ev.report.unroutable, LaneChange::Kind::kUnroutable, ev.changes);
  collect(ev.lazy.unroutable, LaneChange::Kind::kUnroutable, ev.changes);
  return ev;
}

}  // namespace hp::scenario
