#pragma once
// Traffic-matrix generators: per-packet lane streams.
//
// A scenario's workload is a flat packet stream over a BuiltFabric:
// per packet, only the index of its lane -- one (src, dst) pair.  The
// route is a property of the lane, not of the packet: each lane
// carries its first-segment 64-bit label, its ingress node and its
// expected outcome, so a failover that recompiles a pair rewrites one
// lane entry however many packets the pair still has to send.  Four
// matrix shapes: uniform-random pairs, a router permutation, hotspot
// (a weighted share of traffic converging on one destination) and the
// elephant/mice FCT mix reused from netsim::workload.

#include <cstdint>
#include <vector>

#include "netsim/workload.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"

namespace hp::scenario {

enum class TrafficPattern {
  kUniformRandom,  ///< random (src, dst) pairs, packets spread evenly
  kPermutation,    ///< each router sends to one fixed partner
  kHotspot,        ///< `hotspot_weight` of traffic targets one router
  kElephantMice,   ///< netsim::workload flow sizes over random pairs
};

[[nodiscard]] const char* to_string(TrafficPattern pattern);

struct TrafficParams {
  TrafficPattern pattern = TrafficPattern::kUniformRandom;
  std::size_t packets = 1 << 14;  ///< total stream length (exact)
  std::uint64_t seed = 1;
  /// Cap on distinct (src, dst) pairs sampled by the random patterns,
  /// bounding route-compilation work on large topologies.
  std::size_t max_pairs = 2048;
  /// kHotspot: share of packets whose destination is the hot router.
  double hotspot_weight = 0.5;
  /// kElephantMice: flow arrival/size shape and the packetization MTU.
  netsim::WorkloadParams workload;
  double mtu_bytes = 1500.0;
};

/// One traffic lane: an endpoint pair and its compiled route.
struct TrafficPair {
  netsim::NodeIndex src = 0;  ///< topology index
  netsim::NodeIndex dst = 0;
  polka::PacketResult expected;  ///< egress node/port/hops for the pair
  polka::RouteLabel label;       ///< first-segment 64-bit label
  std::uint32_t ingress = 0;     ///< fabric injection node

  friend bool operator==(const TrafficPair&,
                         const TrafficPair&) noexcept = default;
};

/// A replayable packet stream: `pair` holds one lane index per packet;
/// every route fact lives on the lane.  Pairs whose route needs more
/// than one 64-bit label carry their segments in the pooled arrays
/// below (the lane's own label then duplicates the first segment);
/// seg_refs is parallel to `pairs`.
struct PacketStream {
  std::vector<std::uint32_t> pair;  ///< per packet: index into `pairs`
  std::vector<TrafficPair> pairs;
  /// Pooled multi-segment routes: seg_refs[lane] slices seg_labels /
  /// seg_waypoints; label_count == 1 means the pair is single-label.
  std::vector<polka::RouteLabel> seg_labels;
  std::vector<std::uint32_t> seg_waypoints;
  std::vector<polka::SegmentRef> seg_refs;
  /// Pairs skipped at generation time because the route has no
  /// fast-path form at all (kept for reporting; zero since segmented
  /// routes made every compiled route packable).
  std::size_t unpackable_pairs = 0;
  std::size_t unreachable_pairs = 0;

  [[nodiscard]] std::size_t size() const noexcept { return pair.size(); }
};

/// Pool a route's segment list into a pair of pooled arrays (a
/// stream's seg_labels / seg_waypoints, or a runner's private copies)
/// and return the ref describing the slice.  A single-label route pools
/// nothing and returns the default (label_count == 1) ref.  Shared by
/// stream generation and both runners' failure repair so the ref
/// layout has exactly one author.
polka::SegmentRef append_segments(std::vector<polka::RouteLabel>& labels,
                                  std::vector<std::uint32_t>& waypoints,
                                  const polka::SegmentedRoute& route);

/// Generate a packet stream over the fabric's routers.  Compiles every
/// route it uses (single-threaded; do this before sharding a replay).
/// Throws std::invalid_argument when the fabric has < 2 routers or
/// params.packets == 0.
[[nodiscard]] PacketStream generate_traffic(BuiltFabric& fabric,
                                            const TrafficParams& params);

}  // namespace hp::scenario
