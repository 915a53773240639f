// Segment-routing throughput: deep ring/torus streams whose routes
// outgrow one 64-bit label, replayed three ways:
//
//   segmented_replay  -- multi-segment routes on the uint64 fold fast
//                        path (waypoint re-labels, zero Poly work).
//                        ring-1024 and torus-32x32: the exact regime
//                        where the seed code left the fast path.
//   single_label      -- a shallow torus whose routes all fit one
//                        label, through the same replay primitive: the
//                        throughput class segmented replay must match.
//   seed_poly_fallback -- what the seed did with oversized routes: the
//                        full-path polynomial routeID walked hop by hop
//                        through the heap-allocating scalar engines.
//
// Items processed == packets forwarded, so compare items_per_second
// across variants.  Every stream is validated (no unpackable pairs, no
// wrong egress, no hop-cap kills) and the bench aborts loudly on any
// violation instead of publishing a number for a broken replay.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "polka/forwarding.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace {

using hp::scenario::BuiltFabric;
using hp::scenario::PacketStream;

constexpr std::size_t kMaxHops = 2048;

struct Workbench {
  std::unique_ptr<BuiltFabric> built;
  PacketStream stream;
  hp::scenario::LaneRoutes lanes;  ///< the stream's per-lane routes
  std::size_t multi_segment_pairs = 0;
};

hp::netsim::Topology make_topology(const std::string& which) {
  if (which == "ring1024") return hp::scenario::make_ring(1024);
  if (which == "torus32x32") return hp::scenario::make_torus(32, 32);
  if (which == "torus8x8") return hp::scenario::make_torus(8, 8);
  throw std::invalid_argument("unknown topology " + which);
}

/// Build (once per topology) the fabric plus a uniform 16k-packet
/// stream over 64 sampled pairs.
Workbench& cached_workbench(const std::string& which) {
  static std::map<std::string, Workbench> cache;
  const auto it = cache.find(which);
  if (it != cache.end()) return it->second;

  Workbench wb;
  wb.built = std::make_unique<BuiltFabric>(make_topology(which));
  hp::scenario::TrafficParams params;
  params.pattern = hp::scenario::TrafficPattern::kUniformRandom;
  params.packets = 1 << 14;
  params.max_pairs = 64;
  params.seed = 99;
  wb.stream = hp::scenario::generate_traffic(*wb.built, params);
  if (wb.stream.unpackable_pairs != 0 || wb.stream.unreachable_pairs != 0) {
    throw std::runtime_error(which + ": stream skipped pairs");
  }
  wb.lanes = hp::scenario::LaneRoutes(wb.stream);
  for (const hp::polka::SegmentRef& ref : wb.stream.seg_refs) {
    wb.multi_segment_pairs += ref.label_count > 1;
  }
  return cache.emplace(which, std::move(wb)).first->second;
}

/// Replay the cached stream through replay_shards (the ScenarioRunner
/// primitive) and publish packets/sec.  `expect_segments` asserts the
/// topology actually exercises multi-segment routes.
void run_replay(benchmark::State& state, const std::string& which,
                bool expect_segments) {
  const Workbench& wb = cached_workbench(which);
  if (expect_segments && wb.multi_segment_pairs == 0) {
    state.SkipWithError((which + ": no multi-segment pairs").c_str());
    return;
  }
  const auto& fast = wb.built->compiled();
  const hp::scenario::LaneTable table =
      wb.lanes.table(wb.stream.seg_labels, wb.stream.seg_waypoints);
  std::size_t packets = 0;
  std::size_t mods = 0;
  for (auto _ : state) {
    const hp::scenario::ScenarioReport report = hp::scenario::replay_shards(
        fast, wb.stream.pair, table, /*threads=*/1, /*batch_size=*/1024,
        kMaxHops);
    if (report.wrong_egress != 0 || report.ttl_expired != 0) {
      state.SkipWithError((which + ": replay diverged").c_str());
      return;
    }
    packets = report.packets;
    mods += report.mod_operations;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          static_cast<std::int64_t>(state.iterations()));
  // Deep routes do hundreds of mods per packet; mods/sec is the number
  // comparable across topologies of different depth.
  state.counters["mods_per_second"] = benchmark::Counter(
      static_cast<double>(mods), benchmark::Counter::kIsRate);
  state.counters["pairs"] = static_cast<double>(wb.stream.pairs.size());
  state.counters["segmented_pairs"] =
      static_cast<double>(wb.multi_segment_pairs);
}

/// The seed's oversized-route behaviour, reconstructed: materialize the
/// full-path polynomial routeID of each multi-segment pair and walk
/// packets through PolkaFabric::forward (per-hop Poly remainders).
void run_seed_poly_fallback(benchmark::State& state, const std::string& which,
                            std::size_t packets_per_pair) {
  Workbench& wb = cached_workbench(which);
  BuiltFabric& built = *wb.built;

  std::vector<hp::polka::RouteId> routes;
  std::vector<std::size_t> firsts;
  for (std::size_t lane = 0;
       lane < wb.stream.pairs.size() && routes.size() < 8; ++lane) {
    if (wb.stream.seg_refs[lane].label_count <= 1) continue;
    const auto* route = built.route(wb.stream.pairs[lane].src,
                                    wb.stream.pairs[lane].dst);
    std::vector<std::size_t> fabric_path;
    fabric_path.push_back(route->ingress);
    for (const auto l : route->path) {
      fabric_path.push_back(
          built.fabric_index(built.topology().link(l).to));
    }
    routes.push_back(built.fabric().route_for_path(
        fabric_path, built.egress_port(fabric_path.back())));
    firsts.push_back(fabric_path.front());
  }
  if (routes.empty()) {
    state.SkipWithError((which + ": no multi-segment pairs").c_str());
    return;
  }

  std::size_t packets = 0;
  for (auto _ : state) {
    packets = 0;
    for (std::size_t r = 0; r < routes.size(); ++r) {
      for (std::size_t p = 0; p < packets_per_pair; ++p) {
        const auto trace =
            built.fabric().forward(routes[r], firsts[r], kMaxHops);
        benchmark::DoNotOptimize(trace.mod_operations);
        ++packets;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          static_cast<std::int64_t>(state.iterations()));
  state.counters["pairs"] = static_cast<double>(routes.size());
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string which : {"ring1024", "torus32x32"}) {
    benchmark::RegisterBenchmark(
        ("segmented_replay/" + which).c_str(),
        [which](benchmark::State& s) { run_replay(s, which, true); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("seed_poly_fallback/" + which).c_str(),
        [which](benchmark::State& s) { run_seed_poly_fallback(s, which, 64); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "single_label/torus8x8",
      [](benchmark::State& s) { run_replay(s, "torus8x8", false); })
      ->Unit(benchmark::kMillisecond);
  return hp::benchjson::run_and_export(argc, argv, "segment_routes");
}
