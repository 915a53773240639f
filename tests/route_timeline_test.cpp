// Golden report matrix for the failure-schedule player.
//
// Each cell replays (ScenarioRunner) and simulates (SimRunner) one
// registry scenario under one failure schedule, across protection_k in
// {0, 1} and, for replay, loss_window_per_recompile in {0, 3}, for the
// sim, transport off and on.  A cell's hash covers the deterministic
// report fields (those perfbench's fingerprint() covers, the sim's FCTs
// included) and the deterministic registry view (wall-clock `_ns`
// histograms dropped, as in sim_obs_test).  The hand-built "edge"
// schedule fails a link twice, restores a link that is up, fails a link
// no stream pair crosses and ends on a same-fraction tie; its replay
// also pins replay.epochs and replay.slices, so a player that dropped
// duplicate events (merging two epochs) is caught.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;
namespace obs = hp::obs;

namespace {

/// FNV-1a over 64-bit words and strings.
class Hash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte((v >> (8 * i)) & 0xffU);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(std::string_view s) {
    for (const char c : s) byte(static_cast<unsigned char>(c));
    add(static_cast<std::uint64_t>(s.size()));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(std::uint64_t b) {
    hash_ ^= b;
    hash_ *= 1099511628211ULL;
  }
  std::uint64_t hash_ = 1469598103934665603ULL;
};

void add_forwarding(Hash& h, const scenario::ScenarioReport& r) {
  for (const std::size_t v :
       {r.packets, r.mod_operations, r.wrong_egress, r.rerouted_pairs,
        r.dropped_packets, r.ttl_expired, r.segmented_packets,
        r.segment_swaps, r.backup_swapped_pairs, r.failover_packets_lost,
        r.unroutable_pairs, r.lazy_repaired_pairs, r.window_recompiles}) {
    h.add(static_cast<std::uint64_t>(v));
  }
}

/// The registry minus its wall-clock histograms (compile.*_ns,
/// replay.slice_ns, replay.failover.switchover_ns); every sim.* value is
/// simulated time and stays.
void add_registry(Hash& h, const obs::MetricRegistry& registry) {
  obs::MetricsSnapshot snap = registry.snapshot();
  std::erase_if(snap.entries, [](const obs::MetricValue& m) {
    return m.name.ends_with("_ns") && !m.name.starts_with("sim.");
  });
  h.add(std::string_view(obs::to_json(snap)));
}

/// A registry scenario at test size.  "ring20/uniform" is ring12/uniform
/// widened to 20 routers: its detours outgrow one 64-bit label, so
/// repairs pool fresh segment lists.
scenario::ScenarioSpec small_spec(std::string_view name) {
  const bool ring20 = name == "ring20/uniform";
  const scenario::ScenarioSpec* base =
      scenario::find_scenario(ring20 ? "ring12/uniform" : name);
  EXPECT_NE(base, nullptr) << name;
  scenario::ScenarioSpec spec = *base;
  if (ring20) {
    spec.name = name;
    spec.a = 20;
  }
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

/// The hand-built schedule: `hot` is the first link the stream's first
/// pair crosses, `cold` a router link no stream pair crosses.  Listed
/// out of order on purpose; the runners sort by at_fraction, stably.
std::vector<scenario::LinkFailure> edge_schedule(
    const scenario::ScenarioSpec& spec) {
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  const hp::netsim::Topology& topo = fabric.topology();
  auto undirected = [](hp::netsim::NodeIndex a, hp::netsim::NodeIndex b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  std::set<std::pair<hp::netsim::NodeIndex, hp::netsim::NodeIndex>> crossed;
  for (const scenario::TrafficPair& pair : stream.pairs) {
    const scenario::CompiledRoute* route = fabric.route(pair.src, pair.dst);
    for (const hp::netsim::LinkIndex l : route->path) {
      crossed.insert(undirected(topo.link(l).from, topo.link(l).to));
    }
  }
  const scenario::TrafficPair& first = stream.pairs.front();
  const hp::netsim::Link& hot =
      topo.link(fabric.route(first.src, first.dst)->path.front());
  auto is_router = [&](hp::netsim::NodeIndex n) {
    return topo.node(n).kind == hp::netsim::NodeKind::kRouter;
  };
  const hp::netsim::Link* cold = nullptr;
  for (std::size_t l = 0; l < topo.link_count() && cold == nullptr; ++l) {
    const hp::netsim::Link& link = topo.link(l);
    if (is_router(link.from) && is_router(link.to) &&
        !crossed.contains(undirected(link.from, link.to))) {
      cold = &link;
    }
  }
  EXPECT_NE(cold, nullptr) << spec.name << ": every router link is crossed";
  if (cold == nullptr) return {};
  const hp::netsim::Link& c = *cold;
  std::vector<scenario::LinkFailure> out;
  // A tie at 0.70: hot comes back, then cold, in list order.
  out.push_back({0.70, hot.from, hot.to, true});
  out.push_back({0.70, c.from, c.to, true});
  out.push_back({0.20, hot.from, hot.to, false});
  // Duplicate: hot is already down (named from its other end).
  out.push_back({0.30, hot.to, hot.from, false});
  // Duplicate: cold is up.
  out.push_back({0.40, c.from, c.to, true});
  out.push_back({0.50, c.from, c.to, false});
  return out;
}

enum class Schedule { kNone, kSingle, kStorm, kFlap, kSrlg, kEdge };

std::vector<scenario::LinkFailure> schedule_for(
    const scenario::ScenarioSpec& spec, Schedule schedule) {
  scenario::FailureInjectorParams inject;
  inject.seed = 3;
  switch (schedule) {
    case Schedule::kNone:
      return {};
    case Schedule::kEdge:
      return edge_schedule(spec);
    case Schedule::kSingle:
      inject.preset = scenario::FailurePreset::kSingle;
      inject.count = 2;
      break;
    case Schedule::kStorm:
      inject.preset = scenario::FailurePreset::kStorm;
      break;
    case Schedule::kFlap:
      inject.preset = scenario::FailurePreset::kFlap;
      inject.count = 2;
      break;
    case Schedule::kSrlg:
      inject.preset = scenario::FailurePreset::kSrlg;
      break;
  }
  return scenario::make_failure_schedule(scenario::build_topology(spec),
                                         inject);
}

/// Counters the edge schedule pins by value, from one replay.
struct ReplayCounts {
  std::uint64_t epochs = 0;
  std::uint64_t slices = 0;
  std::uint64_t failures = 0;
  std::uint64_t restores = 0;
};

std::uint64_t replay_hash(const scenario::ScenarioSpec& spec,
                          const std::vector<scenario::LinkFailure>& failures,
                          unsigned protection_k, std::size_t loss_window,
                          ReplayCounts* counts,
                          std::size_t* segmented = nullptr) {
  obs::MetricRegistry registry;
  scenario::RunnerOptions options;
  options.threads = 2;
  options.batch_size = 256;
  options.failures = failures;
  options.protection_k = protection_k;
  options.loss_window_per_recompile = loss_window;
  options.metrics = &registry;
  const scenario::ScenarioReport report =
      scenario::run_scenario(spec, options);
  EXPECT_EQ(report.wrong_egress, 0u);
  if (segmented != nullptr) *segmented += report.segmented_packets;
  Hash h;
  add_forwarding(h, report);
  add_registry(h, registry);
  if (counts != nullptr) {
    const obs::MetricsSnapshot snap = registry.snapshot();
    counts->epochs = snap.counter_or("replay.epochs");
    counts->slices = snap.counter_or("replay.slices");
    counts->failures = snap.counter_or("replay.failover.failures");
    counts->restores = snap.counter_or("replay.failover.restores");
  }
  return h.value();
}

std::uint64_t sim_hash(const scenario::ScenarioSpec& spec,
                       const std::vector<scenario::LinkFailure>& failures,
                       unsigned protection_k, bool transport) {
  obs::MetricRegistry registry;
  sim::SimOptions options;
  options.failures = failures;
  options.protection_k = protection_k;
  options.transport.enabled = transport;
  options.metrics = &registry;
  const sim::SimReport r = sim::run_sim_scenario(spec, options);
  EXPECT_EQ(r.forwarding.wrong_egress, 0u);
  Hash h;
  add_forwarding(h, r.forwarding);
  h.add(static_cast<std::uint64_t>(r.flows));
  h.add(static_cast<std::uint64_t>(r.completed_flows));
  h.add(static_cast<std::uint64_t>(r.ecn_marked));
  h.add(static_cast<std::uint64_t>(r.max_queue_depth));
  h.add(r.max_link_utilization);
  h.add(r.mean_link_utilization);
  h.add(static_cast<std::uint64_t>(r.duration_ns));
  h.add(static_cast<std::uint64_t>(r.fct_ns.size()));
  for (const sim::Tick t : r.fct_ns) h.add(static_cast<std::uint64_t>(t));
  const sim::TransportReport& tp = r.transport;
  for (const std::uint64_t v :
       {std::uint64_t{tp.enabled}, tp.packets_sent, tp.retransmits,
        tp.timeouts, tp.ecn_cwnd_cuts, tp.drop_cwnd_cuts,
        tp.spurious_deliveries, tp.abandoned_flows, tp.offered_bytes,
        tp.goodput_bytes}) {
    h.add(v);
  }
  add_registry(h, registry);
  return h.value();
}

struct Cell {
  const char* scenario;
  Schedule schedule;
  const char* schedule_name;
  std::uint64_t replay;  ///< over protection_k x loss_window
  std::uint64_t sim;     ///< over protection_k x transport
};

// Computed at the commit before the shared failure-schedule player,
// when ScenarioRunner::run and SimRunner::run each played the schedule
// themselves.  A change here is a behaviour change, never a refactor.
constexpr Cell kGolden[] = {
    {"torus4x4/permutation", Schedule::kNone, "none",
     0xb4fbb866c4a29507ull, 0x79bd566a76320fb5ull},
    {"torus4x4/permutation", Schedule::kSingle, "single",
     0xcbe3815cfec25861ull, 0x6d63671bb53e0041ull},
    {"torus4x4/permutation", Schedule::kStorm, "storm",
     0x78a52cc24f31553full, 0x17bdf53e45a8ea9aull},
    {"torus4x4/permutation", Schedule::kFlap, "flap",
     0xace0c52b89d53380ull, 0xa84a46d846665d47ull},
    {"torus4x4/permutation", Schedule::kSrlg, "srlg",
     0xb9b2273606835d8bull, 0xdfdfba0c8c37fa35ull},
    {"torus4x4/permutation", Schedule::kEdge, "edge",
     0x3a50ca5a78fde513ull, 0x728ed491f4ffd142ull},
    {"leaf_spine_4x8/uniform", Schedule::kNone, "none",
     0x805ea222de7510ebull, 0x5bd5773eea0e9333ull},
    {"leaf_spine_4x8/uniform", Schedule::kSingle, "single",
     0x55b6694e504f15bbull, 0x52a2938a8fed5dd9ull},
    {"leaf_spine_4x8/uniform", Schedule::kStorm, "storm",
     0xed1b69f294c5debbull, 0x7e602b4f825c9ff9ull},
    {"leaf_spine_4x8/uniform", Schedule::kFlap, "flap",
     0xf13ad30e58bd256full, 0xa1f03f69fd592ff2ull},
    {"leaf_spine_4x8/uniform", Schedule::kSrlg, "srlg",
     0x03710875ebe229e1ull, 0x42c9808928a0c498ull},
    {"leaf_spine_4x8/uniform", Schedule::kEdge, "edge",
     0x1ebcc477ae518f39ull, 0xf2c1bfd9fd629f01ull},
    {"ring20/uniform", Schedule::kNone, "none",
     0xaa61ebccf389d347ull, 0x41eacad8c6bf6024ull},
    {"ring20/uniform", Schedule::kSingle, "single",
     0x75e9e50235d02ce3ull, 0x49449fad8923f4b7ull},
    {"ring20/uniform", Schedule::kStorm, "storm",
     0xd386a4a6785bfa4full, 0xc03c90a3bfa6fb07ull},
    {"ring20/uniform", Schedule::kFlap, "flap",
     0x9c09d5774b087541ull, 0xa564448f67278762ull},
    {"ring20/uniform", Schedule::kSrlg, "srlg",
     0xab209c2f63d3c503ull, 0x3d0747273731cfdfull},
};

// ring20 has no "edge" row: every one of its links carries a stream pair.
TEST(RouteTimeline, GoldenReportMatrix) {
  std::size_t segmented = 0;
  for (const Cell& cell : kGolden) {
    SCOPED_TRACE(std::string(cell.scenario) + " / " + cell.schedule_name);
    const scenario::ScenarioSpec spec = small_spec(cell.scenario);
    const std::vector<scenario::LinkFailure> failures =
        schedule_for(spec, cell.schedule);
    EXPECT_EQ(failures.empty(), cell.schedule == Schedule::kNone);
    Hash replay;
    Hash simulated;
    for (const unsigned k : {0u, 1u}) {
      for (const std::size_t window : {std::size_t{0}, std::size_t{3}}) {
        replay.add(
            replay_hash(spec, failures, k, window, nullptr, &segmented));
      }
      for (const bool transport : {false, true}) {
        simulated.add(sim_hash(spec, failures, k, transport));
      }
    }
    EXPECT_EQ(replay.value(), cell.replay);
    EXPECT_EQ(simulated.value(), cell.sim);
  }
  EXPECT_GT(segmented, 0u) << "no repair pooled a multi-segment route";
}

TEST(RouteTimeline, EdgeScheduleSplitsEveryReplayEpoch) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/permutation");
  const std::vector<scenario::LinkFailure> failures = edge_schedule(spec);
  ASSERT_EQ(failures.size(), 6u);
  // Six events at five distinct fractions cut six replay epochs: the
  // duplicate fail at 0.30 and the no-op restore at 0.40 each end one.
  // Two workers per epoch give two slices each.
  ReplayCounts counts;
  (void)replay_hash(spec, failures, 0, 0, &counts);
  EXPECT_EQ(counts.epochs, 6u);
  EXPECT_EQ(counts.slices, 12u);
  EXPECT_EQ(counts.failures, 2u);  // duplicates are not counted
  EXPECT_EQ(counts.restores, 2u);
}

// LinkFailure is public API.  A NaN at_fraction breaks the schedule
// sort's ordering and, like +-inf, would land on an arbitrary packet
// index or tick, so the shared timeline refuses it for both runners.
std::vector<double> non_finite() {
  return {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()};
}

/// A valid event at 0.5 followed by one at `fraction`.
std::vector<scenario::LinkFailure> schedule_at(
    const hp::netsim::Topology& topo, double fraction) {
  const hp::netsim::Link& link = topo.link(0);
  return {{0.5, link.from, link.to, false},
          {fraction, link.from, link.to, true}};
}

TEST(Contracts, ReplayRejectsNonFiniteFailureFraction) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/permutation");
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  for (const double fraction : non_finite()) {
    SCOPED_TRACE(fraction);
    scenario::RunnerOptions options;
    options.failures = schedule_at(fabric.topology(), fraction);
    EXPECT_THROW((void)scenario::ScenarioRunner(options).run(fabric, stream),
                 hp::core::ContractViolation);
  }
}

TEST(Contracts, SimRejectsNonFiniteFailureFraction) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/permutation");
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);
  for (const double fraction : non_finite()) {
    SCOPED_TRACE(fraction);
    for (const bool transport : {false, true}) {
      sim::SimOptions options;
      options.transport.enabled = transport;
      options.failures = schedule_at(fabric.topology(), fraction);
      EXPECT_THROW((void)sim::SimRunner(options).run(fabric, stream),
                   hp::core::ContractViolation);
    }
  }
}

}  // namespace
