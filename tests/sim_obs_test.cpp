// Observability-through-the-simulator tests: registry counters agree
// with the SimReport, snapshots and flight recordings are bit-identical
// for a fixed seed across runs and compile thread counts, phase traces
// appear, the telemetry bridge writes deterministic gauge series on
// simulated ticks, and replay metrics mirror ScenarioReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"
#include "telemetry/store.hpp"

namespace scenario = hp::scenario;
namespace sim = hp::sim;
namespace obs = hp::obs;

namespace {

scenario::ScenarioSpec small_spec(const char* name) {
  const scenario::ScenarioSpec* base = scenario::find_scenario(name);
  EXPECT_NE(base, nullptr) << name;
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = 2048;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  return spec;
}

TEST(SimObservability, CountersAgreeWithReport) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
  obs::MetricRegistry registry;
  sim::SimOptions options;
  options.metrics = &registry;
  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  const obs::MetricsSnapshot snap = registry.snapshot();

  EXPECT_EQ(snap.counter_or("sim.injected"),
            report.forwarding.packets + report.forwarding.dropped_packets);
  EXPECT_EQ(snap.counter_or("sim.tail_drops"),
            report.forwarding.dropped_packets);
  EXPECT_EQ(snap.counter_or("sim.ttl_expired"),
            report.forwarding.ttl_expired);
  EXPECT_EQ(snap.counter_or("sim.ecn_marked"), report.ecn_marked);
  EXPECT_EQ(snap.counter_or("sim.folds"), report.forwarding.mod_operations);
  EXPECT_EQ(snap.counter_or("sim.wrong_egress"),
            report.forwarding.wrong_egress);
  EXPECT_EQ(snap.counter_or("sim.flows"), report.flows);
  EXPECT_EQ(snap.counter_or("sim.completed_flows"), report.completed_flows);
  // Every in-flight packet terminated one way or another.
  const obs::MetricValue* in_flight = snap.find("sim.in_flight");
  ASSERT_NE(in_flight, nullptr);
  EXPECT_EQ(in_flight->gauge, 0);
  // One FCT histogram sample per completed flow.
  const obs::MetricValue* fct = snap.find("sim.fct_ns");
  ASSERT_NE(fct, nullptr);
  EXPECT_EQ(fct->histogram.count, report.completed_flows);
  // Compile metrics flowed through the fabric the runner compiled.
  EXPECT_GT(snap.counter_or("compile.routes"), 0u);
}

// Everything derived from simulated ticks is deterministic; the only
// wall-clock values in the registry are the compile/replay phase
// timing histograms (compile.*_ns, replay.slice_ns).  Drop those to
// get the view the bit-identical guarantee covers.  sim.fct_ns stays:
// flow completion times are simulated time.
obs::MetricsSnapshot deterministic_view(obs::MetricsSnapshot snap) {
  std::erase_if(snap.entries, [](const obs::MetricValue& m) {
    return m.name.ends_with("_ns") && !m.name.starts_with("sim.");
  });
  return snap;
}

TEST(SimObservability, SnapshotBitIdenticalAcrossRunsAndThreads) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto snapshot_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    (void)sim::run_sim_scenario(spec, options);
    return deterministic_view(registry.snapshot());
  };

  const obs::MetricsSnapshot first = snapshot_with_threads(1);
  EXPECT_FALSE(first.entries.empty());
  EXPECT_EQ(first, snapshot_with_threads(1))
      << "same seed, same options: snapshot must be bit-identical";
  EXPECT_EQ(first, snapshot_with_threads(4))
      << "compile threading must not leak into sim metrics";
}

TEST(SimObservability, FailoverSnapshotBitIdenticalAcrossRunsAndThreads) {
  // The failover path adds fabric mutation mid-run (flap = failures AND
  // restores) plus backup swaps; none of it may leak wall clock or
  // thread order into the sim.* metric space or the report.
  const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");

  auto run_with_threads = [&spec](unsigned threads) {
    obs::MetricRegistry registry;
    sim::SimOptions options;
    options.metrics = &registry;
    options.compile_threads = threads;
    options.protection_k = 1;
    scenario::FailureInjectorParams inject;
    inject.preset = scenario::FailurePreset::kFlap;
    inject.seed = 31;
    inject.count = 2;
    options.failures = scenario::make_failure_schedule(
        scenario::build_topology(spec), inject);
    // Compared whole: forwarding.seconds is simulated time in the sim.
    const sim::SimReport report = sim::run_sim_scenario(spec, options);
    return std::make_pair(deterministic_view(registry.snapshot()), report);
  };

  const auto [first_snap, first_report] = run_with_threads(1);
  EXPECT_FALSE(first_snap.entries.empty());
  EXPECT_GT(first_report.forwarding.rerouted_pairs, 0u);
  EXPECT_EQ(first_report.forwarding.wrong_egress, 0u);

  const auto [again_snap, again_report] = run_with_threads(1);
  EXPECT_EQ(first_snap, again_snap) << "rerun diverged under failover";
  EXPECT_EQ(first_report, again_report);

  const auto [threaded_snap, threaded_report] = run_with_threads(4);
  EXPECT_EQ(first_snap, threaded_snap)
      << "compile threading leaked into failover metrics";
  EXPECT_EQ(first_report, threaded_report);
}

/// torus4x4/hotspot closed-loop under a seeded flap schedule with one
/// pre-installed backup per pair: retransmits, timeouts, ECN cuts and
/// dead-wire losses all happen in one run.
sim::SimOptions closed_flap_options(const scenario::ScenarioSpec& spec) {
  sim::SimOptions options;
  options.transport.enabled = true;
  options.protection_k = 1;
  scenario::FailureInjectorParams inject;
  inject.preset = scenario::FailurePreset::kFlap;
  inject.seed = 7;
  inject.count = 2;
  options.failures = scenario::make_failure_schedule(
      scenario::build_topology(spec), inject);
  return options;
}

/// Sum of the per-link counters whose names end in `suffix`.
std::uint64_t sum_links(const obs::MetricsSnapshot& snap,
                        std::string_view suffix) {
  std::uint64_t total = 0;
  for (const obs::MetricValue& m : snap.entries) {
    if (m.name.starts_with("sim.link.") && m.name.ends_with(suffix)) {
      total += m.counter;
    }
  }
  return total;
}

TEST(SimObservability, ClosedLoopFailoverCountersAgreeWithReport) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
  obs::MetricRegistry registry;
  sim::SimOptions options = closed_flap_options(spec);
  options.metrics = &registry;
  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const sim::TransportReport& tp = report.transport;

  // The run exercises every path the counters below cover.
  EXPECT_GT(tp.retransmits, 0u);
  EXPECT_GT(tp.timeouts, 0u);
  EXPECT_GT(report.forwarding.failover_packets_lost, 0u);
  EXPECT_GT(report.ecn_marked, 0u);

  EXPECT_EQ(snap.counter_or("sim.tp.sent"), tp.packets_sent);
  EXPECT_EQ(snap.counter_or("sim.tp.retransmits"), tp.retransmits);
  EXPECT_EQ(snap.counter_or("sim.tp.timeouts"), tp.timeouts);
  EXPECT_EQ(snap.counter_or("sim.tp.ecn_cuts"), tp.ecn_cwnd_cuts);
  EXPECT_EQ(snap.counter_or("sim.tp.drop_cuts"), tp.drop_cwnd_cuts);
  EXPECT_EQ(snap.counter_or("sim.tp.spurious"), tp.spurious_deliveries);
  EXPECT_EQ(snap.counter_or("sim.tp.abandoned_flows"), tp.abandoned_flows);
  EXPECT_EQ(snap.counter_or("sim.tp.completed_flows"),
            report.completed_flows);
  EXPECT_EQ(snap.counter_or("sim.failover.packets_lost"),
            report.forwarding.failover_packets_lost);
  EXPECT_EQ(snap.counter_or("sim.tail_drops"),
            report.forwarding.dropped_packets -
                report.forwarding.failover_packets_lost);
  EXPECT_EQ(sum_links(snap, ".drops"), report.forwarding.dropped_packets);
  EXPECT_EQ(sum_links(snap, ".ecn"), report.ecn_marked);
  EXPECT_EQ(snap.counter_or("sim.injected"), tp.packets_sent);
}

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct Observed {
  std::uint64_t snapshot_hash = 0;  ///< of obs::to_json(deterministic view)
  std::uint64_t series_hash = 0;    ///< of every (name, t_s, value) point
  std::size_t points = 0;
};

Observed observe(const scenario::ScenarioSpec& spec, sim::SimOptions options) {
  obs::MetricRegistry registry;
  hp::telemetry::TimeSeriesStore store;
  options.metrics = &registry;
  options.telemetry = &store;
  (void)sim::run_sim_scenario(spec, options);
  Observed out;
  const std::string json =
      obs::to_json(deterministic_view(registry.snapshot()));
  out.snapshot_hash = fnv1a(kFnvBasis, json.data(), json.size());
  out.series_hash = kFnvBasis;
  for (const std::string& name : store.series_names()) {
    out.series_hash = fnv1a(out.series_hash, name.data(), name.size() + 1);
    for (const hp::telemetry::Point& p : store.range(name, 0.0, 1e18)) {
      const auto t = std::bit_cast<std::uint64_t>(p.t_s);
      const auto v = std::bit_cast<std::uint64_t>(p.value);
      out.series_hash = fnv1a(out.series_hash, &t, sizeof(t));
      out.series_hash = fnv1a(out.series_hash, &v, sizeof(v));
      ++out.points;
    }
  }
  return out;
}

// The regression oracle for the engine's metric publication: the full
// deterministic registry view and every telemetry series of an open-loop
// and a closed-loop failover run, pinned by hash.  A refactor of how the
// engine feeds the registry must leave both untouched.
TEST(SimObservability, GoldenSnapshotAndSeries) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  const Observed open = observe(spec, sim::SimOptions{});
  EXPECT_EQ(open.snapshot_hash, 0xfb86b6ab4ae53899ull);
  EXPECT_EQ(open.series_hash, 0x9d8b01920b673b80ull);
  EXPECT_EQ(open.points, 24895u);

  const Observed closed = observe(spec, closed_flap_options(spec));
  EXPECT_EQ(closed.snapshot_hash, 0xb3788f3babc3db3bull);
  EXPECT_EQ(closed.series_hash, 0xc64dca60479df66cull);
  EXPECT_EQ(closed.points, 136760u);
}

TEST(SimObservability, FlightRecorderIsDeterministic) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");

  auto record = [&spec]() {
    obs::FlightRecorder recorder(/*capacity=*/512, /*sample_every=*/4);
    sim::SimOptions options;
    options.recorder = &recorder;
    (void)sim::run_sim_scenario(spec, options);
    return recorder;
  };

  const obs::FlightRecorder first = record();
  EXPECT_GT(first.total_recorded(), 0u);
  EXPECT_FALSE(first.records().empty());
  const obs::FlightRecorder again = record();
  EXPECT_EQ(first.records(), again.records());
  EXPECT_EQ(first.to_json(), again.to_json());

  // Only sampled flows appear.
  for (const obs::HopRecord& r : first.records()) {
    EXPECT_EQ(r.flow % 4, 0u);
  }
}

// The closed loop recycles packet slots, so a recorded packet id is
// the packet's injection order, not its slot.  The hp-flight-v1 output
// of a closed-loop failover run is pinned by hash: a change to how the
// engine stores packets must leave it untouched.
TEST(SimObservability, ClosedLoopFlightRecordingGolden) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
  obs::FlightRecorder recorder(/*capacity=*/8192, /*sample_every=*/4);
  sim::SimOptions options = closed_flap_options(spec);
  options.recorder = &recorder;
  (void)sim::run_sim_scenario(spec, options);
  const std::string json = recorder.to_json();
  EXPECT_EQ(recorder.total_recorded(), 5'820u);
  EXPECT_EQ(fnv1a(kFnvBasis, json.data(), json.size()),
            0xe0dc6b7bcb76cc4ull);
}

// Event-count guard on the closed-loop failover run.  Before the
// engine dropped its queue-drain events and kept one pending RTO wake
// per flow, this run popped 44,339 events: 22,776 arrivals, 14,087
// drains, 7,464 timers (1,558 of them stale RTO re-arms) and 12 link
// events.
TEST(SimObservability, ClosedLoopEventCountsPinned) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/hotspot");
  sim::SimEventCounts counts;
  sim::SimOptions options = closed_flap_options(spec);
  options.event_counts = &counts;
  const sim::SimReport report = sim::run_sim_scenario(spec, options);
  // Every popped event is an arrival, a timer or a link event: a
  // channel retires its departures without an event of its own.
  EXPECT_EQ(counts.popped, counts.arrive + counts.timer + counts.link);
  EXPECT_EQ(counts.arrive, report.forwarding.mod_operations);
  EXPECT_EQ(counts.arrive, 22'776u);
  EXPECT_EQ(counts.link, 12u);
  EXPECT_EQ(counts.timer, 7'432u);
  EXPECT_EQ(counts.popped, 30'220u);
}

TEST(SimObservability, PhaseTraceCoversRunnerStages) {
  const scenario::ScenarioSpec spec = small_spec("ring12/uniform");
  obs::TraceSink sink;
  sim::SimOptions options;
  options.trace = &sink;
  (void)sim::run_sim_scenario(spec, options);

  std::vector<std::string> names;
  for (const obs::TraceEvent& e : sink.events()) names.push_back(e.name);
  for (const char* phase :
       {"sim.wire", "sim.schedule", "sim.simulate", "sim.report",
        "compile.all_pairs"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), phase), names.end())
        << "missing trace phase " << phase;
  }
}

TEST(SimObservability, TelemetryBridgeWritesDeterministicSeries) {
  const scenario::ScenarioSpec spec = small_spec("ring12/uniform");

  auto sample = [&spec]() {
    hp::telemetry::TimeSeriesStore store;
    sim::SimOptions options;
    options.telemetry = &store;
    options.telemetry_period_ns = 50'000;
    (void)sim::run_sim_scenario(spec, options);
    return store;
  };

  hp::telemetry::TimeSeriesStore store = sample();
  const auto names = store.series_names();
  ASSERT_FALSE(names.empty());
  // Gauge series: the global in-flight level plus one depth per link.
  EXPECT_TRUE(store.has_series("sim.in_flight"));
  EXPECT_TRUE(store.has_series("sim.link.00000.queue_depth"));
  // The samples carry live mid-run state, not only the drained end.
  double max_in_flight = 0.0;
  for (const hp::telemetry::Point& p :
       store.range("sim.in_flight", 0.0, 1e18)) {
    max_in_flight = std::max(max_in_flight, p.value);
  }
  EXPECT_GT(max_in_flight, 0.0);
  double max_depth = 0.0;
  const double capacity = sim::SimOptions{}.queue_capacity;
  for (const std::string& name : names) {
    if (!name.ends_with(".queue_depth")) continue;
    for (const hp::telemetry::Point& p : store.range(name, 0.0, 1e18)) {
      EXPECT_LE(p.value, capacity) << name;
      max_depth = std::max(max_depth, p.value);
    }
  }
  EXPECT_GT(max_depth, 0.0);

  hp::telemetry::TimeSeriesStore again = sample();
  ASSERT_EQ(again.series_names(), names);
  for (const std::string& name : names) {
    const auto a = store.range(name, 0.0, 1e18);
    const auto b = again.range(name, 0.0, 1e18);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_DOUBLE_EQ(a[i].t_s, b[i].t_s) << name;
      EXPECT_DOUBLE_EQ(a[i].value, b[i].value) << name;
    }
  }
}

TEST(ReplayObservability, MetricsMirrorScenarioReport) {
  const scenario::ScenarioSpec spec = small_spec("torus4x4/uniform");
  obs::MetricRegistry registry;
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.set_observability(&registry, nullptr);
  scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);

  scenario::RunnerOptions options;
  options.threads = 2;
  options.metrics = &registry;
  const scenario::ScenarioReport report =
      scenario::ScenarioRunner(options).run(fabric, stream);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_or("replay.packets"), report.packets);
  EXPECT_EQ(snap.counter_or("replay.folds"), report.mod_operations);
  EXPECT_EQ(snap.counter_or("replay.wrong_egress"), report.wrong_egress);
  EXPECT_EQ(snap.counter_or("replay.epochs"), 1u);
  EXPECT_GT(snap.counter_or("replay.slices"), 0u);
  EXPECT_GT(snap.counter_or("compile.routes"), 0u);
}

}  // namespace
