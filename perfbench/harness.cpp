// perfbench harness: one named workload through the library's public
// entry points, timed from outside, with correctness gates.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--short] [--trace-out <path>]
//                     [--failure-seed <n>] [--topology-seed <n>]
//
// Every repetition starts from a fresh fabric and packet stream built
// by set-up (ScenarioRunner::run mutates both), times each set-up call
// separately, then times the one entry-point call: ScenarioRunner::run
// for replay, SimRunner::run for the packet simulator.  Repetitions
// continue until --seconds of wall clock have passed.  The end-to-end
// metrics come only from these untraced repetitions.  With --trace 1 a
// further repetition runs with the library's TraceSink and
// MetricRegistry taps attached; the per-layer metrics are derived from
// its spans and counters, and its spans are written as a chrome trace.
//
// Everything is single-threaded (threads = 1, compile_threads = 1).
// The last stdout line is one JSON object: the workload, its report
// fingerprint, the gate failures, the machine and build fingerprint and
// the metrics.  run.py turns it into the benchmark result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "polka/fastpath.hpp"
#include "scenario/failure_injector.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/runner.hpp"

namespace {

namespace obs = hp::obs;
namespace scenario = hp::scenario;
namespace sim = hp::sim;
using Clock = std::chrono::steady_clock;

/// Lower bound on untraced repetitions, so every median has a middle.
constexpr int kMinReps = 3;

// --- workloads -------------------------------------------------------

struct Workload {
  std::string name;
  bool simulated = false;  ///< SimRunner::run; else ScenarioRunner::run
  scenario::ScenarioSpec spec;
  std::optional<scenario::FailureInjectorParams> failures;
  scenario::RunnerOptions replay;
  sim::SimOptions sim;
};

/// Seeds of one workload's inputs.  `traffic` varies from run to run
/// (the benchmark's --seed); the failure schedule and the random-regular
/// topology are fixed inputs with pinned defaults, so that run-to-run
/// spread measures the program rather than how many link events a
/// schedule happened to draw.
struct Seeds {
  std::uint64_t traffic = 1;
  std::uint64_t failures = 1;
  std::uint64_t topology = 7;
};

/// The workload's inputs are a pure function of (name, seeds, short).
/// Short mode keeps every option and shrinks only the packet count.
Workload make_workload(std::string_view name, const Seeds& seeds,
                       bool short_mode) {
  Workload w;
  w.name = std::string(name);
  if (name == "replay-flap") {
    w.spec.name = "rr256d4/uniform";
    w.spec.family = scenario::TopologyFamily::kRandomRegular;
    w.spec.a = 256;
    w.spec.b = 4;
    w.spec.traffic.pattern = scenario::TrafficPattern::kUniformRandom;
    w.spec.traffic.packets = short_mode ? std::size_t{1} << 12
                                        : std::size_t{1} << 22;
    w.spec.traffic.max_pairs = 2048;
    scenario::FailureInjectorParams flap;
    flap.preset = scenario::FailurePreset::kFlap;
    flap.count = 4;
    w.failures = flap;
    w.replay.threads = 1;
    w.replay.protection_k = 1;
  } else if (name == "sim-open") {
    const scenario::ScenarioSpec* base =
        scenario::find_scenario("fat_tree_k4/uniform");
    if (base == nullptr) throw std::runtime_error("no fat_tree_k4/uniform");
    w.simulated = true;
    w.spec = *base;
    w.spec.traffic.packets = short_mode ? std::size_t{1} << 12 : 1'000'000;
    w.sim.compile_threads = 1;
  } else if (name == "sim-closed-flap") {
    const scenario::ScenarioSpec* base =
        scenario::find_scenario("torus4x4/hotspot");
    if (base == nullptr) throw std::runtime_error("no torus4x4/hotspot");
    w.simulated = true;
    w.spec = *base;
    w.spec.traffic.packets = short_mode ? std::size_t{1} << 12
                                        : std::size_t{1} << 19;
    w.spec.traffic.max_pairs = 64;
    // bench_sim_transport's incast options, except the flow gap: at
    // 2^19 packets its 10 us gap melts into a retransmit storm (72-86%
    // drop); at 400 us every flow completes with ~3% drop.
    w.sim.source_rate_mbps = 400.0;
    w.sim.flow_gap_ns = 400'000;
    w.sim.queue_capacity = 16;
    w.sim.ecn_threshold = 12;
    w.sim.transport.enabled = true;
    w.sim.transport.init_cwnd = 4;
    w.sim.transport.max_cwnd = 32;
    w.sim.transport.rto_min_ns = 4'000'000;
    w.sim.transport.rto_max_ns = 50'000'000;
    w.sim.transport.max_retries = 8;
    w.sim.compile_threads = 1;
    w.sim.protection_k = 1;
    scenario::FailureInjectorParams flap;
    flap.preset = scenario::FailurePreset::kFlap;
    flap.count = 6;
    w.failures = flap;
  } else {
    throw std::invalid_argument("unknown workload: " + std::string(name));
  }
  w.spec.traffic.seed = seeds.traffic;
  w.spec.topo_seed = seeds.topology;
  if (w.failures) w.failures->seed = seeds.failures;
  return w;
}

// --- timing ----------------------------------------------------------

/// Times one call into a layer: stores its wall seconds in `out` and,
/// when a sink is attached, records it as a span.
class Timed {
 public:
  Timed(obs::TraceSink* sink, const char* name, double& out)
      : sink_(sink), name_(name), out_(out), start_(Clock::now()) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    const Clock::time_point end = Clock::now();
    out_ = std::chrono::duration<double>(end - start_).count();
    if (sink_ != nullptr) sink_->record(name_, "bench", start_, end);
  }

 private:
  obs::TraceSink* sink_;
  const char* name_;
  double& out_;
  Clock::time_point start_;
};

struct SetupTimes {
  double fabric = 0.0;
  double compile = 0.0;
  double traffic = 0.0;
  double failures = 0.0;
  [[nodiscard]] double total() const {
    return fabric + compile + traffic + failures;
  }
};

/// One repetition's inputs, built by set-up.
struct Prepared {
  std::unique_ptr<scenario::BuiltFabric> fabric;
  scenario::PacketStream stream;
  std::vector<scenario::LinkFailure> failures;
  SetupTimes setup;
};

/// Set-up mirrors the library's one-call paths plus failure-schedule
/// generation: run_scenario for replay (routes compile lazily inside
/// generate_traffic), run_sim_scenario for the simulator (every pair
/// precompiled first).
Prepared prepare(const Workload& w, obs::MetricRegistry* metrics,
                 obs::TraceSink* trace) {
  Prepared p;
  {
    Timed t(trace, "setup.fabric", p.setup.fabric);
    p.fabric = std::make_unique<scenario::BuiltFabric>(
        scenario::build_topology(w.spec));
  }
  if (w.simulated) {
    p.fabric->set_observability(metrics, trace);
    Timed t(trace, "setup.compile", p.setup.compile);
    (void)p.fabric->compile_all_pairs(1);
  }
  {
    Timed t(trace, "setup.traffic", p.setup.traffic);
    p.stream = scenario::generate_traffic(*p.fabric, w.spec.traffic);
  }
  if (w.failures) {
    Timed t(trace, "setup.failures", p.setup.failures);
    p.failures = scenario::make_failure_schedule(p.fabric->topology(),
                                                 *w.failures);
  }
  return p;
}

// --- report fingerprint ----------------------------------------------

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// The report's deterministic fields.  Replay's wall-clock `seconds`
/// (and packets_per_sec) are left out, and so is the fold kernel: both
/// kernels must produce the same results.
void add_forwarding(Fingerprint& fp, const scenario::ScenarioReport& r) {
  for (const std::size_t v :
       {r.packets, r.mod_operations, r.wrong_egress, r.rerouted_pairs,
        r.dropped_packets, r.ttl_expired, r.segmented_packets,
        r.segment_swaps, r.backup_swapped_pairs, r.failover_packets_lost,
        r.unroutable_pairs, r.lazy_repaired_pairs, r.window_recompiles}) {
    fp.add(static_cast<std::uint64_t>(v));
  }
}

std::string fingerprint(const scenario::ScenarioReport& r) {
  Fingerprint fp;
  add_forwarding(fp, r);
  return fp.hex();
}

std::string fingerprint(const sim::SimReport& r) {
  Fingerprint fp;
  add_forwarding(fp, r.forwarding);
  fp.add(static_cast<std::uint64_t>(r.flows));
  fp.add(static_cast<std::uint64_t>(r.completed_flows));
  fp.add(static_cast<std::uint64_t>(r.ecn_marked));
  fp.add(static_cast<std::uint64_t>(r.max_queue_depth));
  fp.add(r.max_link_utilization);
  fp.add(r.mean_link_utilization);
  fp.add(static_cast<std::uint64_t>(r.duration_ns));
  fp.add(static_cast<std::uint64_t>(r.fct_ns.size()));
  for (const sim::Tick t : r.fct_ns) fp.add(static_cast<std::uint64_t>(t));
  const sim::TransportReport& tp = r.transport;
  for (const std::uint64_t v :
       {std::uint64_t{tp.enabled}, tp.packets_sent, tp.retransmits,
        tp.timeouts, tp.ecn_cwnd_cuts, tp.drop_cwnd_cuts,
        tp.spurious_deliveries, tp.abandoned_flows, tp.offered_bytes,
        tp.goodput_bytes}) {
    fp.add(v);
  }
  return fp.hex();
}

// --- one repetition ----------------------------------------------------

struct RunResult {
  double run_s = 0.0;
  std::uint64_t hops = 0;
  std::string fingerprint;
  std::string fold_kernel;
  std::vector<std::string> gate_failures;
  double goodput_fraction = 0.0;  ///< closed-loop sims only
  SetupTimes setup;
};

void gate(RunResult& r, bool ok, const std::string& what) {
  if (!ok) r.gate_failures.push_back(what);
}

RunResult run_once(const Workload& w, obs::MetricRegistry* metrics,
                   obs::TraceSink* trace) {
  Prepared p = prepare(w, metrics, trace);
  RunResult r;
  r.setup = p.setup;
  const std::size_t offered = p.stream.size();
  if (!w.simulated) {
    scenario::RunnerOptions options = w.replay;
    options.failures = p.failures;
    options.metrics = metrics;
    options.trace = trace;
    scenario::ScenarioReport report;
    {
      Timed t(trace, "bench.run", r.run_s);
      report = scenario::ScenarioRunner(options).run(*p.fabric, p.stream);
    }
    r.hops = report.mod_operations;
    r.fingerprint = fingerprint(report);
    r.fold_kernel = report.fold_kernel_name();
    gate(r, report.wrong_egress == 0, "replay wrong_egress != 0");
    gate(r, report.ttl_expired == 0, "replay ttl_expired != 0");
    gate(r, report.packets + report.dropped_packets == offered,
         "replay packets + dropped != stream size");
  } else {
    sim::SimOptions options = w.sim;
    options.failures = p.failures;
    options.metrics = metrics;
    options.trace = trace;
    sim::SimReport report;
    {
      Timed t(trace, "bench.run", r.run_s);
      report = sim::SimRunner(options).run(*p.fabric, p.stream);
    }
    const scenario::ScenarioReport& f = report.forwarding;
    r.hops = f.mod_operations;
    r.fingerprint = fingerprint(report);
    r.fold_kernel = f.fold_kernel_name();
    gate(r, f.wrong_egress == 0, "sim wrong_egress != 0");
    if (options.transport.enabled) {
      gate(r,
           report.completed_flows + report.transport.abandoned_flows ==
               report.flows,
           "sim completed + abandoned != flows");
      gate(r,
           report.transport.goodput_bytes <= report.transport.offered_bytes,
           "sim goodput_bytes > offered_bytes");
      r.goodput_fraction = report.goodput_fraction();
    } else {
      gate(r, f.packets + f.dropped_packets == offered,
           "sim packets + dropped != stream size");
    }
  }
  gate(r, r.hops > 0, "no hops folded");
  return r;
}

// --- traced-run accounting ---------------------------------------------

double span_s(std::uint64_t us) { return static_cast<double>(us) * 1e-6; }

/// Microseconds of slack when comparing spans: the sink truncates both
/// start and duration to whole microseconds.
constexpr std::uint64_t kSlackUs = 2;

bool contains(const obs::TraceEvent& outer, const obs::TraceEvent& inner) {
  return inner.ts_us >= outer.ts_us &&
         inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us + kSlackUs;
}

/// The spans directly under `parent`: contained spans that no other
/// contained span covers.  Returns false when two of them overlap
/// without nesting, which would make self time meaningless.
bool direct_children(const std::vector<obs::TraceEvent>& events,
                     const obs::TraceEvent& parent,
                     std::vector<const obs::TraceEvent*>& out) {
  std::vector<const obs::TraceEvent*> inside;
  for (const obs::TraceEvent& e : events) {
    if (&e != &parent && contains(parent, e)) inside.push_back(&e);
  }
  std::ranges::sort(inside, [](const auto* x, const auto* y) {
    return x->ts_us != y->ts_us ? x->ts_us < y->ts_us : x->dur_us > y->dur_us;
  });
  for (const obs::TraceEvent* e : inside) {
    if (!out.empty()) {
      const obs::TraceEvent& last = *out.back();
      if (e->ts_us < last.ts_us + last.dur_us) {
        if (!contains(last, *e)) return false;
        continue;  // nested below an earlier child
      }
    }
    out.push_back(e);
  }
  return true;
}

double sum_named(const std::vector<const obs::TraceEvent*>& spans,
                 std::initializer_list<std::string_view> names) {
  std::uint64_t us = 0;
  for (const obs::TraceEvent* e : spans) {
    if (std::ranges::find(names, std::string_view(e->name)) != names.end()) {
      us += e->dur_us;
    }
  }
  return span_s(us);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics from the traced repetition's spans and counters.
/// Layers a workload does not run report 0.
std::vector<Metric> per_layer(const Workload& w, const RunResult& traced,
                              const std::vector<obs::TraceEvent>& events,
                              const obs::MetricsSnapshot& snap,
                              double untraced_run_s,
                              std::vector<std::string>& failures) {
  std::vector<Metric> m;
  auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter_or(name));
  };

  const obs::TraceEvent* run = nullptr;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "bench.run") run = &e;
  }
  std::vector<const obs::TraceEvent*> children;
  if (run == nullptr || !direct_children(events, *run, children)) {
    failures.push_back("trace: run span missing or children overlap");
    return m;
  }
  const double wall = span_s(run->dur_us);
  double child_total = 0.0;
  for (const obs::TraceEvent* c : children) child_total += span_s(c->dur_us);
  const double self = wall - child_total;
  // Children are disjoint and inside the run span, so children + self
  // must equal the wall time with self >= 0 (up to truncation).
  if (self < -span_s(kSlackUs * (children.size() + 1))) {
    failures.push_back("trace: child spans exceed the run's wall time");
  }
  std::cout << "trace accounting: " << children.size() << " child spans "
            << child_total << " s + self " << self << " s = run wall "
            << wall << " s\n";

  m.push_back({"setup.fabric_s", traced.setup.fabric, "s"});
  m.push_back({"setup.compile_s", traced.setup.compile, "s"});
  m.push_back({"setup.traffic_s", traced.setup.traffic, "s"});
  m.push_back({"setup.failures_s", traced.setup.failures, "s"});

  // compile.* spans directly under the replay's repair/restore events
  // (compile.subtree nests inside compile.fail_link / repair_pending).
  double compile_repair = 0.0;
  for (const obs::TraceEvent* c : children) {
    if (c->name != "replay.repair" && c->name != "replay.restore") continue;
    std::vector<const obs::TraceEvent*> inner;
    if (!direct_children(events, *c, inner)) {
      failures.push_back("trace: spans inside " + c->name + " overlap");
    }
    for (const obs::TraceEvent* e : inner) {
      if (e->name.starts_with("compile.")) compile_repair += span_s(e->dur_us);
    }
  }
  const double epoch = sum_named(children, {"replay.epoch"});
  const double protect = sum_named(children, {"replay.protect"});
  const double repair =
      sum_named(children, {"replay.repair", "replay.restore"});
  const double folds = counter("replay.folds");
  const double swaps = counter("replay.failover.swaps");
  const double recompiles = counter("replay.failover.window_recompiles");
  const double lazy = counter("replay.failover.lazy_repairs");
  m.push_back({"replay.epoch_s", epoch, "s"});
  m.push_back({"replay.ns_per_fold", ratio(epoch * 1e9, folds), "ns"});
  m.push_back({"replay.folds", folds, "count"});
  m.push_back({"replay.protect_s", protect, "s"});
  m.push_back({"replay.repair_s", repair, "s"});
  m.push_back({"compile.repair_s", compile_repair, "s"});
  m.push_back({"replay.relabel_self_s", repair - compile_repair, "s"});
  m.push_back({"replay.failover.swaps", swaps, "count"});
  m.push_back({"replay.failover.window_recompiles", recompiles, "count"});
  m.push_back(
      {"replay.swap_ratio", ratio(swaps, swaps + recompiles + lazy), "ratio"});
  m.push_back({"replay.other_s", w.simulated ? 0.0 : self, "s"});

  const double schedule = sum_named(children, {"sim.schedule"});
  const double simulate = sum_named(children, {"sim.simulate"});
  const double sim_folds = counter("sim.folds");
  const double injected = counter("sim.injected");
  const double delivered = counter("sim.delivered");
  const obs::MetricValue* depth = snap.find("sim.queue_depth");
  m.push_back({"sim.wire_s", sum_named(children, {"sim.wire"}), "s"});
  m.push_back({"sim.schedule_s", schedule, "s"});
  m.push_back({"sim.schedule_ns_per_packet",
               w.simulated ? ratio(schedule * 1e9,
                                     static_cast<double>(w.spec.traffic.packets))
                           : 0.0,
               "ns"});
  m.push_back({"sim.report_s", sum_named(children, {"sim.report"}), "s"});
  m.push_back({"sim.simulate_s", simulate, "s"});
  m.push_back({"sim.ns_per_hop", ratio(simulate * 1e9, sim_folds), "ns"});
  m.push_back({"sim.folds", sim_folds, "count"});
  m.push_back({"sim.injected", injected, "count"});
  m.push_back({"sim.delivered", delivered, "count"});
  m.push_back({"sim.tail_drops", counter("sim.tail_drops"), "count"});
  m.push_back({"sim.ecn_marked", counter("sim.ecn_marked"), "count"});
  m.push_back({"sim.max_queue_depth",
               depth != nullptr ? static_cast<double>(depth->histogram.max)
                                : 0.0,
               "packets"});
  m.push_back({"sim.delivered_ratio", ratio(delivered, injected), "ratio"});
  m.push_back({"sim.tp.sent", counter("sim.tp.sent"), "count"});
  m.push_back({"sim.tp.retransmits", counter("sim.tp.retransmits"), "count"});
  m.push_back({"sim.tp.timeouts", counter("sim.tp.timeouts"), "count"});
  m.push_back({"sim.tp.abandoned_flows", counter("sim.tp.abandoned_flows"),
               "count"});
  m.push_back({"sim.tp.goodput_fraction", traced.goodput_fraction, "ratio"});
  m.push_back({"sim.failover.packets_lost",
               counter("sim.failover.packets_lost"), "count"});
  m.push_back({"sim.other_s", w.simulated ? self : 0.0, "s"});

  m.push_back({"obs.trace_overhead",
               ratio(traced.run_s, untraced_run_s) - 1.0, "ratio"});
  return m;
}

// --- machine and build fingerprint -----------------------------------

struct Machine {
  std::string cpu = "unknown";
  unsigned nproc = 0;
  bool pclmul = false;
  bool avx512f = false;
  bool vpclmulqdq = false;
};

Machine probe_machine() {
  Machine m;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  bool have_model = false;
  bool have_flags = false;
  while (std::getline(in, line) && !(have_model && have_flags)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && !have_model) {
      m.cpu = value;
      have_model = true;
    } else if (key == "flags" && !have_flags) {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        m.pclmul |= flag == "pclmulqdq";
        m.avx512f |= flag == "avx512f";
        m.vpclmulqdq |= flag == "vpclmulqdq";
      }
      have_flags = true;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    m.nproc = static_cast<unsigned>(CPU_COUNT(&set));
  }
  return m;
}

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return HPB_SANITIZED != 0;
#endif
}

bool release_build() {
#ifdef NDEBUG
  return std::string_view(HPB_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

// --- output --------------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) {
  std::ranges::sort(v);
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  Seeds seeds;
  double seconds = 10.0;
  bool trace = false;
  bool short_mode = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + std::string(flag));
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seeds.traffic = std::stoull(value());
    } else if (flag == "--failure-seed") {
      a.seeds.failures = std::stoull(value());
    } else if (flag == "--topology-seed") {
      a.seeds.topology = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--short") {
      a.short_mode = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + std::string(flag));
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload required");
  return a;
}

int run_main(const Args& args) {
  const Workload w = make_workload(args.workload, args.seeds, args.short_mode);
  const Machine machine = probe_machine();
  const bool forced_table = hp::polka::table_fold_forced();
  std::cout << "workload " << w.name << " (" << w.spec.name << ", "
            << w.spec.traffic.packets << " packets"
            << (args.short_mode ? ", short" : "") << ") seed "
            << args.seeds.traffic << ", failure seed " << args.seeds.failures
            << ", topology seed " << args.seeds.topology << "\n";

  std::vector<std::string> failures;
  std::string fp;
  std::string fold_kernel;
  auto account = [&](const RunResult& r, int rep) {
    for (const std::string& g : r.gate_failures) {
      failures.push_back("rep " + std::to_string(rep) + ": " + g);
    }
    if (fp.empty()) {
      fp = r.fingerprint;
      fold_kernel = r.fold_kernel;
    } else if (r.fingerprint != fp) {
      failures.push_back("rep " + std::to_string(rep) +
                         ": fingerprint " + r.fingerprint + " != " + fp);
    }
  };

  // Untraced repetitions: the end-to-end metrics.
  std::vector<double> hops_per_s;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  int failed_reps = 0;
  double rss = 0.0;
  const Clock::time_point begin = Clock::now();
  int rep = 0;
  while (rep < kMinReps ||
         std::chrono::duration<double>(Clock::now() - begin).count() <
             args.seconds) {
    const RunResult r = run_once(w, nullptr, nullptr);
    const std::size_t before = failures.size();
    account(r, rep);
    if (failures.size() != before) ++failed_reps;
    // Peak memory of one repetition: later repetitions only add the
    // allocator's reuse history of the ones before them.
    if (rep == 0) rss = peak_rss_mb();
    hops_per_s.push_back(static_cast<double>(r.hops) / r.run_s);
    setup_s.push_back(r.setup.total());
    run_s.push_back(r.run_s);
    ++rep;
  }

  std::vector<Metric> metrics;
  int attempted = rep;
  if (!args.trace) {
    metrics.push_back({"hops_per_s", median(hops_per_s), "1/s"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", rss, "MB"});
  } else {
    obs::TraceSink sink;
    obs::MetricRegistry registry;
    const RunResult traced = run_once(w, &registry, &sink);
    ++attempted;
    const std::size_t before = failures.size();
    account(traced, rep);
    const std::vector<obs::TraceEvent> events = sink.events();
    metrics = per_layer(w, traced, events, registry.snapshot(),
                        median(run_s), failures);
    if (failures.size() != before) ++failed_reps;
    if (!args.trace_out.empty()) sink.write(args.trace_out);
  }

  std::cout << "machine: cpu \"" << machine.cpu << "\", nproc "
            << machine.nproc << ", pclmulqdq " << machine.pclmul
            << ", avx512f " << machine.avx512f << ", vpclmulqdq "
            << machine.vpclmulqdq << "\n"
            << "build: fold kernel " << fold_kernel
            << ", HP_FORCE_TABLE_FOLD " << (forced_table ? "set" : "unset")
            << ", compiler " << HPB_COMPILER << ", build type "
            << HPB_BUILD_TYPE << "\n"
            << "repetitions " << rep << " untraced"
            << (args.trace ? " + 1 traced" : "") << ", fingerprint " << fp
            << "\n";
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";

  std::ostringstream out;
  out << "{\"workload\": " << json_string(w.name) << ", \"seed\": "
      << args.seeds.traffic << ", \"failure_seed\": " << args.seeds.failures
      << ", \"topology_seed\": " << args.seeds.topology << ", \"short\": " << (args.short_mode ? "true" : "false")
      << ", \"fingerprint\": " << json_string(fp)
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed_reps
      << ", \"run_s\": [";
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    out << (i ? ", " : "") << json_number(run_s[i]);
  }
  out << "], \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out << (i ? ", " : "") << json_string(failures[i]);
  }
  out << "], \"machine\": {\"cpu\": " << json_string(machine.cpu)
      << ", \"nproc\": " << machine.nproc
      << ", \"pclmulqdq\": " << (machine.pclmul ? "true" : "false")
      << ", \"avx512f\": " << (machine.avx512f ? "true" : "false")
      << ", \"vpclmulqdq\": " << (machine.vpclmulqdq ? "true" : "false")
      << ", \"fold_kernel\": " << json_string(fold_kernel)
      << ", \"hp_force_table_fold\": " << (forced_table ? "true" : "false")
      << ", \"compiler\": " << json_string(HPB_COMPILER)
      << ", \"build_type\": " << json_string(HPB_BUILD_TYPE)
      << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!release_build() || sanitized_build()) {
      std::cerr << "perfbench: refusing to publish numbers from a "
                << HPB_BUILD_TYPE << (sanitized_build() ? " sanitizer" : "")
                << " build; configure with -DCMAKE_BUILD_TYPE=Release and "
                   "no HP_SANITIZE* option\n";
      return 3;
    }
    return run_main(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
