#include "obs/export.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "scenario/runner.hpp"
#include "sim/report.hpp"

namespace hp::obs {

// --- JsonWriter -------------------------------------------------------

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value belongs to the key just written
  }
  if (!first_.empty()) {
    if (!first_.back()) out_.push_back(',');
    first_.back() = false;
  }
}

void JsonWriter::begin_object() {
  separate();
  out_.push_back('{');
  first_.push_back(true);
}

void JsonWriter::end_object() {
  out_.push_back('}');
  first_.pop_back();
}

void JsonWriter::begin_array() {
  separate();
  out_.push_back('[');
  first_.push_back(true);
}

void JsonWriter::end_array() {
  out_.push_back(']');
  first_.pop_back();
}

void JsonWriter::key(std::string_view k) {
  separate();
  escape_to(out_, k);
  out_.push_back(':');
  pending_key_ = true;
}

void JsonWriter::value(std::string_view s) {
  separate();
  escape_to(out_, s);
}

void JsonWriter::value(double d) {
  separate();
  if (!std::isfinite(d)) {
    // JSON has no NaN/Inf; null is the conventional stand-in.
    out_ += "null";
    return;
  }
  char buf[32];
  // %.17g round-trips every double and prints integers compactly.
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out_ += buf;
}

void JsonWriter::value(std::uint64_t u) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, u);
  out_ += buf;
}

void JsonWriter::value(std::int64_t i) {
  separate();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, i);
  out_ += buf;
}

void JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
}

void JsonWriter::escape_to(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// --- file helper ------------------------------------------------------

void write_text_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("obs: cannot open " + path);
  }
  out << text << '\n';
  if (!out) {
    throw std::runtime_error("obs: write failed for " + path);
  }
}

// --- BenchReport ------------------------------------------------------

BenchResult& BenchReport::add(std::string name, double value,
                              std::string unit, std::string label) {
  BenchResult r;
  r.name = std::move(name);
  r.value = value;
  r.unit = std::move(unit);
  r.label = std::move(label);
  results.push_back(std::move(r));
  return results.back();
}

std::string BenchReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value(kSchema);
  json.key("bench");
  json.value(bench);
  json.key("results");
  json.begin_array();
  for (const BenchResult& r : results) {
    json.begin_object();
    json.key("name");
    json.value(r.name);
    json.key("value");
    json.value(r.value);
    json.key("unit");
    json.value(r.unit);
    if (!r.label.empty()) {
      json.key("label");
      json.value(r.label);
    }
    if (!r.counters.empty()) {
      json.key("counters");
      json.begin_object();
      for (const auto& [name, value] : r.counters) {
        json.key(name);
        json.value(value);
      }
      json.end_object();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

void BenchReport::write(const std::string& path) const {
  write_text_file(path, to_json());
}

std::string BenchReport::write_default() const {
  const char* dir = std::getenv("HP_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (path.back() != '/') path.push_back('/');
  path += "BENCH_" + bench + ".json";
  write(path);
  return path;
}

// --- report serializations -------------------------------------------

namespace {

/// Members of a ScenarioReport, emitted into an open object so the
/// standalone and SimReport-embedded forms share one field list.
void write_scenario_fields(JsonWriter& json,
                           const scenario::ScenarioReport& report) {
  json.key("packets");
  json.value(static_cast<std::uint64_t>(report.packets));
  json.key("mod_operations");
  json.value(static_cast<std::uint64_t>(report.mod_operations));
  json.key("wrong_egress");
  json.value(static_cast<std::uint64_t>(report.wrong_egress));
  json.key("rerouted_pairs");
  json.value(static_cast<std::uint64_t>(report.rerouted_pairs));
  json.key("dropped_packets");
  json.value(static_cast<std::uint64_t>(report.dropped_packets));
  json.key("ttl_expired");
  json.value(static_cast<std::uint64_t>(report.ttl_expired));
  json.key("segmented_packets");
  json.value(static_cast<std::uint64_t>(report.segmented_packets));
  json.key("segment_swaps");
  json.value(static_cast<std::uint64_t>(report.segment_swaps));
  json.key("backup_swapped_pairs");
  json.value(static_cast<std::uint64_t>(report.backup_swapped_pairs));
  json.key("failover_packets_lost");
  json.value(static_cast<std::uint64_t>(report.failover_packets_lost));
  json.key("unroutable_pairs");
  json.value(static_cast<std::uint64_t>(report.unroutable_pairs));
  json.key("lazy_repaired_pairs");
  json.value(static_cast<std::uint64_t>(report.lazy_repaired_pairs));
  json.key("window_recompiles");
  json.value(static_cast<std::uint64_t>(report.window_recompiles));
  json.key("fold_kernel");
  json.value(report.fold_kernel_name());
  json.key("seconds");
  json.value(report.seconds);
  json.key("packets_per_sec");
  json.value(report.packets_per_sec());
}

}  // namespace

std::string to_json(const scenario::ScenarioReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value("hp-report-v1");
  json.key("kind");
  json.value("scenario");
  write_scenario_fields(json, report);
  json.end_object();
  return std::move(json).str();
}

std::string to_json(const sim::SimReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value("hp-report-v1");
  json.key("kind");
  json.value("sim");
  json.key("forwarding");
  json.begin_object();
  write_scenario_fields(json, report.forwarding);
  json.end_object();
  json.key("flows");
  json.value(static_cast<std::uint64_t>(report.flows));
  json.key("completed_flows");
  json.value(static_cast<std::uint64_t>(report.completed_flows));
  json.key("ecn_marked");
  json.value(static_cast<std::uint64_t>(report.ecn_marked));
  json.key("max_queue_depth");
  json.value(std::uint64_t{report.max_queue_depth});
  json.key("max_link_utilization");
  json.value(report.max_link_utilization);
  json.key("mean_link_utilization");
  json.value(report.mean_link_utilization);
  json.key("duration_ns");
  json.value(static_cast<std::uint64_t>(report.duration_ns));
  json.key("drop_rate");
  json.value(report.drop_rate());
  json.key("fct_p50_ns");
  json.value(static_cast<std::uint64_t>(report.fct_p50_ns()));
  json.key("fct_p95_ns");
  json.value(static_cast<std::uint64_t>(report.fct_p95_ns()));
  json.key("fct_samples");
  json.value(static_cast<std::uint64_t>(report.fct_ns.size()));
  json.key("transport");
  json.begin_object();
  json.key("enabled");
  json.value(report.transport.enabled);
  json.key("packets_sent");
  json.value(report.transport.packets_sent);
  json.key("retransmits");
  json.value(report.transport.retransmits);
  json.key("timeouts");
  json.value(report.transport.timeouts);
  json.key("ecn_cwnd_cuts");
  json.value(report.transport.ecn_cwnd_cuts);
  json.key("drop_cwnd_cuts");
  json.value(report.transport.drop_cwnd_cuts);
  json.key("spurious_deliveries");
  json.value(report.transport.spurious_deliveries);
  json.key("abandoned_flows");
  json.value(report.transport.abandoned_flows);
  json.key("offered_bytes");
  json.value(report.transport.offered_bytes);
  json.key("goodput_bytes");
  json.value(report.transport.goodput_bytes);
  json.key("goodput_fraction");
  json.value(report.goodput_fraction());
  json.end_object();
  json.end_object();
  return std::move(json).str();
}

void write_snapshot(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_array();
  for (const MetricValue& m : snapshot.entries) {
    json.begin_object();
    json.key("name");
    json.value(m.name);
    json.key("kind");
    json.value(to_string(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
        json.key("value");
        json.value(m.counter);
        break;
      case MetricKind::kGauge:
        json.key("value");
        json.value(m.gauge);
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = m.histogram;
        json.key("count");
        json.value(h.count);
        json.key("sum");
        json.value(h.sum);
        json.key("min");
        json.value(h.min);
        json.key("max");
        json.value(h.max);
        json.key("p50");
        json.value(h.percentile(0.50));
        json.key("p95");
        json.value(h.percentile(0.95));
        json.key("buckets");
        json.begin_object();
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
          if (h.buckets[b] == 0) continue;
          // "b" + the 20 digits of the largest size_t + NUL.
          char name[22];
          std::snprintf(name, sizeof(name), "b%zu", b);
          json.key(name);
          json.value(h.buckets[b]);
        }
        json.end_object();
        break;
      }
    }
    json.end_object();
  }
  json.end_array();
}

std::string to_json(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema");
  json.value("hp-report-v1");
  json.key("kind");
  json.value("metrics");
  json.key("metrics");
  write_snapshot(json, snapshot);
  json.end_object();
  return std::move(json).str();
}

}  // namespace hp::obs
