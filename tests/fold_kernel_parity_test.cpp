// Fold-kernel parity: the slice-by-8 table fold, the portable software
// Barrett fold and the PCLMUL Barrett fold must agree bit for bit with
// the gf2::Poly reference on every generator degree the fast path
// accepts -- and whole CompiledFabrics forced onto either kernel must
// produce bit-identical PacketResults on every registry topology
// family, including the deep ring-1024 / torus-32x32 segmented
// streams.

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "gf2/barrett.hpp"
#include "gf2/poly.hpp"
#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/topologies.hpp"
#include "scenario/traffic.hpp"

namespace hp::polka {
namespace {

using gf2::Poly;
using gf2::fixed::Barrett64;

/// A random polynomial of exact degree d (top bit forced, low bits
/// arbitrary -- fold parity needs no irreducibility).
std::uint64_t random_generator(std::mt19937_64& rng, unsigned d) {
  const std::uint64_t low_mask =
      d == 0 ? 0 : ((std::uint64_t{1} << d) - 1);
  return (std::uint64_t{1} << d) | (rng() & low_mask);
}

TEST(BarrettFold, SoftwareMatchesPolyReferenceAcrossAllDegrees) {
  std::mt19937_64 rng(0xB42237);
  for (unsigned d = 1; d <= 63; ++d) {
    for (int g_trial = 0; g_trial < 4; ++g_trial) {
      const std::uint64_t g = random_generator(rng, d);
      const Barrett64 constants = gf2::fixed::make_barrett(g);
      EXPECT_EQ(constants.degree, d);
      const Poly gp(g);
      for (int trial = 0; trial < 32; ++trial) {
        const std::uint64_t label = rng();
        const std::uint64_t want = (Poly(label) % gp).to_uint64();
        EXPECT_EQ(gf2::fixed::barrett_mod(constants, label), want)
            << "d=" << d << " g=" << g << " label=" << label;
      }
    }
  }
  EXPECT_THROW((void)gf2::fixed::barrett_mu(1), std::invalid_argument);
  EXPECT_THROW((void)gf2::fixed::barrett_mu(0), std::invalid_argument);
}

TEST(BarrettFold, TableClmulAndReferenceAgreeOnFastPathDegrees) {
  std::mt19937_64 rng(0xF01D);
  const bool hw = clmul_fold_supported();
  if (!hw) {
    GTEST_LOG_(INFO) << "PCLMUL unavailable; covering table vs software only";
  }
  for (unsigned d = 1; d <= 32; ++d) {
    for (int g_trial = 0; g_trial < 3; ++g_trial) {
      const std::uint64_t g = random_generator(rng, d);
      const Poly gp(g);
      const LabelFoldEngine table(gp);
      const Barrett64 constants = gf2::fixed::make_barrett(g);
      for (int trial = 0; trial < 64; ++trial) {
        // Mix raw random labels with edge shapes (all ones, top byte
        // only, the generator itself).
        std::uint64_t label = rng();
        if (trial == 0) label = 0;
        if (trial == 1) label = ~std::uint64_t{0};
        if (trial == 2) label = 0xFF00000000000000ull;
        if (trial == 3) label = g;
        const std::uint64_t want = (Poly(label) % gp).to_uint64();
        EXPECT_EQ(table.remainder(label), want) << "d=" << d;
        EXPECT_EQ(gf2::fixed::barrett_mod(constants, label), want) << "d=" << d;
        if (hw) {
          EXPECT_EQ(clmul_barrett_remainder(constants, label), want)
              << "d=" << d;
        }
      }
    }
  }
}

TEST(BarrettFold, ClmulRemainderThrowsWhenUnsupported) {
  const Barrett64 c = gf2::fixed::make_barrett(0b1011);  // x^3 + x + 1
  if (clmul_fold_supported()) {
    // x^3 mod (x^3 + x + 1) = x + 1.
    EXPECT_EQ(clmul_barrett_remainder(c, 0b1000), 0b011u);
  } else {
    EXPECT_THROW((void)clmul_barrett_remainder(c, 7), std::runtime_error);
  }
}

/// Forward every packet of a stream through one explicit kernel,
/// returning per-packet results (single-label lanes via the mixed
/// ingress forward_batch, segmented lanes via forward_batch_segmented).
std::vector<PacketResult> replay_with_kernel(
    const scenario::BuiltFabric& built, const scenario::PacketStream& stream,
    FoldKernel kernel, std::size_t max_hops) {
  const CompiledFabric fast(built.fabric(), kernel);
  EXPECT_EQ(fast.kernel(), kernel);
  std::vector<PacketResult> results(stream.size());

  std::vector<RouteLabel> plain_labels;
  std::vector<std::uint32_t> plain_firsts;
  std::vector<std::size_t> plain_at;
  std::vector<SegmentRef> seg_refs;
  std::vector<std::uint32_t> seg_firsts;
  std::vector<std::size_t> seg_at;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const std::uint32_t lane = stream.pair[i];
    const scenario::TrafficPair& pair = stream.pairs[lane];
    if (!stream.seg_refs.empty() && stream.seg_refs[lane].label_count > 1) {
      seg_refs.push_back(stream.seg_refs[lane]);
      seg_firsts.push_back(pair.ingress);
      seg_at.push_back(i);
    } else {
      plain_labels.push_back(pair.label);
      plain_firsts.push_back(pair.ingress);
      plain_at.push_back(i);
    }
  }
  std::vector<PacketResult> plain_results(plain_labels.size());
  std::vector<PacketResult> seg_results(seg_refs.size());
  (void)fast.forward_batch(plain_labels, plain_firsts,
                           std::span<PacketResult>(plain_results), max_hops);
  if (!seg_refs.empty()) {
    (void)fast.forward_batch_segmented(
        stream.seg_labels, stream.seg_waypoints, seg_refs, seg_firsts,
        std::span<PacketResult>(seg_results), max_hops);
  }
  for (std::size_t i = 0; i < plain_at.size(); ++i) {
    results[plain_at[i]] = plain_results[i];
  }
  for (std::size_t i = 0; i < seg_at.size(); ++i) {
    results[seg_at[i]] = seg_results[i];
  }
  return results;
}

void expect_stream_kernel_parity(netsim::Topology topo, std::size_t packets,
                                 std::size_t max_pairs, std::size_t max_hops,
                                 bool expect_segments) {
  scenario::BuiltFabric built(std::move(topo));
  scenario::TrafficParams params;
  params.pattern = scenario::TrafficPattern::kUniformRandom;
  params.packets = packets;
  params.max_pairs = max_pairs;
  params.seed = 4242;
  scenario::PacketStream stream = scenario::generate_traffic(built, params);
  ASSERT_EQ(stream.unpackable_pairs, 0u);
  if (expect_segments) {
    std::size_t multi = 0;
    for (const SegmentRef& ref : stream.seg_refs) multi += ref.label_count > 1;
    ASSERT_GT(multi, 0u);
  }

  const auto table_results =
      replay_with_kernel(built, stream, FoldKernel::kTable, max_hops);
  // Deliveries must match the compiled expectations on the table path...
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_FALSE(table_results[i].ttl_expired) << i;
    EXPECT_EQ(table_results[i], stream.pairs[stream.pair[i]].expected) << i;
  }
  if (!clmul_fold_supported()) GTEST_SKIP() << "PCLMUL unavailable";
  // ...and the CLMUL path must reproduce them bit for bit.
  const auto clmul_results =
      replay_with_kernel(built, stream, FoldKernel::kClmulBarrett, max_hops);
  ASSERT_EQ(clmul_results.size(), table_results.size());
  for (std::size_t i = 0; i < table_results.size(); ++i) {
    ASSERT_EQ(clmul_results[i], table_results[i]) << "packet " << i;
  }
}

TEST(FoldKernelParity, EveryRegistryTopologyFamilyIsBitIdentical) {
  std::set<std::string> seen;
  for (const scenario::ScenarioSpec& spec : scenario::builtin_scenarios()) {
    const std::string topo_name = spec.name.substr(0, spec.name.find('/'));
    if (!seen.insert(topo_name).second) continue;
    SCOPED_TRACE(topo_name);
    expect_stream_kernel_parity(scenario::build_topology(spec), 2048, 256, 64,
                                /*expect_segments=*/false);
  }
}

TEST(FoldKernelParity, Ring1024SegmentedStreamIsBitIdentical) {
  expect_stream_kernel_parity(scenario::make_ring(1024), 4096, 32, 2048,
                              /*expect_segments=*/true);
}

TEST(FoldKernelParity, Torus32x32SegmentedStreamIsBitIdentical) {
  expect_stream_kernel_parity(scenario::make_torus(32, 32), 4096, 32, 2048,
                              /*expect_segments=*/true);
}

TEST(FoldKernelParity, KernelSelectionAndStateBudget) {
  scenario::BuiltFabric built(scenario::make_ring(64));
  // Forcing the table kernel always works and pays for its tables.
  CompiledFabric table_fast(built.fabric(), FoldKernel::kTable);
  EXPECT_EQ(table_fast.kernel(), FoldKernel::kTable);
  const std::size_t table_bytes = table_fast.forwarding_state_bytes();
  EXPECT_GE(table_bytes,
            table_fast.node_count() * kFoldTableSize * sizeof(std::uint64_t));

  if (!clmul_fold_supported()) {
    EXPECT_THROW(CompiledFabric(built.fabric(), FoldKernel::kClmulBarrett),
                 std::invalid_argument);
    EXPECT_THROW(table_fast.set_kernel(FoldKernel::kClmulBarrett),
                 std::invalid_argument);
    return;
  }
  CompiledFabric clmul_fast(built.fabric(), FoldKernel::kClmulBarrett);
  EXPECT_EQ(clmul_fast.kernel(), FoldKernel::kClmulBarrett);
  // The compact path carries ~32 B/node + wiring -- orders of magnitude
  // under the 16 KB/node table set.
  EXPECT_LT(clmul_fast.forwarding_state_bytes() * 100, table_bytes);

  // port_of agrees across kernels and across set_kernel round trips.
  const RouteLabel label{0xFEEDFACECAFEBEEFull};
  const std::uint32_t want = table_fast.port_of(label, 7);
  EXPECT_EQ(clmul_fast.port_of(label, 7), want);
  clmul_fast.set_kernel(FoldKernel::kTable);
  EXPECT_EQ(clmul_fast.kernel(), FoldKernel::kTable);
  EXPECT_EQ(clmul_fast.port_of(label, 7), want);
  clmul_fast.set_kernel(FoldKernel::kClmulBarrett);
  EXPECT_EQ(clmul_fast.port_of(label, 7), want);

  // The default kernel honours the CPU (the HP_FORCE_TABLE_FOLD branch
  // is pinned by the CI rerun, which executes this whole binary with
  // the override set).
  EXPECT_EQ(default_fold_kernel(), table_fold_forced()
                                       ? FoldKernel::kTable
                                       : FoldKernel::kClmulBarrett);
}

TEST(FoldKernelParity, ScenarioReportNamesTheKernel) {
  scenario::BuiltFabric built(scenario::make_ring(32));
  scenario::TrafficParams params;
  params.packets = 512;
  params.seed = 9;
  scenario::PacketStream stream = scenario::generate_traffic(built, params);
  const scenario::ScenarioReport report =
      scenario::ScenarioRunner(scenario::RunnerOptions{}).run(built, stream);
  EXPECT_EQ(report.fold_kernel, default_fold_kernel());
  EXPECT_STREQ(report.fold_kernel_name(), to_string(default_fold_kernel()));
  EXPECT_EQ(report.wrong_egress, 0u);
}

}  // namespace
}  // namespace hp::polka
