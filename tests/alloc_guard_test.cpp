// Dynamic twin of the hp-lint hot-path-purity rule: interposes the
// global allocator in this TU and proves the forwarding hot paths hold
// the zero-allocation contract at runtime, not just textually.
//
//  * CompiledFabric::forward_batch / forward_batch_segmented on a warm
//    fabric perform ZERO heap allocations, for both fold kernels.
//  * replay_shards allocates per *call* (shard partials + batch
//    buffers), never per *packet*: replaying 10x the packets costs
//    exactly the same number of allocations.
//  * a closed-loop SimRunner::run keeps its per-flow transport state in
//    pooled arrays: 4x the flows costs a few more geometric vector
//    growths, not a heap block per flow.
//
// The interposer counts every operator-new entry; tests snapshot the
// counter around the call under test and assert on the delta, so
// gtest's own bookkeeping allocations outside the window don't matter.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "polka/fastpath.hpp"
#include "polka/forwarding.hpp"
#include "polka/label.hpp"
#include "scenario/fabric_builder.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/traffic.hpp"
#include "sim/runner.hpp"

namespace {

std::atomic<std::uint64_t> g_new_calls{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Strong definitions replace the library operator new for this binary.
void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hp::polka {
namespace {

std::uint64_t alloc_count() {
  return g_new_calls.load(std::memory_order_relaxed);
}

PolkaFabric make_chain(std::size_t n) {
  PolkaFabric fabric(ModEngine::kTable);
  for (std::size_t i = 0; i < n; ++i) {
    fabric.add_node("r" + std::to_string(i), 4);
  }
  for (std::size_t i = 0; i + 1 < n; ++i) fabric.connect(i, 1, i + 1);
  return fabric;
}

std::vector<FoldKernel> testable_kernels() {
  std::vector<FoldKernel> kernels{FoldKernel::kTable};
  if (clmul_fold_supported()) kernels.push_back(FoldKernel::kClmulBarrett);
  return kernels;
}

TEST(AllocGuard, InterposerSeesThisTranslationUnit) {
  const std::uint64_t before = alloc_count();
  auto* leak_free = new int(7);
  delete leak_free;
  std::vector<int> v(128);
  EXPECT_GE(alloc_count() - before, 2u)
      << "operator new interposer is not active; the remaining "
         "assertions would be vacuous";
  static_cast<void>(v);
}

TEST(AllocGuard, ForwardBatchIsZeroAllocationOnWarmFabric) {
  const PolkaFabric fabric = make_chain(12);
  std::vector<std::size_t> path(12);
  for (std::size_t i = 0; i < 12; ++i) path[i] = i;

  std::vector<RouteLabel> labels;
  for (unsigned egress = 0; egress < 4; ++egress) {
    labels.push_back(pack_label_checked(fabric.route_for_path(path, egress)));
  }
  for (int rep = 0; rep < 6; ++rep) {
    labels.insert(labels.end(), labels.begin(), labels.begin() + 4);
  }
  std::vector<PacketResult> results(labels.size());
  std::vector<std::uint32_t> firsts(labels.size(), 0);

  for (const FoldKernel kernel : testable_kernels()) {
    const CompiledFabric fast(fabric, kernel);
    // Warm: kTable builds its fold tables lazily on the first walk.
    (void)fast.forward_batch(labels, 0, std::span<PacketResult>(results));

    const std::uint64_t before = alloc_count();
    const std::size_t mods =
        fast.forward_batch(labels, 0, std::span<PacketResult>(results));
    const std::size_t mods2 = fast.forward_batch(
        labels, std::span<const std::uint32_t>(firsts),
        std::span<PacketResult>(results));
    const std::uint64_t delta = alloc_count() - before;

    EXPECT_EQ(delta, 0u) << "forward_batch allocated under kernel "
                         << to_string(kernel);
    EXPECT_GT(mods, 0u);
    EXPECT_EQ(mods, mods2);
  }
}

TEST(AllocGuard, ForwardBatchSegmentedIsZeroAllocationOnWarmFabric) {
  // A chain long enough that the end-to-end route needs > 1 segment.
  const PolkaFabric fabric = make_chain(24);
  std::vector<std::size_t> path(24);
  for (std::size_t i = 0; i < 24; ++i) path[i] = i;
  const SegmentedRoute segs = fabric.segmented_route_for_path(path, 0U);
  ASSERT_GT(segs.labels.size(), 1u);

  const std::vector<SegmentRef> refs{
      {0, 0, static_cast<std::uint32_t>(segs.labels.size())}};
  const std::vector<std::uint32_t> firsts{0};
  std::vector<PacketResult> results(1);

  const CompiledFabric& fast = fabric.compiled();
  (void)fast.forward_batch_segmented(segs.labels, segs.waypoints, refs,
                                     firsts, results);

  const std::uint64_t before = alloc_count();
  const std::size_t mods = fast.forward_batch_segmented(
      segs.labels, segs.waypoints, refs, firsts, results);
  const std::uint64_t delta = alloc_count() - before;

  EXPECT_EQ(delta, 0u) << "forward_batch_segmented allocated";
  EXPECT_EQ(mods, results[0].hops);
}

TEST(AllocGuard, ReplayAllocationsIndependentOfPacketCount) {
  const PolkaFabric fabric = make_chain(10);
  std::vector<std::size_t> path(10);
  for (std::size_t i = 0; i < 10; ++i) path[i] = i;
  const RouteLabel label = pack_label_checked(fabric.route_for_path(path, 0U));
  const CompiledFabric& fast = fabric.compiled();
  const PacketResult want = fast.forward_one(label, 0);

  // One lane; every packet of the stream replays it.
  const std::vector<RouteLabel> labels{label};
  const std::vector<std::uint32_t> ingress{0};
  const std::vector<PacketResult> expected{want};
  const scenario::LaneTable lanes{labels, ingress, expected, /*alive=*/{},
                                  /*segments=*/{}};

  const auto replay = [&](std::size_t packets) {
    const std::vector<std::uint32_t> index(packets, 0);
    const std::uint64_t before = alloc_count();
    const scenario::ScenarioReport report = scenario::replay_shards(
        fast, index, lanes, /*threads=*/1, /*batch_size=*/256);
    const std::uint64_t delta = alloc_count() - before;
    EXPECT_EQ(report.packets, packets);
    EXPECT_EQ(report.wrong_egress, 0u);
    return delta;
  };

  (void)replay(512);  // warm any lazy state before comparing deltas
  const std::uint64_t small = replay(512);
  const std::uint64_t large = replay(5120);
  EXPECT_EQ(small, large)
      << "replay_shards allocation count scales with packet count -- the "
         "replay_slice hot loop is allocating per packet";
}

TEST(AllocGuard, ClosedLoopSimAllocationsIndependentOfFlowCount) {
  const scenario::ScenarioSpec* base =
      scenario::find_scenario("torus4x4/hotspot");
  ASSERT_NE(base, nullptr);
  scenario::ScenarioSpec spec = *base;
  spec.traffic.packets = 4096;
  spec.traffic.max_pairs = 64;
  spec.traffic.seed = 5;
  scenario::BuiltFabric fabric(scenario::build_topology(spec));
  fabric.compile_all_pairs(1);
  const scenario::PacketStream stream =
      scenario::generate_traffic(fabric, spec.traffic);

  // The same packets cut into flows of 32 or of 4: only the flow count
  // (and the closed-loop dynamics it drives) changes between the runs.
  const auto run = [&](std::size_t flow_packets, std::size_t* flows) {
    sim::SimOptions options;
    options.flow_packets = flow_packets;
    options.flow_gap_ns = 10'000;
    options.transport.enabled = true;
    const std::uint64_t before = alloc_count();
    const sim::SimReport report = sim::SimRunner(options).run(fabric, stream);
    const std::uint64_t delta = alloc_count() - before;
    EXPECT_EQ(report.completed_flows + report.transport.abandoned_flows,
              report.flows);
    *flows = report.flows;
    return delta;
  };

  std::size_t few = 0;
  std::size_t many = 0;
  const std::uint64_t small = run(32, &few);
  const std::uint64_t large = run(4, &many);
  ASSERT_GE(many, 4 * few) << "the flow count must actually grow";
  // A heap block per flow would add hundreds here (one per extra flow
  // at least); pooled state adds only a few geometric growths.
  EXPECT_LE(large, small + 64)
      << "closed-loop SimRunner::run allocations scale with the flow count "
         "(" << few << " flows: " << small << ", " << many
      << " flows: " << large << ")";
}

}  // namespace
}  // namespace hp::polka
