// Event-queue layer bench: the classic hold model (pop the earliest
// event, push one successor) at a fixed pending size, on the packet
// sim's own tick shape.
//
//   hold/radix/<pending>        -- sim::EventQueue, the radix heap the
//                                  packet sim runs on.
//   hold/binary_heap/<pending>  -- std::priority_queue on (at, seq),
//                                  the comparison-heap reference.
//
// Deltas are tie-heavy and 10 us-grained, mixed like a closed-loop run
// (about half arrivals, a third drains, a sixth timers): 30-120 us
// serialization (drain), serialization + 1 ms link latency (arrival),
// and a 4 ms RTO (timer).  items_per_second is events popped (one pop
// and one push per iteration); pending sizes 256 / 4,096 / 65,536
// span the closed loop's in-flight set up to a preloaded open loop.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <cstddef>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"

namespace {

using hp::sim::Event;
using hp::sim::EventQueue;
using hp::sim::Tick;

constexpr Tick kUs = 1'000;

/// A fixed cyclic delta table, so the timed loop draws no random
/// numbers.
std::vector<Tick> make_deltas() {
  std::mt19937_64 rng(1);
  std::vector<Tick> deltas(4096);
  for (Tick& d : deltas) {
    const Tick serialize = (3 + rng() % 10) * 10 * kUs;  // 30..120 us
    const std::uint64_t kind = rng() % 6;
    if (kind < 3) {
      d = serialize + 1'000 * kUs;  // arrival after 1 ms of latency
    } else if (kind < 5) {
      d = serialize;  // drain
    } else {
      d = 4'000 * kUs;  // RTO timer
    }
  }
  return deltas;
}

void BM_HoldRadix(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  const std::vector<Tick> deltas = make_deltas();
  std::size_t next = 0;
  const auto delta = [&] { return deltas[next++ % deltas.size()]; };
  EventQueue q;
  for (std::size_t i = 0; i < pending; ++i) q.push(delta(), 0, 0);
  for (auto _ : state) {
    const Event e = q.pop();
    q.push(e.at + delta(), e.kind, e.arg);
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
}

void BM_HoldBinaryHeap(benchmark::State& state) {
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };
  const auto pending = static_cast<std::size_t>(state.range(0));
  const std::vector<Tick> deltas = make_deltas();
  std::size_t next = 0;
  const auto delta = [&] { return deltas[next++ % deltas.size()]; };
  std::priority_queue<Event, std::vector<Event>, Later> q;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < pending; ++i) q.push({delta(), seq++, 0, 0});
  for (auto _ : state) {
    const Event e = q.top();
    q.pop();
    q.push({e.at + delta(), seq++, e.kind, e.arg});
  }
  benchmark::DoNotOptimize(q.size());
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_HoldRadix)->Name("hold/radix")->Arg(256)->Arg(4096)->Arg(65536);
BENCHMARK(BM_HoldBinaryHeap)
    ->Name("hold/binary_heap")
    ->Arg(256)
    ->Arg(4096)
    ->Arg(65536);

}  // namespace

int main(int argc, char** argv) {
  return hp::benchjson::run_and_export(argc, argv, "event_queue");
}
