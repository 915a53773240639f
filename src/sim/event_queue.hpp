#pragma once
// Monotone event queue with integer timestamps: a radix heap on `at`
// (Ahuja, Mehlhorn, Orlin & Tarjan, "Faster algorithms for the
// shortest path problem", J. ACM 1990).
//
// The discrete-event data plane (src/sim/packet_sim.hpp) advances by
// popping the earliest pending event; simulated time is a plain
// std::uint64_t nanosecond counter (`Tick`), never a double, so event
// ordering -- and therefore every simulated result -- is bit-exact
// across runs, compilers and machines.  Events carry only POD payload
// (a kind tag and one 32-bit argument); the engine owns all state and
// interprets the payload, keeping the entries 24 bytes.
//
// Simulated time never rewinds, so the queue only has to be monotone:
// no push lands before `last_`, the tick of the most recent refill
// (the last popped tick).  Bucket b > 0 holds the events whose highest
// bit differing from `last_` is bit b-1; bucket 0 holds the events at
// exactly `last_` and is read through a head cursor.  When bucket 0
// runs dry, refill() takes the first non-empty bucket, raises `last_`
// to its minimum tick and re-files its events into the lower buckets,
// all empty at that point.  Each event moves down at most 64 times,
// and pushes and pops are a vector append and a cursor step.
//
// Same-time events fire in (at, seq) order -- the property the
// determinism tests pin down.  Every push stamps a strictly increasing
// sequence number and appends.  take_seq() hands out the next number
// without pushing: the engine orders something it tracks itself (a
// channel departure) or schedules later (a deferred timer) exactly
// where a push at that moment would have.  push_deferred() files an
// event under such an earlier number, so a bucket may fall out of
// `seq` order; it must land strictly after the floor, and refill()
// restores the order of the one bucket that is popped from, bucket 0
// (a single tick), when it finds it unsorted.
// All bucket vectors keep their capacity, so a long or phased run
// re-uses the storage of its first pending peak.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace hp::sim {

/// Simulated time in integer nanoseconds.
using Tick = std::uint64_t;

/// One scheduled occurrence.  `kind` and `arg` are interpreted by the
/// engine that pushed the event (e.g. packet arrival at a node vs a
/// transport timer).
struct Event {
  Tick at = 0;            ///< absolute simulated time
  std::uint64_t seq = 0;  ///< order stamp; breaks same-tick ties
  std::uint32_t kind = 0;
  std::uint32_t arg = 0;
};

// Entries stay 24 bytes (tick + seq + packed payload): three words per
// event for every append and re-file.
HP_ASSERT_HOT_POD(Event, 24);

/// A place in the queue's total (at, seq) order, kept by an engine for
/// something it tracks without a pending event (see take_seq()).
struct EventKey {
  Tick at = 0;
  std::uint64_t seq = 0;
  friend auto operator<=>(const EventKey&, const EventKey&) = default;
};

/// Monotone min-queue of events ordered by (at, seq).
class EventQueue {
 public:
  /// Schedule `kind(arg)` at absolute time `at`.  A push before the
  /// queue's floor -- the last popped tick, or the tick top() last
  /// returned -- is a contract violation (always checked): it would be
  /// filed in the wrong bucket and silently break the order.  Returns
  /// the sequence number the event was stamped with.
  std::uint64_t push(Tick at, std::uint32_t kind, std::uint32_t arg) {
    HP_CHECK(at >= last_, "EventQueue: push scheduled before the last pop");
    const std::uint64_t seq = next_seq_++;
    buckets_[bucket_of(at)].push_back(Event{at, seq, kind, arg});
    ++size_;
    return seq;
  }

  /// Take the sequence number the next push would stamp, without
  /// pushing.  Same-tick order treats it as a push made now.
  std::uint64_t take_seq() noexcept { return next_seq_++; }

  /// Schedule `kind(arg)` at `at` under `seq`, a number take_seq()
  /// handed out earlier.  `at` must be strictly after the floor
  /// (always checked): the floor tick's events are already being
  /// popped, and one filed among them late would break their order.
  void push_deferred(Tick at, std::uint64_t seq, std::uint32_t kind,
                     std::uint32_t arg) {
    HP_CHECK(at > last_, "EventQueue: deferred push at or before the floor");
    HP_DCHECK(seq < next_seq_, "EventQueue: deferred push of an untaken seq");
    buckets_[bucket_of(at)].push_back(Event{at, seq, kind, arg});
    ++size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The earliest pending event.  Refills, so it raises the floor that
  /// push() checks to this event's tick.  Calling on an empty queue is
  /// a contract violation (checked in debug builds).
  [[nodiscard]] const Event& top() {
    HP_DCHECK(!empty(), "EventQueue::top on an empty queue");
    refill();
    return buckets_[0][head_];
  }

  /// Remove and return the earliest pending event.
  Event pop() {
    HP_DCHECK(!empty(), "EventQueue::pop on an empty queue");
    refill();
    --size_;
    return buckets_[0][head_++];
  }

 private:
  [[nodiscard]] std::size_t bucket_of(Tick at) const noexcept {
    return static_cast<std::size_t>(std::bit_width(at ^ last_));
  }

  /// Make buckets_[0][head_] the earliest pending event (non-empty
  /// queue only).
  void refill() {
    std::vector<Event>& front = buckets_[0];
    if (head_ < front.size()) return;
    front.clear();
    head_ = 0;
    std::size_t b = 1;
    while (buckets_[b].empty()) ++b;
    std::vector<Event>& from = buckets_[b];
    last_ = std::min_element(from.begin(), from.end(),
                             [](const Event& x, const Event& y) noexcept {
                               return x.at < y.at;
                             })
                ->at;
    for (const Event& e : from) buckets_[bucket_of(e.at)].push_back(e);
    from.clear();
    // Deferred pushes append out of seq order; bucket 0 is one tick.
    const auto by_seq = [](const Event& x, const Event& y) noexcept {
      return x.seq < y.seq;
    };
    if (!std::ranges::is_sorted(front, by_seq)) {
      std::ranges::sort(front, by_seq);
    }
  }

  std::array<std::vector<Event>, 65> buckets_;
  std::size_t head_ = 0;  ///< next unpopped entry of buckets_[0]
  std::size_t size_ = 0;
  Tick last_ = 0;  ///< floor: every pending event is at or after it
  std::uint64_t next_seq_ = 0;
};

}  // namespace hp::sim
