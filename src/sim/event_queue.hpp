#pragma once
// Two-tier event queue with integer timestamps: a sorted pre-run
// backlog plus a binary heap.
//
// The discrete-event data plane (src/sim/packet_sim.hpp) advances by
// popping the earliest pending event; simulated time is a plain
// std::uint64_t nanosecond counter (`Tick`), never a double, so event
// ordering -- and therefore every simulated result -- is bit-exact
// across runs, compilers and machines.  Events carry only POD payload
// (a kind tag and one 32-bit argument); the engine owns all state and
// interprets the payload, keeping the entries 24 bytes.
//
// Most events of a run are known before the clock starts: open-loop
// injections, flow-open kicks, link-state changes.  Pushing them all
// into the heap would make every in-loop push and pop pay O(log n) on
// the whole preloaded stream.  Instead, pushes made while the queue is
// idle (before the first pop, or after it fully drained) append to a
// plain backlog vector; the first pop sorts it once and then reads it
// through a cursor.  Pushes made while draining -- the events the loop
// itself schedules -- go to the heap, which therefore holds only
// in-flight work.  pop() takes the smaller (at, seq) of the backlog
// cursor and the heap top.  Both tiers are stamped from one sequence
// counter, so the popped order is exactly the total (at, seq) order a
// single heap would produce.  Both vectors keep their capacity across
// drains, so a phased run re-uses the storage of the previous phase.
//
// Same-time events fire in push order: every push stamps a strictly
// increasing sequence number that breaks timestamp ties, the property
// the determinism tests pin down.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/contracts.hpp"

namespace hp::sim {

/// Simulated time in integer nanoseconds.
using Tick = std::uint64_t;

/// One scheduled occurrence.  `kind` and `arg` are interpreted by the
/// engine that pushed the event (e.g. packet arrival at a node vs a
/// channel queue drain).
struct Event {
  Tick at = 0;            ///< absolute simulated time
  std::uint64_t seq = 0;  ///< push order; breaks same-tick ties FIFO
  std::uint32_t kind = 0;
  std::uint32_t arg = 0;
};

// Entries stay 24 bytes (tick + seq + packed payload) so both tiers are
// three words per event and sift operations stay memcpy-cheap.
HP_ASSERT_HOT_POD(Event, 24);

/// Min-queue of events ordered by (at, seq).
///
/// A sorted backlog of the events pushed while idle, merged on the fly
/// with a std::push_heap/std::pop_heap binary heap of the events pushed
/// while draining -- O(log k) push/pop in the k in-flight events, no
/// node allocations.
class EventQueue {
 public:
  /// Schedule `kind(arg)` at absolute time `at` (>= the caller's
  /// current time by convention; the queue itself does not check).
  void push(Tick at, std::uint32_t kind, std::uint32_t arg) {
    const Event e{at, next_seq_++, kind, arg};
    if (draining_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), After{});
    } else {
      backlog_.push_back(e);
    }
  }

  [[nodiscard]] bool empty() const noexcept {
    return cursor_ == backlog_.size() && heap_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return backlog_.size() - cursor_ + heap_.size();
  }

  /// The earliest pending event.  Calling on an empty queue is a
  /// contract violation (checked in debug builds).
  [[nodiscard]] const Event& top() {
    HP_DCHECK(!empty(), "EventQueue::top on an empty queue");
    settle();
    return from_backlog() ? backlog_[cursor_] : heap_.front();
  }

  /// Remove and return the earliest pending event.
  Event pop() {
    HP_DCHECK(!empty(), "EventQueue::pop on an empty queue");
    settle();
    Event e;
    if (from_backlog()) {
      e = backlog_[cursor_++];
    } else {
      std::pop_heap(heap_.begin(), heap_.end(), After{});
      e = heap_.back();
      heap_.pop_back();
    }
    if (empty()) {  // fully drained: the next pushes start a new backlog
      backlog_.clear();
      cursor_ = 0;
      draining_ = false;
    }
    return e;
  }

 private:
  /// "a fires after b": the std::*_heap comparator producing a min-heap
  /// on (at, seq).
  struct After {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Leave the idle state: sort the backlog and route later pushes to
  /// the heap.
  void settle() {
    if (draining_) return;
    std::sort(backlog_.begin(), backlog_.end(),
              [](const Event& a, const Event& b) noexcept {
                return After{}(b, a);
              });
    draining_ = true;
  }

  /// Whether the backlog cursor precedes the heap top (settled only).
  [[nodiscard]] bool from_backlog() const noexcept {
    if (cursor_ == backlog_.size()) return false;
    return heap_.empty() || After{}(heap_.front(), backlog_[cursor_]);
  }

  std::vector<Event> backlog_;  ///< idle pushes, sorted on settle
  std::size_t cursor_ = 0;      ///< next unpopped backlog entry
  std::vector<Event> heap_;     ///< pushes made while draining
  bool draining_ = false;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hp::sim
