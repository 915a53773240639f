#include "sim/transport.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/contracts.hpp"
#include "obs/metrics.hpp"

namespace hp::sim {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
/// Timer-arg bit of a flow-open kick; the low bits are the flow index.
constexpr std::uint32_t kOpen = 1u << 31;

}  // namespace

std::size_t epoch_at(const std::vector<RouteEpoch>& epochs, Tick at) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < epochs.size(); ++i) {  // timelines are tiny
    if (epochs[i].from <= at) best = i;
  }
  return best;
}

Transport::Transport(PacketSim& sim, TransportOptions options,
                     std::uint64_t packet_bytes, obs::MetricRegistry* metrics)
    : sim_(sim), options_(options), packet_bytes_(packet_bytes) {
  HP_CHECK(options_.init_cwnd >= 1,
           "TransportOptions: init_cwnd must be at least one packet");
  HP_CHECK(options_.max_cwnd >= options_.init_cwnd,
           "TransportOptions: max_cwnd must be >= init_cwnd");
  HP_CHECK(options_.rto_min_ns >= 1,
           "TransportOptions: rto_min_ns must be positive");
  HP_CHECK(options_.rto_max_ns >= options_.rto_min_ns,
           "TransportOptions: rto_max_ns must be >= rto_min_ns");
  HP_CHECK(options_.max_retries >= 1,
           "TransportOptions: max_retries must be at least one");
  if (metrics != nullptr) {
    obs_.cwnd = &metrics->histogram("sim.tp.cwnd");
    obs_.rto_ns = &metrics->histogram("sim.tp.rto_ns");
  }
}

std::uint32_t Transport::add_lane(std::vector<RouteEpoch> epochs) {
  if (epochs.empty() || epochs.front().from != 0) {
    throw std::invalid_argument(
        "Transport::add_lane: timeline must start with a from=0 epoch");
  }
  if (!std::ranges::is_sorted(epochs, {}, &RouteEpoch::from)) {
    throw std::invalid_argument(
        "Transport::add_lane: epochs must be sorted by adoption tick");
  }
  lanes_.push_back(std::move(epochs));
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

std::uint32_t Transport::add_flow(std::uint32_t lane, std::uint32_t source,
                                  Tick start, Tick pace_ns,
                                  std::uint32_t packets) {
  if (lane >= lanes_.size()) {
    throw std::invalid_argument("Transport::add_flow: unknown lane");
  }
  if (packets == 0) {
    throw std::invalid_argument("Transport::add_flow: empty flow");
  }
  HP_CHECK(state_.size() + packets < kNone,
           "Transport::add_flow: sequence pools exceed 32-bit indexing");
  HP_CHECK(flows_.size() < kOpen,
           "Transport::add_flow: flow count exceeds the timer-arg range");
  Flow f;
  f.lane = lane;
  f.source = source;
  f.start = start;
  f.pace_ns = pace_ns;
  f.total = packets;
  f.first = static_cast<std::uint32_t>(state_.size());
  f.first_epoch = static_cast<std::uint32_t>(sim_flow_.size());
  f.cwnd = options_.init_cwnd;
  f.next_send = start;
  const std::size_t end = state_.size() + packets;
  state_.resize(end, SeqState::kPending);
  tries_.resize(end, 0);
  sent_at_.resize(end, 0);
  last_packet_.resize(end, kNone);
  lost_ring_.resize(end, 0);
  sim_flow_.resize(sim_flow_.size() + lanes_[lane].size(), kNone);
  flows_.push_back(f);
  report_.offered_bytes += packet_bytes_ * packets;
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void Transport::reserve(std::size_t flows, std::size_t packets,
                        std::size_t epochs) {
  flows_.reserve(flows);
  state_.reserve(packets);
  tries_.reserve(packets);
  sent_at_.reserve(packets);
  last_packet_.reserve(packets);
  lost_ring_.reserve(packets);
  sim_flow_.reserve(epochs);
}

void Transport::arm() {
  HP_CHECK(!armed_, "Transport::arm called twice");
  armed_ = true;
  report_.enabled = true;
  sim_.attach(*this);
  // Flow-open kicks, told apart from RTO wakes by the kOpen bit.
  for (std::uint32_t i = 0; i < flows_.size(); ++i) {
    (void)sim_.schedule_timer(flows_[i].start, i | kOpen);
  }
}

Tick Transport::rto_base(const Flow& f) const {
  if (f.srtt_ns == 0) return options_.rto_min_ns;
  return std::clamp(2 * f.srtt_ns, options_.rto_min_ns, options_.rto_max_ns);
}

Tick Transport::rto_current(const Flow& f) const {
  Tick r = rto_base(f);
  for (std::uint32_t i = 0; i < f.backoff; ++i) {
    if (r >= options_.rto_max_ns / 2) return options_.rto_max_ns;
    r *= 2;
  }
  return std::min(r, options_.rto_max_ns);
}

std::uint32_t Transport::ensure_sim_flow(Flow& f, std::size_t epoch_index) {
  std::uint32_t& handle = sim_flow_[f.first_epoch + epoch_index];
  if (handle == kNone) {
    handle = sim_.add_flow(lanes_[f.lane][epoch_index].expected);
    if (handle >= flow_of_.size()) flow_of_.resize(handle + 1, kNone);
    flow_of_[handle] = static_cast<std::uint32_t>(&f - flows_.data());
  }
  return handle;
}

void Transport::push_lost(Flow& f, std::uint32_t seq) {
  HP_DCHECK(f.lost_count < f.total, "Transport: retransmit ring overflow");
  lost_ring_[f.first + (f.lost_head + f.lost_count) % f.total] = seq;
  ++f.lost_count;
}

std::uint32_t Transport::pop_lost(Flow& f) {
  HP_DCHECK(f.lost_count > 0, "Transport: pop from an empty retransmit ring");
  const std::uint32_t seq = lost_ring_[f.first + f.lost_head];
  f.lost_head = f.lost_head + 1 == f.total ? 0 : f.lost_head + 1;
  --f.lost_count;
  return seq;
}

void Transport::arm_timer(Flow& f, std::uint32_t flow_index, Tick at) {
  // A deadline later than the pending wake only reserves its place in
  // the event order; the wake pushes it when it fires (on_timer).
  const bool push = !f.wake_pending || at <= f.wake.at;
  f.rto = {at, push ? sim_.schedule_timer(at, flow_index)
                    : sim_.reserve_timer_seq()};
  f.rto_armed = true;
  if (push) {
    f.wake = f.rto;
    f.wake_pending = true;
  }
  if (f.horizon < f.rto) {
    f.horizon = f.rto;
    f.horizon_pushed = push;
  }
}

void Transport::disarm_timer(Flow& f) { f.rto_armed = false; }

void Transport::send_seq(Flow& f, std::uint32_t flow_index, std::uint32_t seq,
                         Tick t) {
  const Tick at = std::max(t, f.next_send);
  const std::size_t epoch_index = epoch_at(lanes_[f.lane], at);
  const RouteEpoch& epoch = lanes_[f.lane][epoch_index];
  const std::uint32_t handle = ensure_sim_flow(f, epoch_index);
  const std::uint32_t packet =
      sim_.inject(at, epoch.label, epoch.ref, f.source, handle);
  // Slots are recycled, so the table grows only with the in-flight peak.
  if (packet >= tags_.size()) tags_.resize(packet + 1);
  tags_[packet] = {flow_index, seq};
  f.next_send = at + f.pace_ns;
  if (!f.sent_any) {
    f.sent_any = true;
    f.first_send = at;
  }
  const std::uint32_t slot = f.first + seq;
  state_[slot] = SeqState::kOutstanding;
  ++f.outstanding;
  ++tries_[slot];
  sent_at_[slot] = at;
  last_packet_[slot] = packet;
  ++report_.packets_sent;
  if (tries_[slot] > 1) ++report_.retransmits;
  if (!f.rto_armed) arm_timer(f, flow_index, at + rto_current(f));
}

void Transport::try_send(Flow& f, Tick t) {
  const auto flow_index = static_cast<std::uint32_t>(&f - flows_.data());
  while (!f.abandoned && f.outstanding < f.cwnd) {
    // Skip entries whose sequence a stale copy meanwhile delivered.
    while (f.lost_count > 0 &&
           state_[f.first + lost_ring_[f.first + f.lost_head]] !=
               SeqState::kLost) {
      (void)pop_lost(f);
    }
    std::uint32_t seq = kNone;
    if (f.lost_count > 0) {
      // Retransmissions go ahead of new data (sending fresh sequences
      // past known losses would just feed the same congested queue),
      // rate-limited to one loss-triggered resend per RTT window --
      // see Flow::next_fast_rtx.  The armed RTO covers the wait.
      if (t < f.next_fast_rtx) return;
      seq = pop_lost(f);
      if (tries_[f.first + seq] > options_.max_retries) {
        // Graceful degradation: this sequence burned its retry budget,
        // so the flow stops competing instead of retrying forever.
        abandon(f);
        return;
      }
    } else {
      if (f.next_seq >= f.total) return;
      seq = f.next_seq++;
    }
    send_seq(f, flow_index, seq, t);
    if (tries_[f.first + seq] > 1) f.next_fast_rtx = t + rto_base(f);
  }
}

void Transport::cut_window(Flow& f, Tick t, bool ecn) {
  // One multiplicative decrease per RTT-estimate window: a whole burst
  // of marks/drops from one congestion event is one signal.
  if (t < f.next_cut_at) return;
  f.next_cut_at = t + (f.srtt_ns != 0 ? f.srtt_ns : options_.rto_min_ns);
  f.cwnd = std::max<std::uint32_t>(1, f.cwnd / 2);
  f.ack_credit = 0;
  ++(ecn ? report_.ecn_cwnd_cuts : report_.drop_cwnd_cuts);
  if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
}

void Transport::abandon(Flow& f) {
  f.abandoned = true;
  f.lost_count = 0;
  disarm_timer(f);
  ++report_.abandoned_flows;
}

void Transport::on_ecn(std::uint32_t sim_flow) {
  if (sim_flow >= flow_of_.size() || flow_of_[sim_flow] == kNone) return;
  Flow& f = flows_[flow_of_[sim_flow]];
  if (done(f)) return;
  cut_window(f, sim_.now(), /*ecn=*/true);
}

void Transport::on_delivered(Tick t, std::uint32_t packet) {
  if (packet >= tags_.size()) return;
  const PacketTag tag = tags_[packet];
  Flow& f = flows_[tag.flow];
  const std::uint32_t slot = f.first + tag.seq;
  if (state_[slot] == SeqState::kDelivered) {
    // A retransmitted copy of data that already arrived.
    ++report_.spurious_deliveries;
    return;
  }
  if (state_[slot] == SeqState::kOutstanding) {
    --f.outstanding;
    if (last_packet_[slot] == packet) {
      // RTT sample from the live copy only; a stale copy's age says
      // nothing about the current path.
      const Tick sample = t - sent_at_[slot];
      f.srtt_ns = f.srtt_ns == 0 ? sample : (7 * f.srtt_ns + sample) / 8;
    }
  }
  state_[slot] = SeqState::kDelivered;
  ++f.delivered;
  f.last_delivery = std::max(f.last_delivery, t);
  report_.goodput_bytes += packet_bytes_;
  if (f.abandoned) return;  // late arrivals still count as goodput
  f.backoff = 0;  // fresh feedback resets the exponential backoff
  if (++f.ack_credit >= f.cwnd) {  // additive increase, once per window
    f.ack_credit = 0;
    if (f.cwnd < options_.max_cwnd) {
      ++f.cwnd;
      if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
    }
  }
  if (f.delivered == f.total) {
    ++completed_;
    disarm_timer(f);
    return;
  }
  // Re-arm: the timeout now covers the oldest still-unresolved data.
  arm_timer(f, tag.flow, t + rto_current(f));
  try_send(f, t);
}

void Transport::on_dropped(Tick t, std::uint32_t packet, DropCause cause) {
  if (cause != DropCause::kTailDrop) {
    // A dead wire or a TTL kill gives the sender nothing to observe;
    // only the retransmission timer recovers these.
    return;
  }
  if (packet >= tags_.size()) return;
  const PacketTag tag = tags_[packet];
  Flow& f = flows_[tag.flow];
  const std::uint32_t slot = f.first + tag.seq;
  if (f.abandoned) return;
  if (last_packet_[slot] != packet) return;  // stale copy; live one governs
  if (state_[slot] != SeqState::kOutstanding) return;
  state_[slot] = SeqState::kLost;
  --f.outstanding;
  push_lost(f, tag.seq);
  cut_window(f, t, /*ecn=*/false);
  try_send(f, t);
}

void Transport::on_timer(Tick t, std::uint64_t seq, std::uint32_t arg) {
  const std::uint32_t flow_index = arg & ~kOpen;
  HP_DCHECK(flow_index < flows_.size(), "Transport: timer for unknown flow");
  Flow& f = flows_[flow_index];
  if ((arg & kOpen) != 0) {
    if (!f.abandoned) try_send(f, t);
    return;
  }
  const EventKey fired{t, seq};
  // An older wake, superseded by a push for an earlier deadline (or the
  // pending horizon): the flow's latest wake keeps the chain going.
  if (!f.wake_pending || fired != f.wake) return;
  f.wake_pending = false;
  if (f.rto_armed && fired == f.rto) expire(f, flow_index, t);
  if (f.wake_pending) return;  // the expiry's resend armed a new wake
  // Keep one wake pending: for the live deadline when this one fired
  // early, else on to the latest deadline ever armed.  Both lie
  // strictly after `t`: a deadline at the wake's tick was pushed.
  EventKey next;
  if (f.rto_armed) {
    next = f.rto;
  } else if (f.horizon.at > t && !f.horizon_pushed) {
    next = f.horizon;
  } else {
    return;
  }
  sim_.schedule_deferred_timer(next.at, next.seq, flow_index);
  f.wake = next;
  f.wake_pending = true;
  if (next == f.horizon) f.horizon_pushed = true;
}

void Transport::expire(Flow& f, std::uint32_t flow_index, Tick t) {
  f.rto_armed = false;
  if (done(f)) return;
  ++f.timeouts;
  timeout_log_.push_back({flow_index, t});
  ++report_.timeouts;
  if (f.backoff < 63) ++f.backoff;  // exponential backoff (rto_max caps it)
  if (obs_.rto_ns != nullptr) obs_.rto_ns->record(rto_current(f));
  // Go-back-N: every outstanding sequence is presumed lost, oldest
  // first, and the window collapses to one packet.
  for (std::uint32_t seq = 0; seq < f.total && f.outstanding > 0; ++seq) {
    if (state_[f.first + seq] == SeqState::kOutstanding) {
      state_[f.first + seq] = SeqState::kLost;
      --f.outstanding;
      push_lost(f, seq);
    }
  }
  f.cwnd = 1;
  f.ack_credit = 0;
  if (obs_.cwnd != nullptr) obs_.cwnd->record(f.cwnd);
  f.next_fast_rtx = 0;  // the expiry overrides the fast-resend limit
  try_send(f, t);
}

Transport::FlowView Transport::flow_view(std::uint32_t flow) const {
  if (flow >= flows_.size()) {
    throw std::invalid_argument("Transport::flow_view: unknown flow");
  }
  const Flow& f = flows_[flow];
  FlowView view;
  view.cwnd = f.cwnd;
  view.rto_ns = rto_current(f);
  view.timeouts = f.timeouts;
  view.delivered = f.delivered;
  view.abandoned = f.abandoned;
  view.completed = !f.abandoned && f.delivered == f.total;
  view.fct_ns = view.completed ? f.last_delivery - f.first_send : 0;
  view.timeout_at.reserve(f.timeouts);
  for (const TimeoutRec& rec : timeout_log_) {
    if (rec.flow == flow) view.timeout_at.push_back(rec.at);
  }
  return view;
}

std::vector<Tick> Transport::completed_fct_ns() const {
  std::vector<Tick> out;
  out.reserve(completed_);
  for (const Flow& f : flows_) {
    if (!f.abandoned && f.delivered == f.total) {
      out.push_back(f.last_delivery - f.first_send);
    }
  }
  return out;
}

}  // namespace hp::sim
