// The receiver's half of one streaming trial, shared by every engine: the
// structure decoders, the in-order DelayTracker protocol and the give-up
// rules, fed by whatever carries a StreamPlan's packets.
//
//  * StreamReceiver — MDS block counting (block-rse), the peeling decoder
//    (ldgm) and the sliding-window decoder (sliding-window), each with an
//    optional payload mode; replication needs only an availability map.
//    A source becomes available when it arrives or is recovered and is
//    released as lost when the decoder gives up on it.
//  * run_slots — the single-path driver: one packet per channel slot in
//    plan order, through a *link* that decides each packet's fate and
//    hands what arrived to the receiver.  stream/stream_trial's link
//    draws an in-process channel; the net engine's sends real frames and
//    delivers the parsed frame.  The multipath trial replays arrivals in
//    its own time order into the same receiver.
//
// The scheme is dispatched once per trial (with_scheme): the per-packet
// entry points are templates on it, with no virtual call, std::function
// or allocation on the packet path once the receiver is warm.

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "fec/peeling_decoder.h"
#include "obs/obs.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"
#include "stream/stream_plan.h"

namespace fecsched {

/// Outcome of one streaming trial.
struct StreamTrialResult {
  DelaySummary delay;
  ResidualLossStats residual;
  /// Release-time delay (slots) of every delivered source, release order —
  /// the full distribution, kept for the CLI's JSON output.
  std::vector<double> delays;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  double overhead_actual = 0.0;  ///< repair packets actually sent / sources
  bool all_delivered = false;    ///< no source was released as lost
};

/// A scheme known at compile time; the per-packet entry points take one.
template <StreamScheme kScheme>
using SchemeTag = std::integral_constant<StreamScheme, kScheme>;

/// Calls f(SchemeTag<s>{}): the one scheme dispatch of a trial.
template <class F>
decltype(auto) with_scheme(StreamScheme s, F&& f) {
  switch (s) {
    case StreamScheme::kSlidingWindow:
      return f(SchemeTag<StreamScheme::kSlidingWindow>{});
    case StreamScheme::kReplication:
      return f(SchemeTag<StreamScheme::kReplication>{});
    case StreamScheme::kBlockRse:
      return f(SchemeTag<StreamScheme::kBlockRse>{});
    case StreamScheme::kLdgm:
      break;
  }
  return f(SchemeTag<StreamScheme::kLdgm>{});
}

/// Decode state and delay accounting for one trial of a StreamPlan.
/// Every member is re-initialised by reset(), so reuse across trials only
/// saves allocations.
class StreamReceiver {
 public:
  /// Bind to `plan` (which must outlive the trial) and restart.  A
  /// non-zero `payload_bytes` runs the sliding-window and peeling decoders
  /// in payload mode.
  void reset(const StreamPlan& plan, std::size_t payload_bytes = 0);

  /// A packet arrived at time `t` (`payload` is empty in structure-only
  /// mode).  Calls on_available(s) for each source it made available, in
  /// the order the tracker saw them.
  template <StreamScheme kScheme, class OnAvailable>
  void on_packet(SchemeTag<kScheme>, const StreamPacket& p,
                 std::span<const std::uint8_t> payload, double t,
                 OnAvailable&& on_available);

  /// Paced schemes: every source below `horizon` still missing is lost.
  void give_up_before(std::uint64_t horizon, double t);
  /// Block-rse: block `b` can receive nothing more; if it did not decode,
  /// its missing sources are lost.
  void block_ended(std::uint32_t b, double t);
  /// The sender is done: everything still missing is lost.
  void flush(double t);
  /// Every source released (available or lost)?  A carousel stops here,
  /// standing in for the receiver's acknowledgement.
  [[nodiscard]] bool complete() const noexcept { return tracker_.drained(); }

  /// The trial's result from the tracker and the channel-level counts.
  [[nodiscard]] StreamTrialResult finish(std::uint64_t sent,
                                         std::uint64_t received) const;

  /// Payload-mode decoders, for byte verification of available sources.
  [[nodiscard]] const SlidingWindowDecoder& sliding() const {
    return *decoder_;
  }
  [[nodiscard]] const PeelingDecoder& peeler() const { return *peeler_; }

 private:
  const StreamPlan* plan_ = nullptr;
  obs::Hook hook_;
  DelayTracker tracker_;
  /// Paced: per source, available (replication) — block: per PacketId,
  /// received or (sources) released.
  std::vector<char> seen_;

  std::optional<SlidingWindowDecoder> decoder_;
  std::size_t decoder_bytes_ = 0;
  RepairPacket repair_;                  ///< sliding repair being fed
  std::vector<std::uint64_t> settled_;   ///< seqs one decoder call settled
  std::uint64_t horizon_ = 0;            ///< replication give-up line

  std::vector<std::uint32_t> block_received_;  ///< distinct packets, <= k_b

  std::optional<PeelingDecoder> peeler_;
  std::vector<PacketId> recovered_;  ///< sources one LDGM packet recovered
};

template <StreamScheme kScheme, class OnAvailable>
void StreamReceiver::on_packet(SchemeTag<kScheme>, const StreamPacket& p,
                               std::span<const std::uint8_t> payload, double t,
                               OnAvailable&& on_available) {
  if constexpr (kScheme == StreamScheme::kSlidingWindow) {
    hook_.timed(obs::Phase::kDecode, [&] {
      if (!p.repair) {
        decoder_->on_source(p.id, payload, settled_);
      } else {
        repair_.repair_seq = p.id - plan_->source_count();
        repair_.first = p.first;
        repair_.last = p.last;
        repair_.payload.assign(payload.begin(), payload.end());
        decoder_->on_repair(repair_, settled_);
      }
    });
    for (const std::uint64_t s : settled_) {
      tracker_.on_available(s, t);
      on_available(s);
    }
    settled_.clear();
  } else if constexpr (kScheme == StreamScheme::kReplication) {
    // The original and every duplicate deliver the same source.
    const std::uint64_t s = p.repair ? p.first : p.id;
    if (!seen_[s]) {
      seen_[s] = 1;
      tracker_.on_available(s, t);
      on_available(s);
    }
  } else {
    const auto id = static_cast<PacketId>(p.id);
    if (seen_[id]) return;
    seen_[id] = 1;
    if constexpr (kScheme == StreamScheme::kBlockRse) {
      const RsePlan& rse = *plan_->rse();
      const std::uint32_t b = rse.position(id).block;
      if (id < plan_->source_count()) {
        tracker_.on_available(id, t);
        on_available(id);
      }
      // MDS: k_b distinct packets solve the block (sim/tracker rule);
      // every source not received directly is recovered now.  A block
      // stays solved once its count reaches k_b.
      const BlockInfo& info = rse.block(b);
      if (block_received_[b] == info.k || ++block_received_[b] < info.k)
        return;
      for (PacketId src = info.source_offset; src < info.source_offset + info.k;
           ++src)
        if (!seen_[src]) {
          seen_[src] = 1;
          tracker_.on_available(src, t);
          on_available(src);
        }
    } else {
      recovered_.clear();
      hook_.timed(obs::Phase::kDecode,
                  [&] { peeler_->add_packet(id, payload, &recovered_); });
      // Ascending, so the tracker and trace see each packet's recoveries
      // in source order.
      std::sort(recovered_.begin(), recovered_.end());
      for (const PacketId s : recovered_) {
        tracker_.on_available(s, t);
        on_available(s);
      }
    }
  }
}

/// What run_slots put through the link.
struct SlotCounts {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

/// The single-path trial: every slot of `plan` in order through a link.
/// `transmit(scheme, packet, slot)` decides the packet's fate, hands what
/// arrived to `rx` (StreamReceiver::on_packet) and returns whether it
/// did; `step_end()` runs after each production step.  Ends with the
/// receiver flushed at the final slot.
template <StreamScheme kScheme, class Transmit, class StepEnd>
SlotCounts run_slots(SchemeTag<kScheme> scheme, const StreamPlan& plan,
                     StreamReceiver& rx, Transmit&& transmit,
                     StepEnd&& step_end) {
  SlotCounts n;
  if constexpr (is_paced(kScheme)) {
    for (const StreamEmission& e : plan.emissions()) {
      n.received += transmit(scheme, e.packet, n.sent) ? 1 : 0;
      ++n.sent;
      if (const std::uint64_t h = plan.give_up_after(e))
        rx.give_up_before(h, static_cast<double>(n.sent));
      if (e.step_end) step_end();
    }
  } else {
    // No back channel: a single-pass sender emits its whole schedule
    // regardless; only the carousel stops spinning once everything has
    // been delivered.
    const std::vector<PacketId>& schedule = plan.schedule();
    const std::uint64_t budget = schedule.size() * plan.cycles();
    for (std::size_t i = 0;
         n.sent < budget && (plan.cycles() == 1 || !rx.complete());) {
      n.received +=
          transmit(scheme, plan.block_packet(schedule[i]), n.sent) ? 1 : 0;
      if constexpr (kScheme == StreamScheme::kBlockRse) {
        const std::uint32_t b = plan.block_ending_at(n.sent);
        if (b != kNoBlock) rx.block_ended(b, static_cast<double>(n.sent));
      }
      ++n.sent;
      if (++i == schedule.size()) i = 0;
      step_end();
    }
  }
  rx.flush(static_cast<double>(n.sent));
  return n;
}

}  // namespace fecsched
