// Receiver side of the net engine: parsed wire frames in, the simulation
// twin's exact delivery/loss decisions out.
//
// Decoding, delay accounting and give-up are the StreamReceiver core
// (stream/stream_receiver) the single-path and multipath trials run, fed
// with the *parsed* frame's symbol id, coverage span and payload — so the
// delivered-delay distribution is the simulation's bit for bit exactly
// when the wire carries every field intact.  The driver in net_trial.cc
// calls on_slot() once per channel slot: with the parsed frame when the
// impairment shim passed it, with nullptr when the emulated link ate it.
//
// Around the core the receiver adds what only a real transport can check:
//  * frame validation — object id / scheme / coding seed mismatches and
//    ids, spans or payload sizes outside the stream are counted as
//    rejects, never decoded;
//  * byte verification — every source that becomes available (received
//    OR FEC-recovered) is compared against the deterministic ground
//    truth regenerated from the trial seed; block-rse bytes are decoded
//    by an RseObjectDecoder beside the core's MDS count;
//  * loss reporting — the per-slot loss trace is compressed into
//    adapt::LossReport frames (wire.h) for the reverse path, closing
//    the src/adapt/ estimator loop over the wire.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fec/rse_object.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "stream/stream_plan.h"
#include "stream/stream_receiver.h"

namespace fecsched::net {

class NetReceiver {
 public:
  /// Receives the stream `plan` describes (the sender's plan: a pure
  /// function of config and seed, the out-of-band code configuration).
  NetReceiver(std::shared_ptr<const StreamPlan> plan,
              std::size_t payload_bytes, std::uint32_t object_id);
  /// Shorthand building its own plan; `cfg` must already be validated.
  NetReceiver(const StreamTrialConfig& cfg, std::size_t payload_bytes,
              std::uint64_t seed, std::uint32_t object_id);

  /// One channel slot: `frame` is the delivered frame or nullptr for an
  /// impairment drop.  A frame that passes validation goes to the core's
  /// StreamReceiver::on_packet.
  void on_slot(const ParsedFrame* frame, std::uint64_t slot);
  /// on_slot for a scheme the caller already dispatched on.
  template <StreamScheme kScheme>
  void on_slot(SchemeTag<kScheme> scheme, const ParsedFrame* frame,
               std::uint64_t slot);

  /// The decode core, for the driver's give-up, flush and completion
  /// calls and the trial result.
  [[nodiscard]] StreamReceiver& core() noexcept { return core_; }

  /// LossReport over the slots since the previous report (the per-slot
  /// loss trace, compressed to the Gilbert sufficient statistic).
  [[nodiscard]] ReportFrame take_report();
  /// Slots observed since the last take_report().
  [[nodiscard]] std::uint64_t pending_events() const noexcept {
    return events_.size();
  }

  [[nodiscard]] std::uint64_t sources_verified() const noexcept {
    return verified_;
  }
  [[nodiscard]] std::uint64_t payload_mismatches() const noexcept {
    return mismatches_;
  }
  /// Delivered frames refused before decode: wrong object id, scheme
  /// tag, coding seed or payload size, a symbol id or coverage span
  /// outside the stream, or a report frame on the data path.
  [[nodiscard]] std::uint64_t frames_rejected() const noexcept {
    return rejected_;
  }

 private:
  void verify(std::uint64_t s, std::span<const std::uint8_t> payload);
  [[nodiscard]] bool accept(const ParsedFrame& frame) const;

  const obs::Hook hook_;
  std::shared_ptr<const StreamPlan> plan_;
  std::size_t payload_bytes_;
  std::uint32_t object_id_;
  StreamReceiver core_;
  std::optional<RseObjectDecoder> rse_;  ///< block-rse byte store
  std::vector<bool> events_;  ///< loss trace since the last report (true = lost)

  // Verification scratch.
  std::vector<std::uint8_t> expected_;
  std::uint64_t verified_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t rejected_ = 0;
};

template <StreamScheme kScheme>
void NetReceiver::on_slot(SchemeTag<kScheme> scheme, const ParsedFrame* parsed,
                          std::uint64_t slot) {
  events_.push_back(parsed == nullptr);
  if (parsed == nullptr) return;
  if (!accept(*parsed)) {
    ++rejected_;
    return;
  }
  const DataFrame& frame = parsed->data;
  const StreamPacket packet{frame.symbol_id, frame.span_first, frame.span_last,
                            frame.repair};
  if constexpr (kScheme == StreamScheme::kBlockRse)
    hook_.timed(obs::Phase::kDecode, [&] {
      rse_->on_packet(static_cast<PacketId>(packet.id), frame.payload);
    });
  core_.on_packet(scheme, packet, frame.payload, static_cast<double>(slot),
                  [&](std::uint64_t s) {
                    if constexpr (kScheme == StreamScheme::kSlidingWindow)
                      verify(s, core_.sliding().symbol(s));
                    else if constexpr (kScheme == StreamScheme::kReplication)
                      verify(s, frame.payload);
                    else if constexpr (kScheme == StreamScheme::kBlockRse)
                      verify(s, rse_->source_symbol(static_cast<PacketId>(s)));
                    else
                      verify(s, core_.peeler().symbol(static_cast<PacketId>(s)));
                  });
  // A decoded block has been verified in full: drop its symbols.
  if constexpr (kScheme == StreamScheme::kBlockRse) {
    const std::uint32_t b =
        plan_->rse()->position(static_cast<PacketId>(packet.id)).block;
    if (rse_->block_decoded(b)) rse_->release(b);
  }
}

}  // namespace fecsched::net
