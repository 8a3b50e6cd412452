// Sender side of the net engine: payload bytes and wire frames for the
// emissions of a StreamPlan (stream/stream_plan).
//
// The plan is the same one the simulation twin runs, so every transmission
// decision (schedule, repair pacing and windows, replication duplicate
// picks, seeds) is shared by construction; this class only synthesizes
// payloads, encodes, and builds frames.  The driver in net_trial.cc owns
// the pacing (stream/stream_receiver's run_slots) — which is what makes
// sim-vs-wire parity checkable: any delivered-delay difference is a
// transport bug, not a schedule drift.
//
// Source payloads are synthesized deterministically from the trial seed
// (substream {4, s}), so the receiver can regenerate the expected bytes
// of ANY source — including FEC-recovered ones it never saw on the wire
// — and byte-verify the whole stream end to end.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "fec/rse_object.h"
#include "net/wire.h"
#include "stream/sliding_window.h"
#include "stream/stream_plan.h"

namespace fecsched::net {

class NetSender {
 public:
  /// Builds all per-stream coding state over `plan`: source payloads, the
  /// sliding encoder or the block code's parity.
  NetSender(std::shared_ptr<const StreamPlan> plan, std::size_t payload_bytes,
            std::uint32_t object_id);
  /// Shorthand building its own plan; `cfg` must already be validated.
  NetSender(const StreamTrialConfig& cfg, std::size_t payload_bytes,
            std::uint64_t seed, std::uint32_t object_id);

  /// Deterministic payload of source `s` (substream {4, s} of `seed`) —
  /// the shared ground truth receiver-side verification regenerates.
  static void source_payload(std::uint64_t seed, std::uint64_t s,
                             std::size_t bytes, std::vector<std::uint8_t>& out);

  /// Frame for plan packet `p`.  A sliding-window sender must be given its
  /// packets in plan order (each source advances the encoder's window).
  void frame(const StreamPacket& p, DataFrame& out);

  // ----- paced schemes, stepping through the plan's emissions -----

  /// Frame for source `s`, the next emission.
  void source_frame(std::uint64_t s, DataFrame& out);
  /// Frame for the repair emitted after `produced` sources, the next
  /// emission.
  void repair_frame(std::uint64_t produced, DataFrame& out);

  // ----- block schemes -----

  /// The single-cycle transmission order (the carousel loops it).
  [[nodiscard]] const std::vector<PacketId>& schedule() const noexcept {
    return plan_->schedule();
  }
  /// Frame for global packet id `id` (source or parity).
  void packet_frame(PacketId id, DataFrame& out);

 private:
  /// The next paced emission, which must be source `n` (or the repair
  /// after `n` sources).
  const StreamEmission& next_emission(bool repair, std::uint64_t n);

  std::shared_ptr<const StreamPlan> plan_;
  std::size_t payload_bytes_;
  std::uint32_t object_id_;
  std::size_t next_ = 0;  ///< source_frame / repair_frame cursor

  /// All S sources; block-rse moves them into rse_ instead.
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::vector<std::uint8_t>> parity_;  ///< LDGM ids [S, n)
  std::optional<RseObjectEncoder> rse_;            ///< block-rse sources + parity
  std::optional<SlidingWindowEncoder> encoder_;
  RepairPacket repair_scratch_;
};

}  // namespace fecsched::net
