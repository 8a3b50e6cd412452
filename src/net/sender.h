// Sender side of the net engine: turns the stream trial's transmission
// decisions into wire frames with real payload bytes.
//
// The sender is deliberately a mirror of run_stream_trial's sender half:
// the same seed derivations ({1} schedule Rng, {2} sliding seed, {3}
// LDGM graph), the same schedule construction, the same repair pacing
// conventions (wire symbol ids continue past the source ids, replication
// duplicates round-robin over the last min(W, produced) sources).  The
// lockstep driver in net_trial.cc owns the pacing; this class only
// builds frames — which is what makes sim-vs-wire parity checkable: any
// delivered-delay difference is a transport bug, not a schedule drift.
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

#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/rse_object.h"
#include "net/wire.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"

namespace fecsched::net {

class NetSender {
 public:
  /// Builds all per-stream coding state: source payloads, the sliding
  /// encoder or block code (with parity pre-encoded), and the block
  /// schedule.  `cfg` must already be validated.
  NetSender(const StreamTrialConfig& cfg, std::size_t payload_bytes,
            std::uint64_t seed, std::uint32_t object_id);

  /// Deterministic payload of source `s` (substream {4, s} of `seed`) —
  /// the shared ground truth receiver-side verification regenerates.
  static void source_payload(std::uint64_t seed, std::uint64_t s,
                             std::size_t bytes, std::vector<std::uint8_t>& out);

  // ----- paced schemes (sliding-window / replication) -----

  /// Frame for source `s`.  Must be called once per source, in order
  /// (it also advances the sliding encoder's window).
  void source_frame(std::uint64_t s, DataFrame& out);

  /// Frame for the next repair, emitted after `produced` sources.
  void repair_frame(std::uint64_t produced, DataFrame& out);

  // ----- block schemes (block-rse / ldgm) -----

  /// The single-cycle transmission order (the carousel loops it).
  [[nodiscard]] const std::vector<PacketId>& schedule() const noexcept {
    return schedule_;
  }

  /// Frame for global packet id `id` (source or parity).
  void packet_frame(PacketId id, DataFrame& out);

  /// The seed tag stamped into every frame (sliding seed / LDGM seed; 0
  /// for the seedless schemes).  Receivers cross-check it.
  [[nodiscard]] std::uint64_t coding_seed() const noexcept {
    return coding_seed_;
  }

 private:
  void fill_common(DataFrame& out) const;

  StreamTrialConfig cfg_;
  std::size_t payload_bytes_;
  std::uint64_t seed_;
  std::uint32_t object_id_;
  std::uint64_t coding_seed_ = 0;

  /// All S sources; block-rse moves them into rse_ instead.
  std::vector<std::vector<std::uint8_t>> payloads_;
  std::vector<std::vector<std::uint8_t>> parity_;  ///< LDGM ids [S, n)
  std::optional<RseObjectEncoder> rse_;            ///< block-rse sources + parity
  std::optional<SlidingWindowEncoder> encoder_;
  RepairPacket repair_scratch_;
  std::uint64_t repl_repairs_ = 0;
  std::shared_ptr<const RsePlan> plan_;
  std::shared_ptr<const LdgmCode> ldgm_;
  std::vector<PacketId> schedule_;
};

}  // namespace fecsched::net
