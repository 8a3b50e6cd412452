// Structure-only decoding trackers for the simulation (Sec. 4.1).
//
// A tracker answers one question as packets arrive: "can the receiver
// reconstruct the object yet?"  No payload bytes move — only the decoding
// state machine runs, which is what makes the paper's 14x14x100-trial
// sweeps cheap.  Each FEC code has its own completion rule:
//
//  * RSE (MDS, blocked): a block decodes once k_b *distinct* packets of
//    that block arrived; the object decodes when every block has.
//  * LDGM-*: the iterative peeling decoder completes (all k sources known).
//  * Replication: every source packet was received at least once.
//
// Trackers ignore duplicates internally ("each non duplicated incoming
// packet...", Sec. 2.3.2); counting the cost of duplicates is the trial
// runner's job.

#pragma once

#include <memory>
#include <optional>

#include "fec/block_partition.h"
#include "fec/ge_decoder.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/replication.h"
#include "fec/types.h"

namespace fecsched {

/// Incremental "can we decode yet?" oracle for one receiver and object.
class ErasureTracker {
 public:
  virtual ~ErasureTracker() = default;

  /// Feed one arriving packet (duplicates are safe and ignored).
  virtual void on_packet(PacketId id) = 0;
  /// True once the whole object is recoverable.
  [[nodiscard]] virtual bool complete() const = 0;
  /// Restart for a new trial (keeps allocations where possible).
  virtual void reset() = 0;

  /// Working memory a real decoder would hold right now, in packet-sized
  /// symbols, excluding the decoded output itself (the paper lists "the
  /// maximum memory requirements" as a future-work metric; run_trial
  /// tracks the peak of this value):
  ///  * RSE buffers received packets of each block until the block solves;
  ///  * LDGM substitutes arrivals into its n-k check accumulators
  ///    immediately, so its working set is constant;
  ///  * replication needs no working memory at all.
  [[nodiscard]] virtual std::uint32_t working_memory_symbols() const {
    return 0;
  }
};

/// MDS per-block counting tracker for blocked Reed-Solomon.
class RseTracker final : public ErasureTracker {
 public:
  explicit RseTracker(std::shared_ptr<const RsePlan> plan);

  void on_packet(PacketId id) override;
  [[nodiscard]] bool complete() const override {
    return satisfied_blocks_ == plan_->block_count();
  }
  void reset() override;
  /// Packets buffered in not-yet-solved blocks.
  [[nodiscard]] std::uint32_t working_memory_symbols() const override {
    return buffered_;
  }

 private:
  std::shared_ptr<const RsePlan> plan_;
  std::vector<char> seen_;
  std::vector<std::uint32_t> received_per_block_;
  std::uint32_t satisfied_blocks_ = 0;
  std::uint32_t buffered_ = 0;
};

/// Peeling-decoder tracker for the LDGM family.  Optionally finishes a
/// stuck decode with the Gaussian-elimination fallback (ML decoding
/// ablation) the moment enough packets could make it complete.
class LdgmTracker final : public ErasureTracker {
 public:
  /// The code (graph) must outlive the tracker.
  explicit LdgmTracker(std::shared_ptr<const LdgmCode> code,
                       bool ge_fallback = false);

  /// Inline structure-only peeling (the grid's hot path); `id` must be
  /// below n (checked in debug and sanitizer builds only).
  void on_packet(PacketId id) override {
    if (complete_) return;
    decoder_.add_packet_structural(id);
    if (decoder_.source_complete()) {
      complete_ = true;
      return;
    }
    if (ge_fallback_) try_ge();
  }
  [[nodiscard]] bool complete() const override { return complete_; }
  void reset() override;

  [[nodiscard]] const PeelingDecoder& decoder() const noexcept {
    return decoder_;
  }
  /// The n-k check-equation accumulators (constant for the whole decode).
  [[nodiscard]] std::uint32_t working_memory_symbols() const override {
    return decoder_.matrix().rows();
  }

 private:
  /// The strided Gaussian-elimination attempt of the ML ablation.
  void try_ge();

  std::shared_ptr<const LdgmCode> code_;
  PeelingDecoder decoder_;
  bool ge_fallback_;
  bool complete_ = false;
  std::uint32_t since_ge_attempt_ = 0;
};

/// Distinct-source bitmap tracker for the x-times replication baseline.
class ReplicationTracker final : public ErasureTracker {
 public:
  explicit ReplicationTracker(std::shared_ptr<const ReplicationPlan> plan);

  void on_packet(PacketId id) override;
  [[nodiscard]] bool complete() const override {
    return distinct_ == plan_->k();
  }
  void reset() override;

 private:
  std::shared_ptr<const ReplicationPlan> plan_;
  std::vector<char> have_;
  std::uint32_t distinct_ = 0;
};

}  // namespace fecsched
