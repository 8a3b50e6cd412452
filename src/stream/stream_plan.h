// The sender's half of one streaming trial, built once from (cfg, seed):
// which code protects the stream and in what order its packets go out.
//
// Every streaming engine replays the same plan.  The single-path trial
// (stream/stream_trial) draws each slot from an in-process channel, the
// net engine (src/net/) carries each slot over a real datagram transport,
// and the multipath trial (src/mpath/) spreads the slots over K paths.
// Because they share one plan, the 1-path multipath and the net-vs-sim
// oracles hold by construction rather than by keeping copies in sync.
//
// Seed derivations: {1} the block schedule Rng, {2} the sliding-window
// coefficient seed, {3} the LDGM graph.  ({0} is the channel substream,
// {4, s} the payload of source s; both belong to the engines.)

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "stream/sliding_window.h"

namespace fecsched {

/// FEC protection applied to the stream.
enum class StreamScheme { kSlidingWindow, kReplication, kBlockRse, kLdgm };

[[nodiscard]] constexpr std::string_view to_string(StreamScheme s) noexcept {
  switch (s) {
    case StreamScheme::kSlidingWindow: return "sliding-window";
    case StreamScheme::kReplication: return "replication";
    case StreamScheme::kBlockRse: return "block-rse";
    case StreamScheme::kLdgm: return "ldgm";
  }
  return "?";
}

/// Paced schemes emit sources as produced with repairs interleaved at a
/// fixed rate; the others are block codes sent on a schedule.
[[nodiscard]] constexpr bool is_paced(StreamScheme s) noexcept {
  return s == StreamScheme::kSlidingWindow || s == StreamScheme::kReplication;
}

/// Packet scheduling for the block schemes (ignored by kSlidingWindow and
/// kReplication, which are inherently sequential).
enum class StreamScheduling {
  kSequential,   ///< each block: its sources, then its parity
  kInterleaved,  ///< Tx_model_5 order (sched/tx_models)
  kCarousel,     ///< sequential schedule looped up to max_cycles times
};

[[nodiscard]] constexpr std::string_view to_string(
    StreamScheduling s) noexcept {
  switch (s) {
    case StreamScheduling::kSequential: return "sequential";
    case StreamScheduling::kInterleaved: return "interleaved";
    case StreamScheduling::kCarousel: return "carousel";
  }
  return "?";
}

/// Everything that defines one streaming trial.
struct StreamTrialConfig {
  StreamScheme scheme = StreamScheme::kSlidingWindow;
  StreamScheduling scheduling = StreamScheduling::kSequential;
  std::uint32_t source_count = 2000;  ///< stream length in source packets
  /// Repair overhead (n-k)/k.  The sliding/replication schemes realise it
  /// as one repair every round(1/overhead) sources; the block schemes as
  /// the expansion ratio 1 + overhead.
  double overhead = 0.25;
  std::uint32_t window = 64;   ///< sliding window W / replication span
  std::uint32_t block_k = 64;  ///< target sources per RSE block
  std::uint32_t max_cycles = 4;  ///< kCarousel repetitions
  SlidingCoefficients coefficients = SlidingCoefficients::kRandomGf256;
  LdgmVariant ldgm_variant = LdgmVariant::kStaircase;
  std::uint32_t left_degree = 3;
  std::uint32_t triangle_extra_per_row = 1;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
  /// round(1/overhead), the sliding/replication repair pacing.
  [[nodiscard]] std::uint32_t repair_interval() const;
};

/// One stream packet as the receiver sees it: the wire frame's symbol id,
/// repair flag and coverage span (net/wire.h).
struct StreamPacket {
  /// Paced schemes: source seq, or source_count + repair index.  Block
  /// schemes: the code's PacketId.
  std::uint64_t id = 0;
  /// Sliding-window repair: covered sources [first, last).  Replication
  /// repair: the duplicated source (first == last).  Otherwise 0.
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool repair = false;
};

/// One slot of a paced scheme's emission sequence.
struct StreamEmission {
  StreamPacket packet;
  /// Sources produced once this slot goes out: id + 1 for a source; for a
  /// repair, the count its window was taken over.
  std::uint64_t produced = 0;
  /// Last slot of one production step (a source, plus its repair when one
  /// is due); end-of-stream tail repairs belong to no step.
  bool step_end = false;
};

/// No RSE block ends in this slot (see StreamPlan::block_ending_at).
inline constexpr std::uint32_t kNoBlock = 0xffffffffu;

/// The sender's decisions for one trial.  build() keeps every vector's
/// allocation, so a workspace that reuses one plan stops allocating once
/// warm (apart from the code objects themselves).
class StreamPlan {
 public:
  StreamPlan() = default;
  /// Shorthand for build(cfg, seed).
  StreamPlan(const StreamTrialConfig& cfg, std::uint64_t seed);

  /// Derive everything from (cfg, seed); `cfg` must already be validated.
  void build(const StreamTrialConfig& cfg, std::uint64_t seed);

  [[nodiscard]] const StreamTrialConfig& config() const noexcept {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint32_t source_count() const noexcept {
    return cfg_.source_count;
  }

  /// Slot of each source's first transmission (its delay origin).
  [[nodiscard]] std::uint64_t tx_slot(std::uint64_t s) const {
    return tx_slot_[s];
  }
  /// The seed tag a wire frame carries: the sliding or LDGM seed, 0 for
  /// the seedless schemes.
  [[nodiscard]] std::uint64_t coding_seed() const noexcept {
    return coding_seed_;
  }

  // ----- paced schemes (sliding-window / replication) -----

  /// The sliding-window code instance (seed {2}).
  [[nodiscard]] const SlidingWindowConfig& sliding() const noexcept {
    return sliding_;
  }
  /// Every slot in order: one source per step, one repair after every
  /// `repair_interval`-th source, then one window's worth of tail repairs.
  [[nodiscard]] std::span<const StreamEmission> emissions() const noexcept {
    return emissions_;
  }
  /// The sources a repair taken over `produced` sources covers: the last
  /// min(W, produced) of them, as [first, last).
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> repair_window(
      std::uint64_t produced) const noexcept {
    return {produced >= cfg_.window ? produced - cfg_.window : 0, produced};
  }
  /// Horizon the receiver gives up below once `e` has gone out: a source
  /// W behind the newest produced one can no longer be covered by any
  /// repair.  0 when `e` moves no deadline.
  [[nodiscard]] std::uint64_t give_up_after(
      const StreamEmission& e) const noexcept {
    return !e.packet.repair && e.produced > cfg_.window
               ? e.produced - cfg_.window
               : 0;
  }

  // ----- block schemes (block-rse / ldgm) -----

  /// The RSE block geometry (block-rse only, else null).
  [[nodiscard]] const std::shared_ptr<const RsePlan>& rse() const noexcept {
    return rse_;
  }
  /// The LDGM graph (ldgm only, else null).
  [[nodiscard]] const std::shared_ptr<const LdgmCode>& ldgm() const noexcept {
    return ldgm_;
  }
  /// Code length n of the block code.
  [[nodiscard]] std::uint32_t code_length() const noexcept {
    return rse_ ? rse_->n() : ldgm_->n();
  }
  /// One cycle of the transmission order (a carousel loops it).
  [[nodiscard]] const std::vector<PacketId>& schedule() const noexcept {
    return schedule_;
  }
  /// Schedule repetitions: max_cycles for a carousel, else 1.
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  /// The packet block-scheme id `id` goes out as.
  [[nodiscard]] StreamPacket block_packet(PacketId id) const noexcept {
    return {id, 0, 0, id >= cfg_.source_count};
  }
  /// The RSE block whose last scheduled packet goes out in `slot`, or
  /// kNoBlock.  Only a single-cycle RSE schedule has block ends: a
  /// carousel always has another cycle coming.
  [[nodiscard]] std::uint32_t block_ending_at(std::uint64_t slot) const {
    return block_end_.empty() ? kNoBlock : block_end_[slot];
  }

 private:
  void build_paced();
  void build_block();

  StreamTrialConfig cfg_;
  std::uint64_t seed_ = 0;
  std::uint64_t coding_seed_ = 0;
  std::vector<std::uint64_t> tx_slot_;

  SlidingWindowConfig sliding_;
  std::vector<StreamEmission> emissions_;

  std::shared_ptr<const RsePlan> rse_;
  std::shared_ptr<const LdgmCode> ldgm_;
  std::vector<PacketId> schedule_;
  std::uint64_t cycles_ = 1;
  std::vector<std::uint32_t> block_end_;   ///< by slot: block ending, or kNoBlock
  std::vector<std::uint32_t> block_last_;  ///< by block: its last slot
};

}  // namespace fecsched
