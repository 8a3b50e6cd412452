// Object-level Reed-Solomon erasure codec: applies RseCodec per block
// according to an RsePlan, exposing the flat global packet-id space used
// by the schedulers and sessions.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fec/block_partition.h"
#include "fec/rse.h"

namespace fecsched {

/// The generators of a plan's blocks: one RseCodec per distinct (k, n)
/// block geometry (an RFC 5052 partition has at most two), so each
/// Vandermonde square is inverted once per geometry, not once per block.
class RseBlockCodecs {
 public:
  explicit RseBlockCodecs(const RsePlan& plan);

  /// Codec of block `b`.
  [[nodiscard]] const RseCodec& operator[](std::uint32_t b) const {
    return codecs_[of_block_[b]];
  }
  /// Distinct geometries built.
  [[nodiscard]] std::size_t geometries() const noexcept {
    return codecs_.size();
  }

 private:
  std::vector<RseCodec> codecs_;
  std::vector<std::uint32_t> of_block_;  ///< block -> index into codecs_
};

/// Sender-side encoder for a whole (blocked) object.
class RseObjectEncoder {
 public:
  /// `source` holds the object's k source symbols (equal sizes) in object
  /// order; the plan determines segmentation.  The symbols are moved in
  /// (pass a copy to keep your own).
  RseObjectEncoder(std::shared_ptr<const RsePlan> plan,
                   std::vector<std::vector<std::uint8_t>> source);

  [[nodiscard]] const RsePlan& plan() const noexcept { return *plan_; }

  /// Payload of any global packet id (source ids return the original
  /// symbol; parity ids return the precomputed parity symbol).
  [[nodiscard]] const std::vector<std::uint8_t>& payload(PacketId id) const;

 private:
  std::shared_ptr<const RsePlan> plan_;
  std::vector<std::vector<std::uint8_t>> source_;  // by global source id
  std::vector<std::vector<std::uint8_t>> parity_;  // by global parity id - k
};

/// Receiver-side incremental decoder for a whole (blocked) object.
///
/// Packets are fed in arrival order; each block is solved as soon as it
/// has k_b distinct packets (the MDS property).  `complete()` flips once
/// every block is decoded.  A block's symbols live in one buffer of k_b
/// rows (received parity beside it until the block decodes), and all
/// blocks decode through one reused workspace.
class RseObjectDecoder {
 public:
  RseObjectDecoder(std::shared_ptr<const RsePlan> plan, std::size_t symbol_size);

  /// Feed one received packet.  Duplicate ids and packets of decoded or
  /// released blocks are ignored.  Returns true if this packet completed
  /// the whole object.  When `known` is non-null, every source id this
  /// call made available is appended to it (the vector is not cleared):
  /// the packet itself if it is a source, then — if it completed its
  /// block — the block's missing sources in index order.
  bool on_packet(PacketId id, std::span<const std::uint8_t> payload,
                 std::vector<PacketId>* known = nullptr);

  [[nodiscard]] bool complete() const noexcept {
    return decoded_blocks_ == plan_->block_count();
  }
  [[nodiscard]] bool block_decoded(std::uint32_t b) const {
    return blocks_.at(b).decoded;
  }

  /// Source symbol by global source id: available once it arrived or its
  /// block decoded, until the block is released (throws std::logic_error
  /// otherwise).
  [[nodiscard]] std::span<const std::uint8_t> source_symbol(PacketId id) const;

  /// Frees block `b`'s symbols and ignores its later packets — for a
  /// streaming receiver that consumed the block or gave up on it.
  void release(std::uint32_t b);

  /// Distinct useful packets absorbed so far.
  [[nodiscard]] std::uint32_t packets_used() const noexcept { return used_; }

 private:
  struct BlockState {
    std::vector<std::uint8_t> rows;    ///< k_b source rows, once touched
    std::vector<std::uint8_t> parity;  ///< received parity, until decoded
    std::vector<std::uint32_t> parity_index;
    std::uint32_t received = 0;
    bool decoded = false;
    bool released = false;
  };

  void decode_block(std::uint32_t b, std::vector<PacketId>* known);

  std::shared_ptr<const RsePlan> plan_;
  RseBlockCodecs codecs_;
  std::size_t symbol_size_;
  std::vector<BlockState> blocks_;
  std::vector<char> seen_;
  std::vector<ReceivedSymbol> views_;  ///< decode scratch
  RseWorkspace workspace_;             ///< decode scratch, reused across blocks
  std::uint32_t decoded_blocks_ = 0;
  std::uint32_t used_ = 0;
};

}  // namespace fecsched
