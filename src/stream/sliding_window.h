// Systematic sliding-window (convolutional) erasure code over GF(2^8).
//
// The paper's pipelines measure bulk-object decodability; this code is the
// delay-sensitive counterpart studied by Karzand et al. ("FEC for Lower
// In-Order Delivery Delay in Packet Networks"): source packets are
// transmitted verbatim as they are produced, and every `repair_interval`
// source packets the encoder emits one repair packet — a GF(2^8) linear
// combination of the last W source packets.  A lost source packet can be
// recovered as soon as enough *later* repair packets covering it arrive,
// instead of waiting for the end of a block, which is what makes the
// in-order delivery delay of sliding-window codes dominate block codes on
// bursty channels at matched overhead.
//
// The decoder keeps the received repair equations in reduced row-echelon
// form over GF(2^8) (on-the-fly Gauss-Jordan elimination within the
// window, the streaming analogue of fec/ge_decoder's residual solve):
// every arriving source packet is substituted into the active equations,
// every arriving repair packet is reduced against the current pivots, and
// any equation left with a single unknown recovers that source
// immediately.  The form is maintained incrementally, one row at a time;
// since the reduced row-echelon form of a system is unique, this yields
// exactly the equations a full re-elimination would.
// Decoding is *delay-limited*: once the window has slid W source packets
// past an unrecovered source, no future repair can cover it any more, so
// it is declared lost (releasing head-of-line blocked successors — see
// stream/delay_tracker).
//
// Coefficient modes:
//  * kRandomGf256 (default) — dense pseudo-random non-zero coefficients
//    derived from (seed, repair_seq, source_seq); repairs are linearly
//    independent with high probability.
//  * kBinary — every coefficient is 1 (each repair is the XOR of its
//    window).  Because GF(2^8) is an extension field of GF(2), the rank of
//    a 0/1 system is identical over both fields, so this mode is *exactly*
//    as decodable as the binary system fec/ge_decoder solves — the
//    property the cross-check tests rely on.
//
// Structure-only mode (symbol_size == 0) runs the same equation
// bookkeeping without payload bytes, mirroring sim/tracker.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fec/sparse_matrix.h"
#include "fec/symbol_arena.h"
#include "util/rng.h"

namespace fecsched {

/// How repair coefficients are drawn.
enum class SlidingCoefficients {
  kRandomGf256,  ///< pseudo-random non-zero GF(2^8) (default)
  kBinary,       ///< all ones: repair = XOR of window (GF(2) cross-check)
};

/// Parameters of a sliding-window code instance.  Sender and receiver must
/// agree on the whole struct (it travels out-of-band, like an LDGM seed).
struct SlidingWindowConfig {
  /// Window size W: a repair packet covers the last min(W, produced)
  /// source packets.  Also the decoding deadline: a source packet is
  /// declared lost once the newest produced source is W past it.
  std::uint32_t window = 64;
  /// One repair packet is emitted after every `repair_interval` source
  /// packets; the repair overhead is 1/repair_interval.
  std::uint32_t repair_interval = 4;
  SlidingCoefficients coefficients = SlidingCoefficients::kRandomGf256;
  std::uint64_t seed = 0x57e4a11dULL;

  /// (n-k)/k repair overhead this configuration sustains.
  [[nodiscard]] double overhead() const noexcept {
    return repair_interval ? 1.0 / repair_interval : 0.0;
  }
  /// Throws std::invalid_argument unless window >= 1, repair_interval >= 1.
  void validate() const;
};

/// One repair packet: which source span it covers plus (payload mode) the
/// combined bytes.  Coefficients are recomputed from the shared config.
struct RepairPacket {
  std::uint64_t repair_seq = 0;
  std::uint64_t first = 0;  ///< first covered source seq (inclusive)
  std::uint64_t last = 0;   ///< one past the last covered source seq
  std::vector<std::uint8_t> payload;  ///< empty in structure-only mode
};

/// The coefficients of one repair packet.  The (seed, repair_seq) prefix
/// of the derivation is hashed once at construction, so each covered
/// source costs one SplitMix round.  This is the one definition: the
/// encoder, the decoder and sliding_coefficient all go through it.
class RepairCoefficients {
 public:
  RepairCoefficients(const SlidingWindowConfig& cfg,
                     std::uint64_t repair_seq) noexcept
      : prefix_(derive_seed(cfg.seed, {repair_seq})),
        binary_(cfg.coefficients == SlidingCoefficients::kBinary) {}

  /// Coefficient of source `source_seq` (non-zero; 1 in binary mode).
  [[nodiscard]] std::uint8_t operator()(std::uint64_t source_seq) const noexcept {
    if (binary_) return 1;
    return static_cast<std::uint8_t>(1 + derive_step(prefix_, source_seq) % 255);
  }

 private:
  std::uint64_t prefix_;
  bool binary_;
};

/// The deterministic coefficient of source `source_seq` in repair
/// `repair_seq` (non-zero; 1 in binary mode).
[[nodiscard]] inline std::uint8_t sliding_coefficient(
    const SlidingWindowConfig& cfg, std::uint64_t repair_seq,
    std::uint64_t source_seq) noexcept {
  return RepairCoefficients(cfg, repair_seq)(source_seq);
}

/// Sender side: buffers the last W source symbols and combines them into
/// repair packets on demand (the caller owns the pacing).
class SlidingWindowEncoder {
 public:
  /// symbol_size == 0 selects the structure-only mode.
  explicit SlidingWindowEncoder(const SlidingWindowConfig& config,
                                std::size_t symbol_size = 0);

  [[nodiscard]] const SlidingWindowConfig& config() const noexcept {
    return config_;
  }
  /// Source packets produced so far (the next source seq).
  [[nodiscard]] std::uint64_t source_count() const noexcept { return next_; }
  [[nodiscard]] std::uint64_t repair_count() const noexcept {
    return repairs_;
  }

  /// Produce the next source packet.  In payload mode `payload` must hold
  /// symbol_size bytes.  Returns its source seq.
  std::uint64_t push_source(std::span<const std::uint8_t> payload = {});

  /// Combine the last min(W, source_count) sources into the next repair
  /// packet.  Throws std::logic_error before the first source.
  [[nodiscard]] RepairPacket make_repair();

  /// Allocation-reusing variant: fills `out` in place (out.payload keeps
  /// its capacity across calls).
  void make_repair(RepairPacket& out);

 private:
  SlidingWindowConfig config_;
  std::size_t symbol_size_;
  std::uint64_t next_ = 0;
  std::uint64_t repairs_ = 0;
  /// Last W payloads as a flat ring: source seq s lives in arena row
  /// s % window (payload mode only).
  SymbolArena history_;
};

/// Receiver side: incremental GF(2^8) Gauss-Jordan elimination over the
/// active window.
///
/// The three feed calls append the seqs whose fate they settled to a
/// caller-owned vector (not cleared first), so a trial loop that reuses
/// one vector allocates nothing per packet.  State is indexed by seq:
/// memory grows with the largest known seq, by 1 byte per seq plus
/// symbol_size in payload mode.
class SlidingWindowDecoder {
 public:
  explicit SlidingWindowDecoder(const SlidingWindowConfig& config,
                                std::size_t symbol_size = 0);

  [[nodiscard]] const SlidingWindowConfig& config() const noexcept {
    return config_;
  }

  /// Restart for a new stream under a (possibly different) configuration,
  /// keeping the solver scratch allocations — the trial-workspace path.
  void reset(const SlidingWindowConfig& config);

  /// Feed one received source packet (`payload` is ignored in
  /// structure-only mode).  Appends to `newly` the source seqs that became
  /// known as a result: the packet itself if new, then any recoveries its
  /// substitution cascaded, ascending.  Appends nothing for a duplicate or
  /// a seq already past the deadline.
  void on_source(std::uint64_t seq, std::span<const std::uint8_t> payload,
                 std::vector<std::uint64_t>& newly);

  /// Feed one received repair packet.  Appends newly recovered source seqs
  /// to `newly` (ascending).  Throws std::invalid_argument on a payload
  /// size mismatch or a span with first > last or wider than the window.
  void on_repair(const RepairPacket& repair, std::vector<std::uint64_t>& newly);

  /// Advance the decoding deadline: every still-unknown source seq below
  /// `horizon` is declared unrecoverable and the equations pinned on it
  /// are discarded.  Appends the seqs newly declared lost to `newly_lost`
  /// (ascending).  The horizon never moves backwards.
  void give_up_before(std::uint64_t horizon,
                      std::vector<std::uint64_t>& newly_lost);

  [[nodiscard]] std::uint64_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] bool is_known(std::uint64_t seq) const noexcept {
    return seq < known_.size() && known_[seq] != 0;
  }
  /// Lost = below the deadline and never known: a seq past the deadline
  /// can no longer be learned, and no equation keeps a term in it.
  [[nodiscard]] bool is_lost(std::uint64_t seq) const noexcept {
    return seq < horizon_ && !is_known(seq);
  }
  /// Recovered / received payload (payload mode; throws std::logic_error
  /// if `seq` is not known or the decoder is structure-only).  The span
  /// is valid until the next feed call or reset().
  [[nodiscard]] std::span<const std::uint8_t> symbol(std::uint64_t seq) const;

  [[nodiscard]] std::uint64_t known_count() const noexcept { return known_n_; }
  [[nodiscard]] std::uint64_t lost_count() const noexcept { return lost_n_; }
  /// Pending (not yet useful) repair equations — the decoder's working set.
  [[nodiscard]] std::size_t active_equations() const noexcept {
    return rows_.size();
  }

 private:
  struct Term {
    std::uint64_t seq;
    std::uint8_t coef;  ///< non-zero
  };
  /// One pending equation.  `terms` are the unknowns, ascending by seq;
  /// the first is the row's pivot, with coefficient 1, and appears in no
  /// other row.
  struct Row {
    std::vector<Term> terms;
    std::vector<std::uint8_t> rhs;  ///< payload mode only
    [[nodiscard]] std::uint64_t pivot() const { return terms.front().seq; }
  };

  [[nodiscard]] std::uint8_t* symbol_at(std::uint64_t seq) {
    return symbols_.data() + seq * symbol_size_;
  }
  void learn(std::uint64_t seq, const std::uint8_t* payload,
             std::vector<std::uint64_t>& newly);
  /// Fold the just-learned `seq` out of every row holding it.  Returns
  /// whether any row did.
  bool substitute(std::uint64_t seq);
  /// Add `row` (free of known terms, non-empty) to the reduced system.
  void insert(Row row);
  /// dst += f * src, over both the terms and (payload mode) the rhs.
  void axpy(Row& dst, const Row& src, std::uint8_t f);
  /// Learn and retire every single-term row, in pivot order.
  void harvest(std::vector<std::uint64_t>& newly);
  [[nodiscard]] Row take_row();
  void retire(Row& row);

  SlidingWindowConfig config_;
  std::size_t symbol_size_;
  std::uint64_t horizon_ = 0;
  std::uint64_t known_n_ = 0;
  std::uint64_t lost_n_ = 0;
  // Fate of every source, indexed by seq: 1 = known.  Lost needs no mark
  // (see is_lost).  It grows to the largest known seq and is never
  // trimmed, at 1 byte per seq; payload mode keeps each known symbol at
  // symbols_[seq * symbol_size] for the same span.
  std::vector<std::uint8_t> known_;
  std::vector<std::uint8_t> symbols_;
  // The reduced system, sorted by pivot.
  std::vector<Row> rows_;
  // Scratch reused across calls, so steady state allocates nothing:
  // retired rows (their term and rhs capacities stay alive for the next
  // repair) and axpy's merge buffer.
  std::vector<Row> spare_;
  std::vector<Term> merged_;
};

/// The binary support structure of the repairs a paced stream would emit:
/// variables are `source_count` sources followed by the repairs (one every
/// config.repair_interval sources), rows are the repair equations — the
/// parity-check representation fec/peeling_decoder + fec/ge_decoder
/// consume.  Used by the cross-check tests and diagnostics.
[[nodiscard]] SparseBinaryMatrix sliding_support_matrix(
    const SlidingWindowConfig& config, std::uint32_t source_count);

}  // namespace fecsched
