// Iterative ("peeling") erasure decoder for LDGM codes (Sec. 2.3.2).
//
// The parity-check matrix defines n-k equations "XOR of neighbours = 0"
// over n variables (source + parity packets).  Every received packet fixes
// one variable; when an equation is left with a single unknown variable,
// that variable equals the XOR of the equation's known members, and the
// recovery cascades.  Decoding is incremental — packets are fed in arrival
// order and the decoder may be queried (or abandoned) at any time.
//
// The same engine serves two purposes:
//  * structure-only simulation (symbol_size == 0): no payloads are stored,
//    only the equation bookkeeping runs — this is what the paper's grid
//    sweeps execute millions of times;
//  * real decoding (symbol_size > 0): per-equation XOR accumulators carry
//    the payload bytes so recovered packets materialise their content.
//
// Per-row state is O(1): an unknown-counter plus the XOR of unknown
// variable ids, which yields the last unknown's id without scanning the
// row; the two share one 8-byte record, so a cascade step touches one
// cache line per row.  Total work is O(nnz) across a whole decode.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fec/sparse_matrix.h"
#include "fec/types.h"
#include "util/check.h"

namespace fecsched {

/// Incremental peeling decoder over a parity-check matrix.
class PeelingDecoder {
 public:
  /// `h` must outlive the decoder.  `k` is the source packet count
  /// (variables [0,k) are sources).  `symbol_size` of 0 selects the
  /// structure-only mode.
  PeelingDecoder(const SparseBinaryMatrix& h, std::uint32_t k,
                 std::size_t symbol_size = 0);

  /// Feed one received packet.  In payload mode `payload` must hold
  /// symbol_size bytes; in structure-only mode it is ignored.
  /// Returns the number of variables that became known as a result
  /// (0 for a duplicate, >= 1 otherwise — 1 for the packet itself plus
  /// any cascaded recoveries).  When `recovered` is non-null, every
  /// *source* id this call made known (the packet itself included) is
  /// appended to it in the order the cascade reached it; the vector is
  /// not cleared first.  In-order release consumers sort these ids, so a
  /// trial's release work is O(received + recovered).
  std::uint32_t add_packet(PacketId id,
                           std::span<const std::uint8_t> payload = {},
                           std::vector<PacketId>* recovered = nullptr);

  /// add_packet(id) for a structure-only decoder, inline and without the
  /// range check (checked in debug and sanitizer builds, util/check.h):
  /// the grid trackers' hot path.  Requires symbol_size() == 0 and
  /// id < n(); same return value and state change as add_packet(id).
  std::uint32_t add_packet_structural(PacketId id) {
    FECSCHED_HOT_CHECK(symbol_size_ == 0 && id < n());
    StructureOnly sink;
    return learn(id, nullptr, sink);
  }

  /// All k source packets recovered?
  [[nodiscard]] bool source_complete() const noexcept {
    return known_sources_ == k_;
  }
  [[nodiscard]] std::uint32_t known_source_count() const noexcept {
    return known_sources_;
  }
  [[nodiscard]] std::uint32_t known_variable_count() const noexcept {
    return known_total_;
  }
  [[nodiscard]] bool is_known(PacketId id) const { return known_.at(id) != 0; }

  [[nodiscard]] std::uint32_t k() const noexcept { return k_; }
  [[nodiscard]] std::uint32_t n() const noexcept { return h_->cols(); }
  [[nodiscard]] std::size_t symbol_size() const noexcept { return symbol_size_; }
  [[nodiscard]] const SparseBinaryMatrix& matrix() const noexcept { return *h_; }

  /// Payload of a recovered variable (payload mode only; throws
  /// std::logic_error if the variable is unknown or in structure-only mode).
  [[nodiscard]] std::span<const std::uint8_t> symbol(PacketId id) const;

  /// Number of unknown variables remaining in equation `row` — exposed for
  /// the Gaussian-elimination fallback and for tests.
  [[nodiscard]] std::uint32_t unknowns_in_row(std::uint32_t row) const {
    return rows_.at(row).unknowns;
  }

  /// XOR accumulator of the *known* members' payloads of `row`
  /// (payload mode only).  Used by the GE fallback.
  [[nodiscard]] std::span<const std::uint8_t> row_accumulator(std::uint32_t row) const;

  /// Inject an externally solved variable (used by the GE fallback).
  /// Triggers the normal cascade.  Returns newly known variable count;
  /// `recovered` is filled exactly as by add_packet.
  std::uint32_t force_known(PacketId id, std::span<const std::uint8_t> payload = {},
                            std::vector<PacketId>* recovered = nullptr);

  /// Reset to the freshly constructed state, keeping allocations.
  void reset();

  /// Re-point the decoder at a different matrix/geometry, reusing the
  /// existing buffers wherever capacities allow (the trial-workspace path:
  /// sweeps construct a fresh LDGM graph per trial but want the decoder's
  /// arrays reused).  Validates exactly like the constructor, then
  /// reset()s.
  void rebind(const SparseBinaryMatrix& h, std::uint32_t k,
              std::size_t symbol_size = 0);

 private:
  /// One equation's peeling state.
  struct RowState {
    std::uint32_t unknowns;  ///< unknown variables left in the row
    std::uint32_t xor_id;    ///< XOR of their ids (the last one, at 1)
  };

  /// learn()'s side effects beyond the row bookkeeping: none in
  /// structure-only mode without a report (the grid hot path).
  struct StructureOnly {
    void source(PacketId) const noexcept {}
    const std::uint8_t* store(PacketId, const std::uint8_t*) const noexcept {
      return nullptr;
    }
    void edge(std::uint32_t, const std::uint8_t*) const noexcept {}
    const std::uint8_t* row_payload(std::uint32_t) const noexcept {
      return nullptr;
    }
  };
  /// Payload accumulation and the `recovered` report (peeling_decoder.cc).
  class PayloadSink;

  /// Make `id` known (payload from `payload` through `sink`) and peel the
  /// cascade it starts; returns the number of variables made known.
  template <class Sink>
  std::uint32_t learn(PacketId id, const std::uint8_t* payload, Sink& sink) {
    if (known_[id]) return 0;  // duplicate: no new information
    const std::uint32_t before = known_total_;
    make_known(id, payload, sink);
    while (!ready_.empty()) {
      const std::uint32_t r = ready_.back();
      ready_.pop_back();
      if (rows_[r].unknowns != 1) continue;  // stale entry: solved meanwhile
      // A row's XOR covers exactly its unknown ids, so with one left it
      // names an unknown variable.
      const PacketId missing = rows_[r].xor_id;
      FECSCHED_HOT_CHECK(!known_[missing]);
      // The single unknown of an equation equals the XOR of its known
      // members, which is exactly the row accumulator.
      make_known(missing, sink.row_payload(r), sink);
    }
    return known_total_ - before;
  }

  template <class Sink>
  void make_known(PacketId id, const std::uint8_t* payload, Sink& sink) {
    known_[id] = 1;
    ++known_total_;
    known_sources_ += id < k_ ? 1 : 0;
    if (id < k_) sink.source(id);
    const std::uint8_t* stored = sink.store(id, payload);
    for (const std::uint32_t r : h_->col_unchecked(id)) {
      RowState& row = rows_[r];
      row.xor_id ^= id;
      sink.edge(r, stored);
      if (--row.unknowns == 1) ready_.push_back(r);
    }
  }

  std::uint32_t learn_checked(PacketId id, std::span<const std::uint8_t> payload,
                              std::vector<PacketId>* recovered,
                              const char* caller);

  const SparseBinaryMatrix* h_;
  std::uint32_t k_;
  std::size_t symbol_size_;
  std::vector<char> known_;                // per variable
  std::vector<RowState> rows_;             // per equation
  std::vector<std::uint32_t> fresh_xor_;   // XOR of each row's ids (reset image)
  std::vector<std::uint8_t> symbols_;      // n * symbol_size (payload mode)
  std::vector<std::uint8_t> row_acc_;      // rows * symbol_size (payload mode)
  std::vector<std::uint32_t> ready_;       // rows with one unknown (stack)
  std::uint32_t known_sources_ = 0;
  std::uint32_t known_total_ = 0;
};

}  // namespace fecsched
