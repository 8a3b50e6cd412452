// The sliding-window decoder as it stood before its state went flat: a
// std::map of per-seq fates, a std::map of payloads, and a dense
// Gauss-Jordan pass over every pending equation on each change.  Kept
// verbatim (renamed, with the coefficient derivation inlined as it was)
// as the oracle for sliding_differential_test, which pins the production
// decoder to it call by call.

#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/obs.h"
#include "stream/sliding_window.h"
#include "util/rng.h"

namespace fecsched::reference {

/// sliding_coefficient as the reference derived it: the full
/// derive_seed(seed, {repair_seq, source_seq}) chain per term.
inline std::uint8_t reference_coefficient(const SlidingWindowConfig& cfg,
                                          std::uint64_t repair_seq,
                                          std::uint64_t source_seq) {
  if (cfg.coefficients == SlidingCoefficients::kBinary) return 1;
  const std::uint64_t h = derive_seed(cfg.seed, {repair_seq, source_seq});
  return static_cast<std::uint8_t>(1 + h % 255);
}

class ReferenceSlidingWindowDecoder {
 public:
  explicit ReferenceSlidingWindowDecoder(const SlidingWindowConfig& config,
                                std::size_t symbol_size = 0);

  [[nodiscard]] const SlidingWindowConfig& config() const noexcept {
    return config_;
  }

  /// Restart for a new stream under a (possibly different) configuration,
  /// keeping the solver scratch allocations — the trial-workspace path.
  void reset(const SlidingWindowConfig& config);

  /// Feed one received source packet.  Returns the source seqs that became
  /// known as a result (the packet itself if new, plus any recoveries its
  /// substitution cascaded; empty for a duplicate).
  std::vector<std::uint64_t> on_source(
      std::uint64_t seq, std::span<const std::uint8_t> payload = {});

  /// Feed one received repair packet.  Returns newly recovered source seqs.
  std::vector<std::uint64_t> on_repair(const RepairPacket& repair);

  /// Advance the decoding deadline: every still-unknown source seq below
  /// `horizon` is declared unrecoverable and the equations pinned on it
  /// are discarded.  Returns the seqs newly declared lost (ascending).
  /// The horizon never moves backwards.
  std::vector<std::uint64_t> give_up_before(std::uint64_t horizon);

  [[nodiscard]] std::uint64_t horizon() const noexcept { return horizon_; }
  [[nodiscard]] bool is_known(std::uint64_t seq) const;
  [[nodiscard]] bool is_lost(std::uint64_t seq) const;
  /// Recovered / received payload (payload mode; throws std::logic_error
  /// if `seq` is not known or the decoder is structure-only).
  [[nodiscard]] std::span<const std::uint8_t> symbol(std::uint64_t seq) const;

  [[nodiscard]] std::uint64_t known_count() const noexcept { return known_n_; }
  [[nodiscard]] std::uint64_t lost_count() const noexcept { return lost_n_; }
  /// Pending (not yet useful) repair equations — the decoder's working set.
  [[nodiscard]] std::size_t active_equations() const noexcept {
    return eqs_.size();
  }

 private:
  struct Equation {
    // Unknown terms, ascending by seq; coefficients non-zero.
    std::vector<std::pair<std::uint64_t, std::uint8_t>> terms;
    std::vector<std::uint8_t> rhs;  // payload mode only
  };

  void learn(std::uint64_t seq, std::vector<std::uint8_t> payload,
             std::vector<std::uint64_t>& newly);
  /// Substitute every known source out of `eq`; in payload mode folds the
  /// known payloads into the rhs.
  void substitute_known(Equation& eq) const;
  /// Re-run Gauss-Jordan over the active equations and extract every
  /// uniquely determined source.  Appends recoveries to `newly`.
  void solve(std::vector<std::uint64_t>& newly);

  SlidingWindowConfig config_;
  std::size_t symbol_size_;
  std::uint64_t horizon_ = 0;
  std::uint64_t known_n_ = 0;
  std::uint64_t lost_n_ = 0;
  // Fate of every seq seen so far: known payload / lost marker.  Keyed map
  // because the window keeps this small relative to the stream. 1 = known,
  // 2 = lost.
  std::map<std::uint64_t, std::uint8_t> fate_;
  std::map<std::uint64_t, std::vector<std::uint8_t>> symbols_;
  std::vector<Equation> eqs_;
  // solve() scratch, reused across calls: the active unknowns, the flat
  // (rows x unknowns) coefficient matrix of the dense pass, the rhs
  // payloads moved out of the equations for the elimination, and the
  // surviving-equation staging buffer (swapped with eqs_, so both keep
  // their per-equation capacities alive).
  std::vector<std::uint64_t> scratch_unknowns_;
  std::vector<std::uint8_t> scratch_a_;
  std::vector<std::vector<std::uint8_t>> scratch_rhs_;
  std::vector<Equation> scratch_next_;
};

inline ReferenceSlidingWindowDecoder::ReferenceSlidingWindowDecoder(
    const SlidingWindowConfig& config, std::size_t symbol_size)
    : config_(config), symbol_size_(symbol_size) {
  config_.validate();
}

inline void ReferenceSlidingWindowDecoder::reset(
    const SlidingWindowConfig& config) {
  config_ = config;
  config_.validate();
  horizon_ = 0;
  known_n_ = 0;
  lost_n_ = 0;
  fate_.clear();
  symbols_.clear();
  eqs_.clear();
}

inline bool ReferenceSlidingWindowDecoder::is_known(std::uint64_t seq) const {
  const auto it = fate_.find(seq);
  return it != fate_.end() && it->second == 1;
}

inline bool ReferenceSlidingWindowDecoder::is_lost(std::uint64_t seq) const {
  const auto it = fate_.find(seq);
  return it != fate_.end() && it->second == 2;
}

inline std::span<const std::uint8_t> ReferenceSlidingWindowDecoder::symbol(
    std::uint64_t seq) const {
  if (symbol_size_ == 0)
    throw std::logic_error(
        "ReferenceSlidingWindowDecoder::symbol: structure-only mode");
  const auto it = symbols_.find(seq);
  if (it == symbols_.end())
    throw std::logic_error(
        "ReferenceSlidingWindowDecoder::symbol: seq not known");
  return it->second;
}

inline void ReferenceSlidingWindowDecoder::learn(
    std::uint64_t seq, std::vector<std::uint8_t> payload,
    std::vector<std::uint64_t>& newly) {
  fate_[seq] = 1;
  ++known_n_;
  if (symbol_size_ > 0) symbols_[seq] = std::move(payload);
  newly.push_back(seq);
}

inline void ReferenceSlidingWindowDecoder::substitute_known(
    Equation& eq) const {
  auto out = eq.terms.begin();
  for (auto& term : eq.terms) {
    const auto it = fate_.find(term.first);
    if (it != fate_.end() && it->second == 1) {
      if (symbol_size_ > 0)
        gf::addmul(eq.rhs, symbols_.at(term.first), term.second);
    } else {
      *out++ = term;
    }
  }
  eq.terms.erase(out, eq.terms.end());
}

inline std::vector<std::uint64_t> ReferenceSlidingWindowDecoder::on_source(
    std::uint64_t seq, std::span<const std::uint8_t> payload) {
  std::vector<std::uint64_t> newly;
  if (fate_.contains(seq)) return newly;  // duplicate or past the deadline
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument(
        "ReferenceSlidingWindowDecoder::on_source: payload size mismatch");
  learn(seq, {payload.begin(), payload.end()}, newly);
  bool touched = false;
  for (auto& eq : eqs_) {
    const std::size_t before = eq.terms.size();
    substitute_known(eq);
    touched = touched || eq.terms.size() != before;
  }
  if (touched) solve(newly);
  return newly;
}

inline std::vector<std::uint64_t> ReferenceSlidingWindowDecoder::on_repair(
    const RepairPacket& repair) {
  std::vector<std::uint64_t> newly;
  if (symbol_size_ > 0 && repair.payload.size() != symbol_size_)
    throw std::invalid_argument(
        "ReferenceSlidingWindowDecoder::on_repair: payload size mismatch");
  Equation eq;
  eq.rhs = repair.payload;
  for (std::uint64_t s = repair.first; s < repair.last; ++s) {
    const std::uint8_t c = reference_coefficient(config_, repair.repair_seq, s);
    const auto it = fate_.find(s);
    // Pinned on an expired source: with in-order delivery (the horizon
    // trails the newest repair window) this cannot happen; under
    // reordering, the expired term could only be eliminated against
    // another repair covering it, a pairing this decoder does not chase.
    if (it != fate_.end() && it->second == 2) return newly;
    if (it != fate_.end() && it->second == 1) {
      if (symbol_size_ > 0) gf::addmul(eq.rhs, symbols_.at(s), c);
    } else {
      eq.terms.emplace_back(s, c);
    }
  }
  if (eq.terms.empty()) return newly;  // fully redundant
  eqs_.push_back(std::move(eq));
  solve(newly);
  return newly;
}

inline void ReferenceSlidingWindowDecoder::solve(
    std::vector<std::uint64_t>& newly) {
  // Profiler: the dense solve is the matrix-inversion phase of the
  // sliding-window decode (src/obs/); dormant cost is one atomic load.
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  // Gauss-Jordan over the active window: the unknowns are the union of the
  // equations' terms (at most a few windows wide), the rows are the
  // pending repair equations.  The system is tiny, so a dense pass per
  // change is cheaper than maintaining an incremental factorisation.  The
  // coefficient matrix lives flat in the member scratch (this runs on the
  // per-packet delivery path), and the byte-row eliminations go through
  // the SIMD kernel engine.
  const gf::Kernels& eng = gf::kernels();
  while (true) {
    std::vector<std::uint64_t>& unknowns = scratch_unknowns_;
    unknowns.clear();
    for (const auto& eq : eqs_)
      for (const auto& [seq, c] : eq.terms) unknowns.push_back(seq);
    std::sort(unknowns.begin(), unknowns.end());
    unknowns.erase(std::unique(unknowns.begin(), unknowns.end()),
                   unknowns.end());
    if (unknowns.empty()) {
      eqs_.clear();
      return;
    }
    const std::size_t u = unknowns.size();
    const auto col_of = [&](std::uint64_t seq) {
      return static_cast<std::size_t>(
          std::lower_bound(unknowns.begin(), unknowns.end(), seq) -
          unknowns.begin());
    };

    // Row i of the dense system: coefficients scratch_a_[i*u .. i*u+u),
    // right-hand side scratch_rhs_[i] (moved out of the equation).
    const std::size_t nrows = eqs_.size();
    scratch_a_.assign(nrows * u, 0);
    if (scratch_rhs_.size() < nrows) scratch_rhs_.resize(nrows);
    for (std::size_t i = 0; i < nrows; ++i) {
      std::uint8_t* row = scratch_a_.data() + i * u;
      for (const auto& [seq, c] : eqs_[i].terms) row[col_of(seq)] = c;
      scratch_rhs_[i] = std::move(eqs_[i].rhs);
    }
    const auto a_row = [&](std::size_t i) { return scratch_a_.data() + i * u; };

    std::size_t pivot_row = 0;
    for (std::size_t col = 0; col < u && pivot_row < nrows; ++col) {
      std::size_t r = pivot_row;
      while (r < nrows && a_row(r)[col] == 0) ++r;
      if (r == nrows) continue;
      if (r != pivot_row) {
        std::swap_ranges(a_row(pivot_row), a_row(pivot_row) + u, a_row(r));
        std::swap(scratch_rhs_[pivot_row], scratch_rhs_[r]);
      }
      std::uint8_t* p = a_row(pivot_row);
      const std::uint8_t inv = gf::inv(p[col]);
      if (inv != 1) {
        eng.scale(p, u, inv);
        if (symbol_size_ > 0) gf::scale(scratch_rhs_[pivot_row], inv);
      }
      for (std::size_t other = 0; other < nrows; ++other) {
        if (other == pivot_row || a_row(other)[col] == 0) continue;
        const std::uint8_t f = a_row(other)[col];
        eng.addmul(a_row(other), p, u, f);
        if (symbol_size_ > 0)
          gf::addmul(scratch_rhs_[other], scratch_rhs_[pivot_row], f);
      }
      ++pivot_row;
    }

    // Harvest: zero rows are redundant, single-term rows are recoveries
    // (their pivot column is zero in every other row), the rest become the
    // new active equation set.  The staging buffer is swapped with eqs_ so
    // the discarded equations' capacities survive for the next pass.
    bool recovered = false;
    std::vector<Equation>& next = scratch_next_;
    next.clear();
    for (std::size_t i = 0; i < nrows; ++i) {
      const std::uint8_t* row = a_row(i);
      std::size_t nz = 0, last = 0;
      for (std::size_t j = 0; j < u; ++j)
        if (row[j] != 0) {
          ++nz;
          last = j;
        }
      if (nz == 0) continue;  // redundant combination
      if (nz == 1) {
        // Normalised pivot: coefficient is 1, rhs is the payload.
        learn(unknowns[last], std::move(scratch_rhs_[i]), newly);
        recovered = true;
        continue;
      }
      Equation eq;
      eq.terms.reserve(nz);
      for (std::size_t j = 0; j < u; ++j)
        if (row[j] != 0) eq.terms.emplace_back(unknowns[j], row[j]);
      eq.rhs = std::move(scratch_rhs_[i]);
      next.push_back(std::move(eq));
    }
    eqs_.swap(next);
    if (!recovered) return;
    // A recovery never leaves its column behind (Jordan), but re-running
    // keeps the invariant simple and the system is already reduced, so the
    // extra pass terminates immediately when nothing new appears.
    if (eqs_.empty()) return;
  }
}

inline std::vector<std::uint64_t> ReferenceSlidingWindowDecoder::give_up_before(
    std::uint64_t horizon) {
  std::vector<std::uint64_t> newly_lost;
  if (horizon <= horizon_) return newly_lost;
  for (std::uint64_t seq = horizon_; seq < horizon; ++seq) {
    if (!fate_.contains(seq)) {
      fate_[seq] = 2;
      ++lost_n_;
      newly_lost.push_back(seq);
    }
  }
  horizon_ = horizon;
  if (!newly_lost.empty()) {
    // Dropping every equation that touches an expired source loses no
    // recoverable information: solve() keeps eqs_ in reduced row-echelon
    // form with columns ordered by seq, so each row's *oldest* term is its
    // pivot, and a pivot appears in exactly one row.  A row touching an
    // expired source therefore has an expired pivot, and any linear
    // combination of RREF rows (with anything, including future repairs)
    // retains every participating pivot — so such rows can never help
    // determine a still-live source.
    std::erase_if(eqs_, [&](const Equation& eq) {
      for (const auto& [seq, c] : eq.terms)
        if (seq < horizon) return true;
      return false;
    });
  }
  return newly_lost;
}

}  // namespace fecsched::reference
