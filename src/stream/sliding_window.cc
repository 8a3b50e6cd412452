#include "stream/sliding_window.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace fecsched {

void SlidingWindowConfig::validate() const {
  if (window == 0)
    throw std::invalid_argument("SlidingWindowConfig: window must be >= 1");
  if (repair_interval == 0)
    throw std::invalid_argument(
        "SlidingWindowConfig: repair_interval must be >= 1");
}

// ---------------------------------------------------------------- encoder

SlidingWindowEncoder::SlidingWindowEncoder(const SlidingWindowConfig& config,
                                           std::size_t symbol_size)
    : config_(config), symbol_size_(symbol_size) {
  config_.validate();
  if (symbol_size_ > 0) history_.configure(config_.window, symbol_size_);
}

std::uint64_t SlidingWindowEncoder::push_source(
    std::span<const std::uint8_t> payload) {
  if (symbol_size_ > 0) {
    if (payload.size() != symbol_size_)
      throw std::invalid_argument(
          "SlidingWindowEncoder::push_source: payload size mismatch");
    std::memcpy(history_.row(next_ % config_.window), payload.data(),
                symbol_size_);
  }
  return next_++;
}

RepairPacket SlidingWindowEncoder::make_repair() {
  RepairPacket repair;
  make_repair(repair);
  return repair;
}

void SlidingWindowEncoder::make_repair(RepairPacket& out) {
  if (next_ == 0)
    throw std::logic_error(
        "SlidingWindowEncoder::make_repair: no source packets yet");
  out.repair_seq = repairs_++;
  out.last = next_;
  out.first = next_ >= config_.window ? next_ - config_.window : 0;
  if (symbol_size_ > 0) {
    out.payload.assign(symbol_size_, 0);
    const gf::Kernels& eng = gf::kernels();
    constexpr std::size_t kBatch = 64;
    gf::AddmulTerm terms[kBatch];
    std::size_t nt = 0;
    const RepairCoefficients coef(config_, out.repair_seq);
    for (std::uint64_t seq = out.first; seq < out.last; ++seq) {
      if (nt == kBatch) {
        eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
        nt = 0;
      }
      terms[nt++] = {history_.row(seq % config_.window), coef(seq)};
    }
    eng.addmul_batch(out.payload.data(), terms, nt, symbol_size_);
  } else {
    out.payload.clear();
  }
}

// ---------------------------------------------------------------- decoder

namespace {
// The term of `seq` in a seq-ascending term list, or terms.end().
template <class Terms>
auto find_term(Terms& terms, std::uint64_t seq) {
  const auto it = std::lower_bound(
      terms.begin(), terms.end(), seq,
      [](const auto& t, std::uint64_t s) { return t.seq < s; });
  return it != terms.end() && it->seq == seq ? it : terms.end();
}
}  // namespace

SlidingWindowDecoder::SlidingWindowDecoder(const SlidingWindowConfig& config,
                                           std::size_t symbol_size)
    : config_(config), symbol_size_(symbol_size) {
  config_.validate();
}

void SlidingWindowDecoder::reset(const SlidingWindowConfig& config) {
  config_ = config;
  config_.validate();
  horizon_ = 0;
  known_n_ = 0;
  lost_n_ = 0;
  known_.clear();
  symbols_.clear();
  for (Row& row : rows_) retire(row);
  rows_.clear();
}

std::span<const std::uint8_t> SlidingWindowDecoder::symbol(
    std::uint64_t seq) const {
  if (symbol_size_ == 0)
    throw std::logic_error("SlidingWindowDecoder::symbol: structure-only mode");
  if (!is_known(seq))
    throw std::logic_error("SlidingWindowDecoder::symbol: seq not known");
  return {symbols_.data() + seq * symbol_size_, symbol_size_};
}

SlidingWindowDecoder::Row SlidingWindowDecoder::take_row() {
  if (spare_.empty()) return {};
  Row row = std::move(spare_.back());
  spare_.pop_back();
  row.terms.clear();
  return row;
}

void SlidingWindowDecoder::retire(Row& row) { spare_.push_back(std::move(row)); }

void SlidingWindowDecoder::learn(std::uint64_t seq,
                                 const std::uint8_t* payload,
                                 std::vector<std::uint64_t>& newly) {
  if (seq >= known_.size()) {
    known_.resize(seq + 1, 0);
    symbols_.resize(known_.size() * symbol_size_);
  }
  known_[seq] = 1;
  ++known_n_;
  if (symbol_size_ > 0) std::memcpy(symbol_at(seq), payload, symbol_size_);
  newly.push_back(seq);
}

void SlidingWindowDecoder::on_source(std::uint64_t seq,
                                     std::span<const std::uint8_t> payload,
                                     std::vector<std::uint64_t>& newly) {
  if (is_known(seq) || seq < horizon_) return;  // duplicate or expired
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_source: payload size mismatch");
  learn(seq, payload.data(), newly);
  if (substitute(seq)) harvest(newly);
}

bool SlidingWindowDecoder::substitute(std::uint64_t seq) {
  const gf::Kernels& eng = gf::kernels();
  bool touched = false;
  // A row's pivot is its oldest term, so rows pivoted past `seq` lack it.
  for (std::size_t i = 0; i < rows_.size() && rows_[i].pivot() <= seq; ++i) {
    Row& row = rows_[i];
    const auto it = find_term(row.terms, seq);
    if (it == row.terms.end()) continue;
    touched = true;
    if (symbol_size_ > 0)
      eng.addmul(row.rhs.data(), symbol_at(seq), symbol_size_, it->coef);
    const bool was_pivot = it == row.terms.begin();
    row.terms.erase(it);
    if (was_pivot) {
      // A pivot column lives in this row alone.  The rest of the row is
      // zero at every other pivot, so its oldest remaining term becomes a
      // new pivot: re-insert the row to normalise it and clear that
      // column from the others.
      Row moved = std::move(row);
      rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
      insert(std::move(moved));
      break;
    }
  }
  return touched;
}

void SlidingWindowDecoder::on_repair(const RepairPacket& repair,
                                     std::vector<std::uint64_t>& newly) {
  if (symbol_size_ > 0 && repair.payload.size() != symbol_size_)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_repair: payload size mismatch");
  if (repair.first > repair.last ||
      repair.last - repair.first > config_.window)
    throw std::invalid_argument(
        "SlidingWindowDecoder::on_repair: span reversed or wider than the "
        "window");
  const gf::Kernels& eng = gf::kernels();
  const RepairCoefficients coef(config_, repair.repair_seq);
  Row row = take_row();
  if (symbol_size_ > 0)
    row.rhs.assign(repair.payload.begin(), repair.payload.end());
  for (std::uint64_t s = repair.first; s < repair.last; ++s) {
    if (is_known(s)) {
      if (symbol_size_ > 0)
        eng.addmul(row.rhs.data(), symbol_at(s), symbol_size_, coef(s));
    } else if (s < horizon_) {
      // Pinned on an expired source: with in-order delivery (the horizon
      // trails the newest repair window) this cannot happen; under
      // reordering, the expired term could only be eliminated against
      // another repair covering it, a pairing this decoder does not chase.
      retire(row);
      return;
    } else {
      row.terms.push_back({s, coef(s)});
    }
  }
  if (row.terms.empty()) {  // fully redundant
    retire(row);
    return;
  }
  insert(std::move(row));
  harvest(newly);
}

void SlidingWindowDecoder::axpy(Row& dst, const Row& src, std::uint8_t f) {
  const auto& mul = gf::mul_row(f);
  std::vector<Term>& out = merged_;
  out.clear();
  auto a = dst.terms.cbegin();
  auto b = src.terms.cbegin();
  const auto a_end = dst.terms.cend();
  const auto b_end = src.terms.cend();
  while (a != a_end && b != b_end) {
    if (a->seq < b->seq) {
      out.push_back(*a++);
    } else if (b->seq < a->seq) {
      out.push_back({b->seq, mul[b->coef]});
      ++b;
    } else {
      const std::uint8_t c = a->coef ^ mul[b->coef];
      if (c != 0) out.push_back({a->seq, c});
      ++a;
      ++b;
    }
  }
  out.insert(out.end(), a, a_end);
  for (; b != b_end; ++b) out.push_back({b->seq, mul[b->coef]});
  dst.terms.swap(out);
  if (symbol_size_ > 0)
    gf::kernels().addmul(dst.rhs.data(), src.rhs.data(), symbol_size_, f);
}

void SlidingWindowDecoder::insert(Row row) {
  // Profiler: the elimination is the matrix-inversion phase of the
  // sliding-window decode (src/obs/); dormant cost is one atomic load.
  const obs::PhaseScope phase_scope(obs::current(), obs::Phase::kMatrixInvert);
  // Forward: cancel every existing pivot the row holds.  Each pivot row is
  // zero at every other pivot column, so the order does not matter and no
  // cancellation reintroduces an earlier pivot.
  for (const Row& r : rows_)
    if (const auto t = find_term(row.terms, r.pivot()); t != row.terms.end())
      axpy(row, r, t->coef);
  if (row.terms.empty()) {  // a combination of the pending equations
    retire(row);
    return;
  }
  const std::uint8_t inv = gf::inv(row.terms.front().coef);
  if (inv != 1) {
    for (Term& t : row.terms) t.coef = gf::mul(t.coef, inv);
    if (symbol_size_ > 0)
      gf::kernels().scale(row.rhs.data(), symbol_size_, inv);
  }
  // Backward (Jordan): clear the new pivot column from the rows that hold
  // it.  They are pivoted before it, and the row adds terms only past it,
  // so their pivots stand.
  const std::uint64_t p = row.pivot();
  for (Row& r : rows_) {
    if (r.pivot() > p) break;
    if (const auto t = find_term(r.terms, p); t != r.terms.end())
      axpy(r, row, t->coef);
  }
  const auto pos = std::lower_bound(
      rows_.begin(), rows_.end(), p,
      [](const Row& r, std::uint64_t s) { return r.pivot() < s; });
  rows_.insert(pos, std::move(row));
}

void SlidingWindowDecoder::harvest(std::vector<std::uint64_t>& newly) {
  // A single-term row is a recovery: normalised, its rhs is the payload,
  // and (Jordan) its column appears in no other row, so learning it
  // cascades nowhere.
  auto out = rows_.begin();
  for (Row& row : rows_) {
    if (row.terms.size() == 1) {
      learn(row.pivot(), row.rhs.data(), newly);
      retire(row);
    } else {
      if (&*out != &row) *out = std::move(row);
      ++out;
    }
  }
  rows_.erase(out, rows_.end());
}

void SlidingWindowDecoder::give_up_before(
    std::uint64_t horizon, std::vector<std::uint64_t>& newly_lost) {
  if (horizon <= horizon_) return;
  for (std::uint64_t seq = horizon_; seq < horizon; ++seq) {
    if (!is_known(seq)) {
      ++lost_n_;
      newly_lost.push_back(seq);
    }
  }
  horizon_ = horizon;
  // Dropping every equation that touches an expired source loses no
  // recoverable information: the rows are in reduced row-echelon form
  // with columns ordered by seq, so each row's *oldest* term is its pivot,
  // and a pivot appears in exactly one row.  A row touching an expired
  // source therefore has an expired pivot, and any linear combination of
  // RREF rows (with anything, including future repairs) retains every
  // participating pivot — so such rows can never help determine a
  // still-live source.  Rows are sorted by pivot: the expired ones are a
  // prefix.
  auto keep = rows_.begin();
  for (; keep != rows_.end() && keep->pivot() < horizon; ++keep) retire(*keep);
  rows_.erase(rows_.begin(), keep);
}

// ------------------------------------------------------- support structure

SparseBinaryMatrix sliding_support_matrix(const SlidingWindowConfig& config,
                                          std::uint32_t source_count) {
  config.validate();
  const std::uint32_t repairs = source_count / config.repair_interval;
  std::vector<SparseBinaryMatrix::Entry> entries;
  for (std::uint32_t r = 0; r < repairs; ++r) {
    const std::uint32_t produced = (r + 1) * config.repair_interval;
    const std::uint32_t first =
        produced >= config.window ? produced - config.window : 0;
    for (std::uint32_t s = first; s < produced; ++s)
      entries.push_back({r, s});
    entries.push_back({r, source_count + r});
  }
  return SparseBinaryMatrix(repairs, source_count + repairs,
                            std::move(entries));
}

}  // namespace fecsched
