// Immutable sparse binary matrix with both row-major and column-major
// adjacency (CSR in both orientations).  This is the parity-check matrix
// representation used by the LDGM codes: rows are check nodes, columns are
// message nodes (k source packets followed by n-k parity packets).

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.h"

namespace fecsched {

/// Sparse binary matrix, fixed after construction.
class SparseBinaryMatrix {
 public:
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
  };

  /// Build from an edge list.  Duplicate (row, col) entries are collapsed
  /// (binary matrix).  Entries must lie inside rows x cols (checked).
  SparseBinaryMatrix(std::uint32_t rows, std::uint32_t cols,
                     std::vector<Entry> entries);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::uint32_t cols() const noexcept { return cols_; }
  /// Number of non-zero entries.
  [[nodiscard]] std::size_t nnz() const noexcept { return row_cols_.size(); }

  /// Column indices of the non-zeros in row r, ascending.
  [[nodiscard]] std::span<const std::uint32_t> row(std::uint32_t r) const {
    if (r >= rows_) out_of_range("row");
    return {row_cols_.data() + row_ptr_[r], row_degree_unchecked(r)};
  }
  /// Row indices of the non-zeros in column c, ascending.
  [[nodiscard]] std::span<const std::uint32_t> col(std::uint32_t c) const {
    if (c >= cols_) out_of_range("col");
    return col_unchecked(c);
  }
  /// col(c) for the peeling hot path: range-checked only in debug and
  /// sanitizer builds (util/check.h).
  [[nodiscard]] std::span<const std::uint32_t> col_unchecked(
      std::uint32_t c) const noexcept {
    FECSCHED_HOT_CHECK(c < cols_);
    return {col_rows_.data() + col_ptr_[c], col_ptr_[c + 1] - col_ptr_[c]};
  }
  /// Number of non-zeros in row r, from the row offsets (unchecked like
  /// col_unchecked).
  [[nodiscard]] std::uint32_t row_degree_unchecked(
      std::uint32_t r) const noexcept {
    FECSCHED_HOT_CHECK(r < rows_);
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  [[nodiscard]] std::uint32_t row_degree(std::uint32_t r) const {
    return static_cast<std::uint32_t>(row(r).size());
  }
  [[nodiscard]] std::uint32_t col_degree(std::uint32_t c) const {
    return static_cast<std::uint32_t>(col(c).size());
  }

  /// Membership test, O(log row_degree).
  [[nodiscard]] bool at(std::uint32_t r, std::uint32_t c) const;

 private:
  [[noreturn]] static void out_of_range(const char* what);

  std::uint32_t rows_;
  std::uint32_t cols_;
  std::vector<std::uint32_t> row_ptr_;   // rows_+1 offsets into row_cols_
  std::vector<std::uint32_t> row_cols_;
  std::vector<std::uint32_t> col_ptr_;   // cols_+1 offsets into col_rows_
  std::vector<std::uint32_t> col_rows_;
};

}  // namespace fecsched
