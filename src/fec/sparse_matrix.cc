#include "fec/sparse_matrix.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fecsched {

SparseBinaryMatrix::SparseBinaryMatrix(std::uint32_t rows, std::uint32_t cols,
                                       std::vector<Entry> entries)
    : rows_(rows), cols_(cols) {
  // O(nnz) build: counting-sort the entries by row, sort and deduplicate
  // each (short) row in place, then derive the column view by walking the
  // rows in order, which leaves every column's row list ascending.
  row_ptr_.assign(rows_ + 1, 0);
  for (const Entry& e : entries) {
    if (e.row >= rows || e.col >= cols)
      throw std::invalid_argument("SparseBinaryMatrix: entry out of range");
    ++row_ptr_[e.row + 1];
  }
  for (std::uint32_t r = 0; r < rows_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  row_cols_.resize(entries.size());
  {
    std::vector<std::uint32_t> next(row_ptr_.begin(), row_ptr_.end() - 1);
    for (const Entry& e : entries) row_cols_[next[e.row]++] = e.col;
  }
  entries = {};  // release before the column arrays are allocated

  std::uint32_t out = 0;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const auto first = row_cols_.begin() + row_ptr_[r];
    const auto last = row_cols_.begin() + row_ptr_[r + 1];
    std::sort(first, last);
    const auto kept = std::unique(first, last);
    row_ptr_[r] = out;
    for (auto it = first; it != kept; ++it) row_cols_[out++] = *it;
  }
  row_ptr_[rows_] = out;
  row_cols_.resize(out);
  row_cols_.shrink_to_fit();

  col_ptr_.assign(cols_ + 1, 0);
  for (std::uint32_t c : row_cols_) ++col_ptr_[c + 1];
  for (std::uint32_t c = 0; c < cols_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  col_rows_.resize(row_cols_.size());
  std::vector<std::uint32_t> next(col_ptr_.begin(), col_ptr_.end() - 1);
  for (std::uint32_t r = 0; r < rows_; ++r)
    for (std::uint32_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      col_rows_[next[row_cols_[i]]++] = r;
}

void SparseBinaryMatrix::out_of_range(const char* what) {
  throw std::invalid_argument(std::string("SparseBinaryMatrix::") + what +
                              ": range");
}

bool SparseBinaryMatrix::at(std::uint32_t r, std::uint32_t c) const {
  const auto cols_of_row = row(r);
  return std::binary_search(cols_of_row.begin(), cols_of_row.end(), c);
}

}  // namespace fecsched
