// SparseBinaryMatrix: CSR consistency in both orientations, a
// differential check of the O(nnz) builder against a sort-and-unique
// reference, and pinned LDGM graph identity.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "fec/ldgm.h"
#include "fec/sparse_matrix.h"
#include "util/rng.h"

namespace fecsched {
namespace {

using Entry = SparseBinaryMatrix::Entry;

TEST(SparseMatrix, EmptyMatrix) {
  const SparseBinaryMatrix m(3, 4, {});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.nnz(), 0u);
  for (std::uint32_t r = 0; r < 3; ++r) EXPECT_TRUE(m.row(r).empty());
  for (std::uint32_t c = 0; c < 4; ++c) EXPECT_TRUE(m.col(c).empty());
}

TEST(SparseMatrix, BasicAdjacency) {
  const SparseBinaryMatrix m(2, 3, {{0, 0}, {0, 2}, {1, 1}, {1, 2}});
  EXPECT_EQ(m.nnz(), 4u);
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(0).begin(), m.row(0).end()),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(1).begin(), m.row(1).end()),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.col(2).begin(), m.col(2).end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(m.at(0, 0));
  EXPECT_FALSE(m.at(0, 1));
  EXPECT_TRUE(m.at(1, 2));
}

TEST(SparseMatrix, DuplicateEntriesCollapse) {
  const SparseBinaryMatrix m(2, 2, {{0, 1}, {0, 1}, {0, 1}, {1, 0}});
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_EQ(m.row_degree(0), 1u);
}

TEST(SparseMatrix, OutOfRangeEntryThrows) {
  EXPECT_THROW(SparseBinaryMatrix(2, 2, {{2, 0}}), std::invalid_argument);
  EXPECT_THROW(SparseBinaryMatrix(2, 2, {{0, 2}}), std::invalid_argument);
}

TEST(SparseMatrix, AccessorsRangeChecked) {
  const SparseBinaryMatrix m(2, 3, {});
  EXPECT_THROW((void)m.row(2), std::invalid_argument);
  EXPECT_THROW((void)m.col(3), std::invalid_argument);
}

TEST(SparseMatrix, UnsortedInputIsSorted) {
  const SparseBinaryMatrix m(3, 3, {{2, 2}, {0, 1}, {2, 0}, {0, 0}, {1, 1}});
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(0).begin(), m.row(0).end()),
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.row(2).begin(), m.row(2).end()),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(std::vector<std::uint32_t>(m.col(0).begin(), m.col(0).end()),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST(SparseMatrix, RowColViewsAgreeOnRandomMatrix) {
  Rng rng(77);
  constexpr std::uint32_t kRows = 64, kCols = 97;
  std::vector<Entry> entries;
  for (int i = 0; i < 800; ++i)
    entries.push_back({static_cast<std::uint32_t>(rng.below(kRows)),
                       static_cast<std::uint32_t>(rng.below(kCols))});
  const SparseBinaryMatrix m(kRows, kCols, entries);

  std::size_t row_sum = 0, col_sum = 0;
  for (std::uint32_t r = 0; r < kRows; ++r) {
    auto prev = UINT32_MAX;
    for (std::uint32_t c : m.row(r)) {
      EXPECT_TRUE(prev == UINT32_MAX || c > prev) << "row not ascending";
      prev = c;
      // Every row entry must appear in the column view.
      bool found = false;
      for (std::uint32_t rr : m.col(c)) found |= rr == r;
      EXPECT_TRUE(found);
      EXPECT_TRUE(m.at(r, c));
    }
    row_sum += m.row_degree(r);
  }
  for (std::uint32_t c = 0; c < kCols; ++c) {
    auto prev = UINT32_MAX;
    for (std::uint32_t r : m.col(c)) {
      EXPECT_TRUE(prev == UINT32_MAX || r > prev) << "col not ascending";
      prev = r;
    }
    col_sum += m.col_degree(c);
  }
  EXPECT_EQ(row_sum, m.nnz());
  EXPECT_EQ(col_sum, m.nnz());
}

// Reference builder: the global comparison sort + unique the matrix was
// first built with.  Returns the row lists and column lists.
struct ReferenceCsr {
  std::vector<std::vector<std::uint32_t>> rows;
  std::vector<std::vector<std::uint32_t>> cols;
  std::size_t nnz = 0;
};

ReferenceCsr reference_build(std::uint32_t rows, std::uint32_t cols,
                             std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.row == b.row && a.col == b.col;
                            }),
                entries.end());
  ReferenceCsr ref;
  ref.rows.resize(rows);
  ref.cols.resize(cols);
  ref.nnz = entries.size();
  for (const Entry& e : entries) {
    ref.rows[e.row].push_back(e.col);
    ref.cols[e.col].push_back(e.row);
  }
  return ref;
}

void expect_matches_reference(std::uint32_t rows, std::uint32_t cols,
                              const std::vector<Entry>& entries) {
  const SparseBinaryMatrix m(rows, cols, entries);
  const ReferenceCsr ref = reference_build(rows, cols, entries);
  ASSERT_EQ(m.nnz(), ref.nnz);
  for (std::uint32_t r = 0; r < rows; ++r)
    ASSERT_EQ(std::vector<std::uint32_t>(m.row(r).begin(), m.row(r).end()),
              ref.rows[r])
        << "row " << r;
  for (std::uint32_t c = 0; c < cols; ++c)
    ASSERT_EQ(std::vector<std::uint32_t>(m.col(c).begin(), m.col(c).end()),
              ref.cols[c])
        << "col " << c;
}

std::vector<Entry> random_entries(std::uint32_t rows, std::uint32_t cols,
                                  std::size_t count, Rng& rng) {
  std::vector<Entry> entries;
  entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    entries.push_back({static_cast<std::uint32_t>(rng.below(rows)),
                       static_cast<std::uint32_t>(rng.below(cols))});
  return entries;
}

TEST(SparseMatrix, DifferentialDenseDuplicates) {
  // More draws than cells: nearly every entry is repeated, in random order.
  Rng rng(101);
  for (int rep = 0; rep < 20; ++rep) {
    const auto rows = 1 + static_cast<std::uint32_t>(rng.below(30));
    const auto cols = 1 + static_cast<std::uint32_t>(rng.below(40));
    expect_matches_reference(
        rows, cols, random_entries(rows, cols, 3u * rows * cols, rng));
  }
}

TEST(SparseMatrix, DifferentialEmptyRowsAndColumns) {
  // Far fewer entries than rows or columns: most of both views are empty.
  Rng rng(202);
  for (int rep = 0; rep < 20; ++rep) {
    const auto rows = 50 + static_cast<std::uint32_t>(rng.below(200));
    const auto cols = 50 + static_cast<std::uint32_t>(rng.below(300));
    expect_matches_reference(rows, cols,
                             random_entries(rows, cols, rng.below(40), rng));
  }
  // Explicit shape: only the last row and last column are populated.
  expect_matches_reference(5, 7, {{4, 6}, {4, 0}, {0, 6}, {4, 6}});
}

TEST(SparseMatrix, DifferentialHeavyRows) {
  // Rows far heavier than 64 entries, with duplicates, plus one very
  // dense row appended out of order.
  Rng rng(303);
  for (int rep = 0; rep < 10; ++rep) {
    const auto rows = 1 + static_cast<std::uint32_t>(rng.below(4));
    const auto cols = 100 + static_cast<std::uint32_t>(rng.below(900));
    std::vector<Entry> entries = random_entries(rows, cols, 300u * rows, rng);
    for (std::uint32_t c = cols; c-- > 0;) entries.push_back({0, c});
    expect_matches_reference(rows, cols, entries);
  }
}

TEST(SparseMatrix, DifferentialLdgmShapes) {
  // Sparse random matrices shaped like LDGM parity-check matrices.
  Rng rng(404);
  for (int rep = 0; rep < 10; ++rep) {
    const auto rows = 100 + static_cast<std::uint32_t>(rng.below(400));
    const auto cols = rows + 1 + static_cast<std::uint32_t>(rng.below(600));
    expect_matches_reference(rows, cols,
                             random_entries(rows, cols, 5u * rows, rng));
  }
}

// FNV-1a over both adjacency views of a matrix.
std::uint64_t adjacency_digest(const SparseBinaryMatrix& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(m.rows());
  mix(m.cols());
  for (std::uint32_t r = 0; r < m.rows(); ++r) {
    mix(m.row_degree(r));
    for (std::uint32_t c : m.row(r)) mix(c);
  }
  for (std::uint32_t c = 0; c < m.cols(); ++c) {
    mix(m.col_degree(c));
    for (std::uint32_t r : m.col(c)) mix(r);
  }
  return h;
}

TEST(SparseMatrix, LdgmGraphIdentityPinned) {
  // Digests recorded with the original sort-and-unique builder: the graph
  // every LDGM experiment decodes over is pinned directly, not only
  // through the pinned experiment outputs.
  struct Case {
    LdgmVariant variant;
    bool irregular;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {LdgmVariant::kIdentity, false, 0x9e89ff6bff4cae39ull},
      {LdgmVariant::kStaircase, false, 0x8314c6e33c0a61c1ull},
      {LdgmVariant::kTriangle, false, 0xaac963d4b455001full},
      {LdgmVariant::kStaircase, true, 0x1885871e7fdfb730ull},
  };
  for (const Case& c : cases) {
    LdgmParams p;
    p.k = 1000;
    p.n = 2500;
    p.variant = c.variant;
    p.seed = 20050;
    if (c.irregular) p.irregular_left_degrees = {{2, 0.5}, {3, 0.3}, {8, 0.2}};
    const LdgmCode code(p);
    EXPECT_EQ(adjacency_digest(code.matrix()), c.digest)
        << to_string(c.variant) << (c.irregular ? " (irregular)" : "");
  }
}

}  // namespace
}  // namespace fecsched
