#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/dense.hpp"

/// Ordered sparse LU for small real systems that are refactored many times
/// on one fixed pattern: the circuit simulator's MNA Jacobians, whose
/// topology never changes during a DC or transient run.
///
/// The symbolic work happens once, in the constructor: a minimum-degree
/// elimination order on the pattern of A + A^T, and the map of the pattern
/// into the factor's storage. Every numeric factorization then eliminates
/// in that order with partial pivoting. It keeps the nonzero structure of
/// each row and column (the pattern plus the fill created so far), so each
/// step visits only the nonzeros of its pivot column and pivot row and
/// never scans a dense row or column. Rows with a zero diagonal (the
/// branch rows of voltage sources) are handled by the pivoting.
namespace gnrfet::linalg {

using MatrixEntries = std::vector<std::pair<size_t, size_t>>;

/// Minimum-degree elimination order of the symmetric pattern of A + A^T.
/// `entries` are the structural (row, col) positions of the n x n matrix
/// A; the diagonal is implied. Ties go to the lowest index, so the order
/// is deterministic. Dense adjacency: meant for n up to a few hundred.
std::vector<size_t> minimum_degree_order(size_t n, const MatrixEntries& entries);

class OrderedLU {
 public:
  /// Symbolic phase for an n x n matrix whose nonzeros lie on `entries`
  /// (distinct (row, col) positions, any order), eliminated in
  /// minimum_degree_order(n, entries).
  OrderedLU(size_t n, const MatrixEntries& entries);

  size_t num_entries() const { return entry_pos_.size(); }

  /// Numeric factorization of A given by `values[s]` = A at entries[s].
  /// Returns false when no candidate pivot of some column reaches LUReal's
  /// absolute floor (a numerically singular matrix); solve() is then
  /// invalid until the next successful factor(). Reuses every buffer: no
  /// allocation once the structure lists have reached their working size.
  [[nodiscard]] bool factor(const std::vector<double>& values);

  /// x = A^-1 b from the last successful factor(); x is resized to n.
  void solve(const std::vector<double>& b, std::vector<double>& x);

 private:
  std::vector<size_t> order_;      ///< elimination step -> row/column of A
  std::vector<size_t> entry_pos_;  ///< entry -> position in lu_ (permuted row * n + col)
  DMatrix lu_;                     ///< permuted A, factored in place; zero off the structure
  std::vector<uint8_t> in_structure_;  ///< per lu_ position: pattern or fill
  std::vector<std::vector<uint32_t>> pattern_row_cols_, pattern_col_rows_;
  std::vector<std::vector<uint32_t>> row_cols_, col_rows_;  ///< pattern + fill of this factorization
  std::vector<size_t> fill_;       ///< lu_ positions filled by the last factorization
  std::vector<uint8_t> active_;    ///< per row of lu_: not yet chosen as pivot
  std::vector<size_t> pivot_row_;  ///< elimination step -> row of lu_ chosen as pivot
  std::vector<size_t> lower_begin_;  ///< step k's multiplier rows: lower_rows_[lower_begin_[k]..[k+1])
  std::vector<size_t> lower_rows_;
  std::vector<size_t> upper_begin_;  ///< step k's pivot-row columns > k: upper_cols_[...]
  std::vector<size_t> upper_cols_;
  std::vector<double> work_;       ///< solve scratch, indexed by row of lu_
};

}  // namespace gnrfet::linalg
