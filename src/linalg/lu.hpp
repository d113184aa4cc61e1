#pragma once

#include "linalg/dense.hpp"

/// LU factorization with partial pivoting for the dense complex blocks used
/// in the recursive Green's function sweeps (matrix inverse and linear
/// solves on blocks of dimension up to ~2N).
namespace gnrfet::linalg {

/// Absolute pivot floor: a pivot column whose largest candidate is below it
/// makes the factorization report a singular matrix.
inline constexpr double kLuPivotFloor = 1e-300;

/// In-place LU decomposition holder. Throws std::runtime_error on a
/// numerically singular pivot (|pivot| below an absolute floor).
class LU {
 public:
  /// Empty factorization; call factor() before solving. Exists so a
  /// long-lived workspace (negf::RgfWorkspace) can refactor block after
  /// block without reallocating the pivot storage.
  LU() = default;
  explicit LU(CMatrix a);

  /// Refactor in place: copies `a` into the internal storage (allocation
  /// reused when shapes repeat) and runs the same elimination as the
  /// constructor — results are bit-identical to a fresh LU(a).
  void factor(const CMatrix& a);

  /// Solve A x = b for a single right-hand side.
  std::vector<cplx> solve(const std::vector<cplx>& b) const;

  /// Solve A X = B column-by-column.
  CMatrix solve(const CMatrix& b) const;

  /// Solve A X = B into caller-owned X (allocation reused). Performs the
  /// identical arithmetic sequence as solve(b), substituting in place on
  /// X's columns, so the two are bit-identical. B must not alias X.
  void solve_into(const CMatrix& b, CMatrix& x) const;

  /// log|det A| (natural log of absolute determinant), for diagnostics.
  double log_abs_det() const;

 private:
  CMatrix lu_;
  std::vector<size_t> perm_;
  int sign_ = 1;
};

/// Convenience: matrix inverse via LU. Throws on singular input.
CMatrix inverse(const CMatrix& a);

/// Real-valued variant: the multigrid coarse-grid solve, and the dense
/// reference the tests hold linalg::OrderedLU (the circuit simulator's
/// Newton solves) against.
class LUReal {
 public:
  explicit LUReal(DMatrix a);
  std::vector<double> solve(const std::vector<double>& b) const;

 private:
  DMatrix lu_;
  std::vector<size_t> perm_;
};

}  // namespace gnrfet::linalg
