#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace gnrfet::linalg {

namespace {

template <typename T>
void factor_in_place(Matrix<T>& a, std::vector<size_t>& perm, int* sign) {
  const size_t n = a.rows();
  if (a.cols() != n) throw std::invalid_argument("LU: matrix must be square");
  perm.resize(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t k = 0; k < n; ++k) {
    size_t piv = k;
    double best = std::abs(a(k, k));
    for (size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < kLuPivotFloor) throw std::runtime_error("LU: singular matrix");
    if (piv != k) {
      for (size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(perm[k], perm[piv]);
      if (sign) *sign = -*sign;
    }
    const T inv_piv = T{1} / a(k, k);
    for (size_t i = k + 1; i < n; ++i) {
      const T m = a(i, k) * inv_piv;
      a(i, k) = m;
      if (m == T{}) continue;
      for (size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
    }
  }
}

template <typename T>
std::vector<T> lu_solve_one(const Matrix<T>& lu, const std::vector<size_t>& perm,
                            const std::vector<T>& b) {
  const size_t n = lu.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve: size mismatch");
  std::vector<T> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Forward substitution (unit lower triangle).
  for (size_t i = 1; i < n; ++i) {
    T s = x[i];
    for (size_t j = 0; j < i; ++j) s -= lu(i, j) * x[j];
    x[i] = s;
  }
  // Back substitution.
  for (size_t ii = n; ii-- > 0;) {
    T s = x[ii];
    for (size_t j = ii + 1; j < n; ++j) s -= lu(ii, j) * x[j];
    x[ii] = s / lu(ii, ii);
  }
  return x;
}
}  // namespace

LU::LU(CMatrix a) : lu_(std::move(a)) { factor_in_place(lu_, perm_, &sign_); }

void LU::factor(const CMatrix& a) {
  lu_ = a;
  sign_ = 1;
  factor_in_place(lu_, perm_, &sign_);
}

void LU::solve_into(const CMatrix& b, CMatrix& x) const {
  const size_t n = lu_.rows();
  if (b.rows() != n) throw std::invalid_argument("LU::solve_into: shape mismatch");
  x.resize_zero(b.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    for (size_t i = 0; i < n; ++i) x(i, j) = b(perm_[i], j);
    // Forward substitution (unit lower triangle), in place on column j.
    for (size_t i = 1; i < n; ++i) {
      cplx s = x(i, j);
      for (size_t k = 0; k < i; ++k) s -= lu_(i, k) * x(k, j);
      x(i, j) = s;
    }
    // Back substitution.
    for (size_t ii = n; ii-- > 0;) {
      cplx s = x(ii, j);
      for (size_t k = ii + 1; k < n; ++k) s -= lu_(ii, k) * x(k, j);
      x(ii, j) = s / lu_(ii, ii);
    }
  }
}

std::vector<cplx> LU::solve(const std::vector<cplx>& b) const {
  return lu_solve_one(lu_, perm_, b);
}

CMatrix LU::solve(const CMatrix& b) const {
  if (b.rows() != lu_.rows()) throw std::invalid_argument("LU::solve: shape mismatch");
  CMatrix x(b.rows(), b.cols());
  std::vector<cplx> col(b.rows());
  for (size_t j = 0; j < b.cols(); ++j) {
    for (size_t i = 0; i < b.rows(); ++i) col[i] = b(i, j);
    const auto sol = lu_solve_one(lu_, perm_, col);
    for (size_t i = 0; i < b.rows(); ++i) x(i, j) = sol[i];
  }
  return x;
}

double LU::log_abs_det() const {
  double s = 0.0;
  for (size_t i = 0; i < lu_.rows(); ++i) s += std::log(std::abs(lu_(i, i)));
  return s;
}

CMatrix inverse(const CMatrix& a) {
  const LU lu(a);
  return lu.solve(CMatrix::identity(a.rows()));
}

LUReal::LUReal(DMatrix a) : lu_(std::move(a)) { factor_in_place(lu_, perm_, nullptr); }

std::vector<double> LUReal::solve(const std::vector<double>& b) const {
  return lu_solve_one(lu_, perm_, b);
}

}  // namespace gnrfet::linalg
