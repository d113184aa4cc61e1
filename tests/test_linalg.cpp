#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "linalg/dense.hpp"
#include "linalg/eig.hpp"
#include "linalg/kernels.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordered_lu.hpp"
#include "linalg/pcg.hpp"
#include "linalg/preconditioner.hpp"
#include "linalg/sparse.hpp"

namespace {

using gnrfet::linalg::CMatrix;
using gnrfet::linalg::cplx;
using gnrfet::linalg::DMatrix;

CMatrix random_matrix(size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  CMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) m(i, j) = cplx(d(rng), d(rng));
  }
  return m;
}

CMatrix random_hermitian(size_t n, unsigned seed) {
  CMatrix a = random_matrix(n, seed);
  return gnrfet::linalg::hermitian_part(a);
}

TEST(Dense, MultiplyIdentity) {
  const CMatrix a = random_matrix(7, 1);
  const CMatrix i = CMatrix::identity(7);
  const CMatrix ai = a * i;
  for (size_t r = 0; r < 7; ++r) {
    for (size_t c = 0; c < 7; ++c) {
      EXPECT_NEAR(std::abs(ai(r, c) - a(r, c)), 0.0, 1e-14);
    }
  }
}

TEST(Dense, AdjointIsConjugateTranspose) {
  const CMatrix a = random_matrix(5, 2);
  const CMatrix ad = a.adjoint();
  for (size_t r = 0; r < 5; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_EQ(ad(r, c), std::conj(a(c, r)));
    }
  }
}

TEST(Dense, ShapeMismatchThrows) {
  CMatrix a(3, 3), b(4, 4);
  EXPECT_THROW(a += b, std::invalid_argument);
  CMatrix c(3, 4), d(3, 4);
  EXPECT_THROW(c * d, std::invalid_argument);
}

TEST(LU, SolveRecoversKnownSolution) {
  const size_t n = 12;
  const CMatrix a = random_matrix(n, 3);
  std::vector<cplx> x_true(n);
  for (size_t i = 0; i < n; ++i) x_true[i] = cplx(double(i) + 0.5, -double(i));
  std::vector<cplx> b(n);
  for (size_t i = 0; i < n; ++i) {
    cplx s = 0.0;
    for (size_t j = 0; j < n; ++j) s += a(i, j) * x_true[j];
    b[i] = s;
  }
  const auto x = gnrfet::linalg::LU(a).solve(b);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-9);
}

TEST(LU, InverseTimesMatrixIsIdentity) {
  const CMatrix a = random_matrix(10, 4);
  const CMatrix ainv = gnrfet::linalg::inverse(a);
  const CMatrix prod = a * ainv;
  const CMatrix eye = CMatrix::identity(10);
  CMatrix diff = prod;
  diff -= eye;
  EXPECT_LT(gnrfet::linalg::frobenius_norm(diff), 1e-9);
}

TEST(LU, SingularThrows) {
  CMatrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;  // row/col 2 all zero
  EXPECT_THROW(gnrfet::linalg::LU lu(a), std::runtime_error);
}

TEST(LU, RealSolve) {
  DMatrix a(3, 3);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(2, 2) = 2;
  const std::vector<double> b = {1.0, 2.0, 4.0};
  const auto x = gnrfet::linalg::LUReal(a).solve(b);
  EXPECT_NEAR(4 * x[0] + x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0] + 3 * x[1], 2.0, 1e-12);
  EXPECT_NEAR(2 * x[2], 4.0, 1e-12);
}

/// MNA-shaped random system: `nodes` node rows with a sparse, unsymmetric
/// conductance block (diagonal dominance varied over decades, like contact
/// resistances next to gmin-only nodes), then `branches` voltage-source
/// rows with a zero diagonal coupling one or two nodes.
struct MnaLike {
  DMatrix a;
  gnrfet::linalg::MatrixEntries pattern;
};

MnaLike random_mna_like(size_t nodes, size_t branches, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::uniform_int_distribution<size_t> pick(0, nodes - 1);
  const size_t n = nodes + branches;
  MnaLike m{DMatrix(n, n), {}};
  const auto add = [&](size_t r, size_t c, double v) {
    if (m.a(r, c) == 0.0) m.pattern.emplace_back(r, c);
    m.a(r, c) += v;
  };
  for (size_t i = 0; i < nodes; ++i) add(i, i, 1e-12);  // gmin
  for (size_t e = 0; e < 2 * nodes; ++e) {
    const size_t a = pick(rng), b = pick(rng);
    if (a == b) continue;
    const double g = std::pow(10.0, -5.0 + 4.0 * u(rng));
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
    if (u(rng) < 0.3) add(a, b, 0.5 * g * (u(rng) - 0.5));  // transconductance
  }
  for (size_t k = 0; k < branches; ++k) {
    const size_t row = nodes + k;
    const size_t p = pick(rng);
    add(p, row, 1.0);
    add(row, p, 1.0);
    const size_t q = pick(rng);
    if (q != p && u(rng) < 0.5) {
      add(q, row, -1.0);
      add(row, q, -1.0);
    }
  }
  return m;
}

std::vector<double> values_on(const DMatrix& a, const gnrfet::linalg::MatrixEntries& entries) {
  std::vector<double> v;
  for (const auto& [r, c] : entries) v.push_back(a(r, c));
  return v;
}

std::vector<double> solve_ordered(const MnaLike& m, const std::vector<double>& b) {
  gnrfet::linalg::OrderedLU lu(m.a.rows(), m.pattern);
  EXPECT_TRUE(lu.factor(values_on(m.a, m.pattern)));
  std::vector<double> x;
  lu.solve(b, x);
  return x;
}

TEST(OrderedLU, MatchesDenseLuOnRandomMnaShapedSystems) {
  for (unsigned seed = 1; seed <= 12; ++seed) {
    const size_t nodes = 6 + 7 * seed, branches = 1 + seed % 3;
    const MnaLike m = random_mna_like(nodes, branches, seed);
    const size_t n = nodes + branches;
    std::vector<double> b(n);
    std::mt19937 rng(100 + seed);
    std::uniform_real_distribution<double> d(-1.0, 1.0);
    for (double& v : b) v = d(rng);
    const std::vector<double> ref = gnrfet::linalg::LUReal(m.a).solve(b);
    double scale = 0.0;
    for (const double v : ref) scale = std::max(scale, std::abs(v));
    const std::vector<double> x = solve_ordered(m, b);
    ASSERT_EQ(x.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], ref[i], 1e-9 * scale) << "seed " << seed << " unknown " << i;
    }
  }
}

TEST(OrderedLU, RefactorReusesWorkspaceBitIdentically) {
  // Same pattern, different values: the second factorization creates
  // different fill than the first, which the third must fully undo.
  MnaLike m1 = random_mna_like(20, 2, 7);
  MnaLike m2 = m1;
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> d(0.5, 2.0);
  for (const auto& [r, c] : m2.pattern) m2.a(r, c) *= (r == c) ? 1e-6 : d(rng);
  const size_t n = 22;
  const std::vector<double> b(n, 1.0);
  gnrfet::linalg::OrderedLU reused(n, m1.pattern);
  std::vector<double> x;
  ASSERT_TRUE(reused.factor(values_on(m1.a, m1.pattern)));
  ASSERT_TRUE(reused.factor(values_on(m2.a, m2.pattern)));
  ASSERT_TRUE(reused.factor(values_on(m1.a, m1.pattern)));
  reused.solve(b, x);
  const std::vector<double> fresh = solve_ordered(m1, b);
  ASSERT_EQ(x.size(), fresh.size());
  EXPECT_EQ(std::memcmp(x.data(), fresh.data(), n * sizeof(double)), 0);
}

TEST(OrderedLU, SingularMatrixIsReportedNotThrown) {
  // Two voltage sources on the same node: equal branch rows. (2, 2) is in
  // the pattern but zero, so the same object can later see a regular matrix.
  const gnrfet::linalg::MatrixEntries entries = {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {2, 0}, {2, 2}};
  DMatrix a(3, 3);
  a(0, 0) = 1e-3;
  a(0, 1) = a(0, 2) = 1.0;
  a(1, 0) = a(2, 0) = 1.0;
  gnrfet::linalg::OrderedLU lu(3, entries);
  EXPECT_FALSE(lu.factor(values_on(a, entries)));
  EXPECT_THROW(gnrfet::linalg::LUReal oracle(a), std::runtime_error);  // the oracle agrees
  EXPECT_FALSE(lu.factor(std::vector<double>(entries.size(), 0.0)));
  EXPECT_THROW((void)lu.factor({1.0}), std::invalid_argument);

  a(2, 2) = 1.0;  // regular now: the failed factorizations left nothing behind
  ASSERT_TRUE(lu.factor(values_on(a, entries)));
  const std::vector<double> b = {1.0, 2.0, 3.0};
  std::vector<double> x;
  lu.solve(b, x);
  const std::vector<double> ref = gnrfet::linalg::LUReal(a).solve(b);
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], ref[i], 1e-12);
}

TEST(OrderedLU, MinimumDegreeEliminatesLeavesBeforeTheHub) {
  // Star graph: node 2 couples to every other node. Eliminating it first
  // would fill the whole matrix; minimum degree takes it only once a
  // single leaf is left (ties go to the lowest index).
  const size_t n = 6;
  gnrfet::linalg::MatrixEntries entries;
  for (size_t i = 0; i < n; ++i) {
    if (i != 2) entries.insert(entries.end(), {{2, i}, {i, 2}});
  }
  const auto order = gnrfet::linalg::minimum_degree_order(n, entries);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 3, 4, 2, 5}));
  EXPECT_THROW(gnrfet::linalg::OrderedLU(2, {{0, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(gnrfet::linalg::minimum_degree_order(2, {{0, 2}}), std::invalid_argument);
}

TEST(Eigh, DiagonalizesHermitian) {
  const size_t n = 9;
  const CMatrix a = random_hermitian(n, 5);
  const auto eig = gnrfet::linalg::eigh(a);
  // A V = V diag(lambda)
  const CMatrix av = a * eig.vectors;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(av(i, j) - eig.values[j] * eig.vectors(i, j)), 0.0, 1e-8);
    }
  }
  // Eigenvalues ascending.
  for (size_t j = 1; j < n; ++j) EXPECT_GE(eig.values[j], eig.values[j - 1] - 1e-12);
}

TEST(Eigh, UnitaryEigenvectors) {
  const CMatrix a = random_hermitian(8, 6);
  const auto eig = gnrfet::linalg::eigh(a);
  const CMatrix vtv = eig.vectors.adjoint() * eig.vectors;
  CMatrix diff = vtv;
  diff -= CMatrix::identity(8);
  EXPECT_LT(gnrfet::linalg::frobenius_norm(diff), 1e-8);
}

TEST(Eigh, RejectsNonHermitian) {
  CMatrix a(2, 2);
  a(0, 1) = cplx(1.0, 0.0);
  a(1, 0) = cplx(5.0, 0.0);
  EXPECT_THROW(gnrfet::linalg::eigh(a), std::invalid_argument);
}

TEST(Eigh, KnownTwoByTwo) {
  CMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = -1.0;
  a(0, 1) = cplx(0.0, 2.0);
  a(1, 0) = cplx(0.0, -2.0);
  const auto eig = gnrfet::linalg::eigh(a);
  const double r = std::sqrt(5.0);
  EXPECT_NEAR(eig.values[0], -r, 1e-10);
  EXPECT_NEAR(eig.values[1], r, 1e-10);
}

TEST(Sparse, CsrAccumulatesDuplicates) {
  gnrfet::linalg::SparseBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 2, -1.0);
  b.add(2, 2, 4.0);
  const gnrfet::linalg::SparseMatrix m(b);
  std::vector<double> y;
  m.multiply({1.0, 1.0, 1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
}

TEST(Sparse, AddToDiagonal) {
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  gnrfet::linalg::SparseMatrix m(b);
  m.add_to_diagonal(0, 5.0);
  std::vector<double> y;
  m.multiply({1.0, 0.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
}

TEST(Pcg, SolvesLaplacian1D) {
  const size_t n = 50;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const gnrfet::linalg::SparseMatrix a(b);
  std::vector<double> rhs(n, 1.0);
  std::vector<double> x(n, 0.0);
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x);
  ASSERT_TRUE(res.converged);
  std::vector<double> ax;
  a.multiply(x, ax);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], 1.0, 1e-7);
}

TEST(Pcg, WarmStartConvergesInstantly) {
  const size_t n = 20;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) b.add(i, i, 3.0);
  const gnrfet::linalg::SparseMatrix a(b);
  std::vector<double> rhs(n, 6.0);
  std::vector<double> x(n, 2.0);  // exact solution
  const auto res = gnrfet::linalg::pcg_solve(a, rhs, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1u);
}

// --- Summation kernels -----------------------------------------------------

namespace kernels = gnrfet::linalg::kernels;

std::vector<double> random_vector(size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = d(rng);
  return v;
}

TEST(Kernels, SequentialDotIsLeftToRight) {
  const auto a = random_vector(101, 11);
  const auto b = random_vector(101, 12);
  double ref = 0.0;
  for (size_t i = 0; i < a.size(); ++i) ref += a[i] * b[i];
  EXPECT_EQ(kernels::dot(a, b, kernels::SumOrder::kSequential), ref);
}

TEST(Kernels, PairwiseDotMatchesSequentialToRounding) {
  // Sizes straddling the 32-element block boundary and the recursion split.
  for (const size_t n : {1u, 31u, 32u, 33u, 64u, 100u, 257u, 1000u}) {
    const auto a = random_vector(n, 21);
    const auto b = random_vector(n, 22);
    const double seq = kernels::dot(a, b, kernels::SumOrder::kSequential);
    const double pw = kernels::dot(a, b, kernels::SumOrder::kPairwise);
    EXPECT_NEAR(pw, seq, 1e-12 * (1.0 + std::abs(seq))) << "n=" << n;
    // Determinism: the tree shape depends only on n, so a repeat call is
    // bit-identical.
    EXPECT_EQ(kernels::dot(a, b, kernels::SumOrder::kPairwise), pw);
  }
}

TEST(Kernels, AxpyAndXpby) {
  std::vector<double> y = {1.0, 2.0, 3.0};
  kernels::axpy(2.0, {10.0, 20.0, 30.0}, y);
  EXPECT_EQ(y, (std::vector<double>{21.0, 42.0, 63.0}));
  std::vector<double> p = {1.0, 1.0, 1.0};
  kernels::xpby({5.0, 6.0, 7.0}, 0.5, p);
  EXPECT_EQ(p, (std::vector<double>{5.5, 6.5, 7.5}));
}

TEST(Kernels, GatherDotAccumulatesRowSegment) {
  const double values[] = {2.0, -1.0, 3.0};
  const size_t col[] = {0, 2, 3};
  const double x[] = {1.0, 100.0, 10.0, 0.5};
  EXPECT_DOUBLE_EQ(kernels::gather_dot(values, col, 0, 3, x), 2.0 - 10.0 + 1.5);
  EXPECT_DOUBLE_EQ(kernels::gather_dot(values, col, 1, 1, x), 0.0);
}

// --- Sparse diagonal-retarget API ------------------------------------------

TEST(Sparse, SetDiagonalMatchesCopyPlusAddToDiagonal) {
  // The Newton loop uses set_diagonal(base - dq) on a persistent Jacobian;
  // the legacy path copied A and called add_to_diagonal(-dq). Both must
  // land on the same bits.
  gnrfet::linalg::SparseBuilder b(3);
  b.add(0, 0, 2.0);
  b.add(0, 1, -1.0);
  b.add(1, 0, -1.0);
  b.add(1, 1, 2.0);
  b.add(2, 2, 1.5);
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::SparseMatrix legacy = a;
  gnrfet::linalg::SparseMatrix persistent = a;
  const double dq[] = {0.37, -1.25e-3, 7.5};
  for (size_t i = 0; i < 3; ++i) legacy.add_to_diagonal(i, dq[i]);
  const double base[] = {2.0, 2.0, 1.5};
  for (size_t i = 0; i < 3; ++i) persistent.set_diagonal(i, base[i] + dq[i]);
  ASSERT_EQ(legacy.values().size(), persistent.values().size());
  for (size_t k = 0; k < legacy.values().size(); ++k) {
    EXPECT_EQ(legacy.values()[k], persistent.values()[k]);
  }
  EXPECT_DOUBLE_EQ(persistent.diagonal_at(1), 2.0 - 1.25e-3);
}

TEST(Sparse, RestoreValuesRoundTripAndMismatchThrows) {
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 4.0);
  b.add(1, 1, 9.0);
  gnrfet::linalg::SparseMatrix m(b);
  const std::vector<double> pristine = m.values();
  m.set_diagonal(0, -100.0);
  m.restore_values(pristine);
  EXPECT_EQ(m.values(), pristine);
  EXPECT_THROW(m.restore_values({1.0}), std::invalid_argument);
}

// --- Preconditioners --------------------------------------------------------

// 2D 5-point Laplacian on an nx-by-ny grid: SPD, the Poisson stencil shape.
gnrfet::linalg::SparseMatrix laplacian2d(size_t nx, size_t ny) {
  gnrfet::linalg::SparseBuilder b(nx * ny);
  auto id = [&](size_t i, size_t j) { return i * ny + j; };
  for (size_t i = 0; i < nx; ++i) {
    for (size_t j = 0; j < ny; ++j) {
      b.add(id(i, j), id(i, j), 4.0);
      if (i > 0) b.add(id(i, j), id(i - 1, j), -1.0);
      if (i + 1 < nx) b.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) b.add(id(i, j), id(i, j - 1), -1.0);
      if (j + 1 < ny) b.add(id(i, j), id(i, j + 1), -1.0);
    }
  }
  return gnrfet::linalg::SparseMatrix(b);
}

TEST(Preconditioner, IcZeroIsExactCholeskyOnTridiagonal) {
  // A tridiagonal SPD matrix has no fill, so IC(0) equals the exact
  // Cholesky factorization (and the MIC drop compensation never engages):
  // apply() must return the exact A^{-1} r.
  const size_t n = 8;
  gnrfet::linalg::SparseBuilder b(n);
  for (size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  EXPECT_EQ(ic.diagonal_shift(), 0.0);
  const auto r = random_vector(n, 31);
  std::vector<double> z;
  ic.apply(r, z);
  std::vector<double> az;
  a.multiply(z, az);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(az[i], r[i], 1e-12);
}

TEST(Preconditioner, SsorApplyMatchesDenseReference) {
  // With omega = 1, M = (D + L) D^{-1} (D + U). Verify M z == r against a
  // dense reconstruction of M.
  const gnrfet::linalg::SparseMatrix a = laplacian2d(3, 4);
  const size_t n = a.dim();
  gnrfet::linalg::SsorPreconditioner ssor;
  ssor.factor(a);
  const auto r = random_vector(n, 41);
  std::vector<double> z;
  ssor.apply(r, z);

  // Dense M z via the factored form: t = (D + U) z, then M z = (D + L) D^{-1} t.
  gnrfet::linalg::DMatrix dense(n, n);
  std::vector<double> unit(n, 0.0), col;
  for (size_t j = 0; j < n; ++j) {
    unit[j] = 1.0;
    a.multiply(unit, col);
    for (size_t i = 0; i < n; ++i) dense(i, j) = col[i];
    unit[j] = 0.0;
  }
  std::vector<double> t(n, 0.0), mz(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) t[i] += dense(i, j) * z[j];  // (D + U) z
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < i; ++j) mz[i] += dense(i, j) * t[j] / dense(j, j);
    mz[i] += t[i];  // (D + L) D^{-1} t, diagonal term: D * t_i / d_i = t_i
  }
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(mz[i], r[i], 1e-12);
}

TEST(Preconditioner, BreakdownFallsBackToDiagonalShift) {
  // Symmetric but indefinite: the (1,1) pivot goes negative, which must
  // trigger the Manteuffel shift escalation instead of producing NaNs.
  gnrfet::linalg::SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 1.0);
  const gnrfet::linalg::SparseMatrix a(b);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  EXPECT_GT(ic.diagonal_shift(), 0.0);
  std::vector<double> z;
  ic.apply({1.0, -1.0}, z);
  EXPECT_TRUE(std::isfinite(z[0]));
  EXPECT_TRUE(std::isfinite(z[1]));
}

TEST(Preconditioner, RefactorAfterDiagonalUpdateMatchesFreshFactor) {
  // The Newton loop only moves the Jacobian diagonal, then calls
  // refactor(); the result must match a from-scratch factorization of the
  // updated matrix bit-for-bit (same pattern, same numeric loop).
  gnrfet::linalg::SparseMatrix a = laplacian2d(4, 4);
  gnrfet::linalg::IncompleteCholesky reused;
  reused.factor(a);
  for (size_t i = 0; i < a.dim(); ++i) {
    a.set_diagonal(i, 4.0 + 0.01 * static_cast<double>(i));
  }
  reused.refactor(a);
  gnrfet::linalg::IncompleteCholesky fresh;
  fresh.factor(a);
  const auto r = random_vector(a.dim(), 51);
  std::vector<double> z_reused, z_fresh;
  reused.apply(r, z_reused);
  fresh.apply(r, z_fresh);
  for (size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(z_reused[i], z_fresh[i]);
}

TEST(Preconditioner, FactoryParsesKnownNamesAndRejectsUnknown) {
  using gnrfet::linalg::PreconditionerKind;
  EXPECT_EQ(gnrfet::linalg::preconditioner_kind_from_string("jacobi"),
            PreconditionerKind::kJacobi);
  EXPECT_EQ(gnrfet::linalg::preconditioner_kind_from_string("ssor"), PreconditionerKind::kSsor);
  EXPECT_EQ(gnrfet::linalg::preconditioner_kind_from_string("ic0"), PreconditionerKind::kIc0);
  EXPECT_THROW(gnrfet::linalg::preconditioner_kind_from_string("cholmod"), std::invalid_argument);
  for (const auto kind :
       {PreconditionerKind::kJacobi, PreconditionerKind::kSsor, PreconditionerKind::kIc0}) {
    const auto pc = gnrfet::linalg::make_preconditioner(kind);
    EXPECT_STREQ(pc->name(), gnrfet::linalg::to_string(kind));
  }
}

TEST(Pcg, AllPreconditionersReachTheSameSolution) {
  const gnrfet::linalg::SparseMatrix a = laplacian2d(16, 16);
  const auto rhs = random_vector(a.dim(), 61);
  std::vector<std::vector<double>> solutions;
  std::vector<size_t> iterations;
  for (const auto kind :
       {gnrfet::linalg::PreconditionerKind::kJacobi, gnrfet::linalg::PreconditionerKind::kSsor,
        gnrfet::linalg::PreconditionerKind::kIc0}) {
    const auto pc = gnrfet::linalg::make_preconditioner(kind);
    pc->factor(a);
    gnrfet::linalg::PcgOptions opts;
    opts.preconditioner = pc.get();
    std::vector<double> x(a.dim(), 0.0);
    const auto res = gnrfet::linalg::pcg_solve(a, rhs, x, opts);
    ASSERT_TRUE(res.converged) << gnrfet::linalg::to_string(kind);
    solutions.push_back(std::move(x));
    iterations.push_back(res.iterations);
  }
  for (size_t i = 0; i < a.dim(); ++i) {
    EXPECT_NEAR(solutions[1][i], solutions[0][i], 1e-7);
    EXPECT_NEAR(solutions[2][i], solutions[0][i], 1e-7);
  }
  // The stronger preconditioners must actually pay off on the Laplacian.
  EXPECT_LT(iterations[1], iterations[0]);  // ssor < jacobi
  EXPECT_LT(iterations[2], iterations[0]);  // ic0 < jacobi
}

TEST(Pcg, WorkspaceReuseIsBitIdenticalToFreshVectors) {
  const gnrfet::linalg::SparseMatrix a = laplacian2d(10, 10);
  gnrfet::linalg::IncompleteCholesky ic;
  ic.factor(a);
  gnrfet::linalg::PcgOptions reuse_opts;
  reuse_opts.preconditioner = &ic;
  gnrfet::linalg::PcgWorkspace ws;
  reuse_opts.workspace = &ws;
  gnrfet::linalg::PcgOptions fresh_opts = reuse_opts;
  fresh_opts.workspace = nullptr;
  for (const unsigned seed : {71u, 72u, 73u}) {
    const auto rhs = random_vector(a.dim(), seed);
    std::vector<double> x_reuse(a.dim(), 0.0), x_fresh(a.dim(), 0.0);
    const auto r1 = gnrfet::linalg::pcg_solve(a, rhs, x_reuse, reuse_opts);
    const auto r2 = gnrfet::linalg::pcg_solve(a, rhs, x_fresh, fresh_opts);
    EXPECT_EQ(r1.iterations, r2.iterations);
    for (size_t i = 0; i < a.dim(); ++i) EXPECT_EQ(x_reuse[i], x_fresh[i]);
  }
}

}  // namespace
