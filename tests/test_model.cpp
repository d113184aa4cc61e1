#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "model/array_fet.hpp"
#include "model/extrinsic_fet.hpp"
#include "model/table2d.hpp"
#include "synthetic_device.hpp"

namespace {

using namespace gnrfet;
using model::Polarity;
using model::Table2D;

TEST(Table2D, ReproducesBilinearFunctionExactly) {
  // Catmull-Rom reproduces polynomials up to cubic along each axis.
  std::vector<double> xs, ys, v;
  for (int i = 0; i < 9; ++i) xs.push_back(0.1 * i);
  for (int j = 0; j < 7; ++j) ys.push_back(0.2 * j);
  for (double x : xs) {
    for (double y : ys) v.push_back(2.0 + 3.0 * x - 1.5 * y + 0.7 * x * y);
  }
  const Table2D t(xs, ys, v);
  const auto s = t.sample(0.33, 0.71);
  EXPECT_NEAR(s.value, 2.0 + 3.0 * 0.33 - 1.5 * 0.71 + 0.7 * 0.33 * 0.71, 1e-10);
  EXPECT_NEAR(s.d_dx, 3.0 + 0.7 * 0.71, 1e-8);
  EXPECT_NEAR(s.d_dy, -1.5 + 0.7 * 0.33, 1e-8);
}

TEST(Table2D, DerivativesMatchFiniteDifferences) {
  std::vector<double> xs, ys, v;
  for (int i = 0; i < 11; ++i) xs.push_back(0.1 * i);
  for (int j = 0; j < 11; ++j) ys.push_back(0.1 * j);
  for (double x : xs) {
    for (double y : ys) v.push_back(std::sin(3 * x) * std::cos(2 * y));
  }
  const Table2D t(xs, ys, v);
  const double h = 1e-6;
  for (double x : {0.23, 0.55, 0.81}) {
    for (double y : {0.18, 0.64}) {
      const auto s = t.sample(x, y);
      const double fd_x = (t.value(x + h, y) - t.value(x - h, y)) / (2 * h);
      const double fd_y = (t.value(x, y + h) - t.value(x, y - h)) / (2 * h);
      EXPECT_NEAR(s.d_dx, fd_x, 1e-5);
      EXPECT_NEAR(s.d_dy, fd_y, 1e-5);
    }
  }
}

TEST(Table2D, LinearExtrapolationOutsideDomain) {
  std::vector<double> xs = {0.0, 0.5, 1.0};
  std::vector<double> ys = {0.0, 1.0};
  std::vector<double> v = {0.0, 0.0, 1.0, 1.0, 2.0, 2.0};  // v = 2x
  const Table2D t(xs, ys, v);
  EXPECT_NEAR(t.value(1.5, 0.5), 3.0, 1e-9);
  EXPECT_NEAR(t.value(-0.5, 0.5), -1.0, 1e-9);
}

TEST(Table2D, RejectsNonUniformAxis) {
  EXPECT_THROW(Table2D({0.0, 0.1, 0.5}, {0.0, 1.0}, std::vector<double>(6, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(Table2D({0.0, 0.1}, {0.0, 0.1}, std::vector<double>(3, 0.0)),
               std::invalid_argument);
}

TEST(IntrinsicFet, PTypeIsParticleHoleMirror) {
  const auto n = synthetic::synthetic_fet(Polarity::kN, 0.05);
  const auto p = synthetic::synthetic_fet(Polarity::kP, 0.05);
  for (double vgs : {0.1, 0.3, 0.5}) {
    for (double vds : {0.1, 0.4}) {
      EXPECT_NEAR(p.current(-vgs, -vds).value, -n.current(vgs, vds).value, 1e-18);
      EXPECT_NEAR(p.charge(-vgs, -vds).value, -n.charge(vgs, vds).value, 1e-24);
    }
  }
}

TEST(IntrinsicFet, CurrentContinuousAcrossVdsZero) {
  const auto n = synthetic::synthetic_fet(Polarity::kN);
  for (double vgs : {0.0, 0.2, 0.45}) {
    const double below = n.current(vgs, -1e-6).value;
    const double above = n.current(vgs, 1e-6).value;
    EXPECT_NEAR(below, above, 1e-9);
    EXPECT_NEAR(n.current(vgs, 0.0).value, 0.0, 1e-7);
  }
}

TEST(IntrinsicFet, SwapAntisymmetryForCurrent) {
  const auto n = synthetic::synthetic_fet(Polarity::kN);
  // I(vgs, -v) = -I(vgd, v) with vgd = vgs - vds = vgs + v (device
  // symmetry under source/drain exchange).
  for (double vgs : {0.1, 0.35}) {
    for (double v : {0.2, 0.5}) {
      EXPECT_NEAR(n.current(vgs, -v).value, -n.current(vgs + v, v).value, 1e-18);
    }
  }
}

TEST(IntrinsicFet, OffsetShiftsGateAxis) {
  const auto a = synthetic::synthetic_fet(Polarity::kN, 0.0);
  const auto b = synthetic::synthetic_fet(Polarity::kN, 0.15);
  EXPECT_NEAR(b.current(0.3, 0.4).value, a.current(0.45, 0.4).value, 1e-18);
}

TEST(IntrinsicFet, DerivativesMatchFiniteDifferences) {
  const auto n = synthetic::synthetic_fet(Polarity::kN, 0.1);
  const double h = 1e-6;
  for (double vgs : {0.15, 0.4}) {
    for (double vds : {0.12, 0.33}) {
      const auto s = n.current(vgs, vds);
      const double fd_g = (n.current(vgs + h, vds).value - n.current(vgs - h, vds).value) / (2 * h);
      const double fd_d = (n.current(vgs, vds + h).value - n.current(vgs, vds - h).value) / (2 * h);
      EXPECT_NEAR(s.d_dvgs, fd_g, 1e-7 + 1e-4 * std::abs(fd_g));
      EXPECT_NEAR(s.d_dvds, fd_d, 1e-7 + 1e-4 * std::abs(fd_d));
    }
  }
}

TEST(ArrayFet, UniformArrayScalesCurrent) {
  const auto one = synthetic::synthetic_fet(Polarity::kN);
  const auto four = model::ArrayFet::uniform(one, 4);
  EXPECT_NEAR(four.current(0.4, 0.4).value, 4.0 * one.current(0.4, 0.4).value, 1e-18);
  EXPECT_NEAR(four.charge(0.4, 0.4).value, 4.0 * one.charge(0.4, 0.4).value, 1e-24);
}

TEST(ArrayFet, VariantMixing) {
  const auto nom = synthetic::synthetic_fet(Polarity::kN, 0.0);
  const auto var = synthetic::synthetic_fet(Polarity::kN, 0.2);  // stronger device
  const auto mixed = model::ArrayFet::with_variants(nom, var, 4, 1);
  const double expected = 3.0 * nom.current(0.4, 0.4).value + var.current(0.4, 0.4).value;
  EXPECT_NEAR(mixed.current(0.4, 0.4).value, expected, 1e-18);
  EXPECT_THROW(model::ArrayFet::with_variants(nom, var, 4, 5), std::invalid_argument);
}

/// Reference Catmull-Rom lookup with the recursive linear-extension ghost
/// rule, evaluated exactly as the padded-grid Table2D must reproduce it.
model::TableSample reference_sample(const std::vector<double>& xs, const std::vector<double>& ys,
                                    const std::vector<double>& v, double x, double y) {
  const ptrdiff_t nx = static_cast<ptrdiff_t>(xs.size());
  const ptrdiff_t ny = static_cast<ptrdiff_t>(ys.size());
  const std::function<double(ptrdiff_t, ptrdiff_t)> at = [&](ptrdiff_t i,
                                                             ptrdiff_t j) -> double {
    if (i < 0) return 2.0 * at(0, j) - at(-i, j);
    if (i >= nx) return 2.0 * at(nx - 1, j) - at(2 * (nx - 1) - i, j);
    if (j < 0) return 2.0 * at(i, 0) - at(i, -j);
    if (j >= ny) return 2.0 * at(i, ny - 1) - at(i, 2 * (ny - 1) - j);
    return v[static_cast<size_t>(i * ny + j)];
  };
  struct Cubic {
    double value, deriv;
  };
  const auto cr = [](double p0, double p1, double p2, double p3, double t) {
    const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
    const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
    const double c = -0.5 * p0 + 0.5 * p2;
    return Cubic{((a * t + b) * t + c) * t + p1, (3.0 * a * t + 2.0 * b) * t + c};
  };
  const double dx = xs[1] - xs[0], dy = ys[1] - ys[0];
  const double xc = std::clamp(x, xs.front(), xs.back());
  const double yc = std::clamp(y, ys.front(), ys.back());
  const double gx = (xc - xs.front()) / dx, gy = (yc - ys.front()) / dy;
  const ptrdiff_t ix = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gx), nx - 2);
  const ptrdiff_t iy = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gy), ny - 2);
  const double tx = gx - static_cast<double>(ix), ty = gy - static_cast<double>(iy);
  double row_v[4], row_dy[4];
  for (int r = 0; r < 4; ++r) {
    const ptrdiff_t rx = ix - 1 + r;
    const Cubic c = cr(at(rx, iy - 1), at(rx, iy), at(rx, iy + 1), at(rx, iy + 2), ty);
    row_v[r] = c.value;
    row_dy[r] = c.deriv / dy;
  }
  const Cubic cx = cr(row_v[0], row_v[1], row_v[2], row_v[3], tx);
  const Cubic cdy = cr(row_dy[0], row_dy[1], row_dy[2], row_dy[3], tx);
  model::TableSample s{cx.value, cx.deriv / dx, cdy.value};
  if (x != xc) s.value += s.d_dx * (x - xc);
  if (y != yc) s.value += s.d_dy * (y - yc);
  return s;
}

void expect_same_bits(double a, double b, const char* what, double x, double y) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << what << " at (" << x << ", " << y << "): " << a
                                              << " vs " << b;
}

TEST(Table2D, BitIdenticalToRecursiveGhostReference) {
  // A curved, non-separable surface so every ghost (edge and corner)
  // carries a distinct value; the 2-row axis is the smallest legal table.
  for (const size_t nx : {2u, 3u, 7u}) {
    std::vector<double> xs, ys, v;
    for (size_t i = 0; i < nx; ++i) xs.push_back(-0.3 + 0.1 * static_cast<double>(i));
    for (size_t j = 0; j < 5; ++j) ys.push_back(0.05 * static_cast<double>(j));
    for (const double x : xs) {
      for (const double y : ys) v.push_back(std::exp(1.3 * x) * std::sin(3.0 * y + x * y) + x * x);
    }
    const Table2D t(xs, ys, v);
    const double x0 = xs.front(), x1 = xs.back(), y0 = ys.front(), y1 = ys.back();
    std::vector<std::pair<double, double>> probes = {
        {x0, y0}, {x0, y1}, {x1, y0}, {x1, y1},                              // corners
        {x0 - 0.07, y0 - 0.03}, {x1 + 0.2, y1 + 0.1},                        // outside, diagonal
        {x0 - 0.05, y1 + 0.02}, {x1 + 0.05, y0 - 0.01},                      // other corners
        {0.5 * (x0 + x1), y0 - 0.4}, {x1 + 1.0, 0.5 * (y0 + y1)},           // outside, one axis
    };
    for (int i = 0; i <= 40; ++i) {
      for (int j = 0; j <= 30; ++j) {
        probes.emplace_back(x0 + (x1 - x0) * i / 40.0, y0 + (y1 - y0) * j / 30.0);
      }
    }
    for (const auto& [x, y] : probes) {
      const model::TableSample a = t.sample(x, y);
      const model::TableSample b = reference_sample(xs, ys, v, x, y);
      expect_same_bits(a.value, b.value, "value", x, y);
      expect_same_bits(a.d_dx, b.d_dx, "d_dx", x, y);
      expect_same_bits(a.d_dy, b.d_dy, "d_dy", x, y);
    }
  }
}

/// Explicit per-channel sum in array order: the definition ArrayFet's
/// evaluate-once-per-run sum must reproduce bit for bit.
model::FetSample channel_sum(const std::vector<model::IntrinsicFet>& chans, bool current,
                             double vgs, double vds) {
  model::FetSample total;
  for (const auto& c : chans) {
    const model::FetSample s = current ? c.current(vgs, vds) : c.charge(vgs, vds);
    total.value += s.value;
    total.d_dvgs += s.d_dvgs;
    total.d_dvds += s.d_dvds;
  }
  return total;
}

TEST(ArrayFet, RunSumBitIdenticalToPerChannelSum) {
  for (const Polarity pol : {Polarity::kN, Polarity::kP}) {
    const auto nom = synthetic::synthetic_fet(pol, 0.1);
    const auto var = synthetic::synthetic_fet(pol, 0.27);
    struct Case {
      model::ArrayFet array;
      std::vector<model::IntrinsicFet> chans;
    };
    const std::vector<Case> cases = {
        {model::ArrayFet::uniform(nom, 4), {nom, nom, nom, nom}},
        {model::ArrayFet::with_variants(nom, var, 4, 1), {nom, nom, nom, var}},
        {model::ArrayFet::with_variants(nom, var, 4, 4), {var, var, var, var}},
        {model::ArrayFet({nom, var, nom, nom}), {nom, var, nom, nom}},
    };
    for (const auto& c : cases) {
      ASSERT_EQ(c.array.size(), c.chans.size());
      for (int i = 0; i <= 24; ++i) {
        for (int j = 0; j <= 24; ++j) {
          const double vgs = -0.5 + 1.2 * i / 24.0, vds = -0.6 + 1.2 * j / 24.0;
          for (const bool current : {true, false}) {
            const model::FetSample a =
                current ? c.array.current(vgs, vds) : c.array.charge(vgs, vds);
            const model::FetSample b = channel_sum(c.chans, current, vgs, vds);
            expect_same_bits(a.value, b.value, "value", vgs, vds);
            expect_same_bits(a.d_dvgs, b.d_dvgs, "d_dvgs", vgs, vds);
            expect_same_bits(a.d_dvds, b.d_dvds, "d_dvds", vgs, vds);
          }
        }
      }
    }
  }
}

TEST(ArrayFet, RejectsMixedPolarity) {
  std::vector<model::IntrinsicFet> chans = {synthetic::synthetic_fet(Polarity::kN),
                                            synthetic::synthetic_fet(Polarity::kP)};
  EXPECT_THROW(model::ArrayFet a(std::move(chans)), std::invalid_argument);
}

TEST(Parasitics, FromPerWidth) {
  const auto p = model::Parasitics::from_per_width(0.1, 40.0);
  EXPECT_NEAR(p.cgs_e_F, 4e-18, 1e-24);
  EXPECT_NEAR(p.cgd_e_F, 4e-18, 1e-24);
}

}  // namespace
