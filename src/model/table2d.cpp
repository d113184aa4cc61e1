#include "model/table2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"

namespace gnrfet::model {

namespace {

/// Catmull-Rom cubic through p0..p3 at parameter t in [0,1] between p1,p2,
/// plus its derivative with respect to t.
struct Cubic {
  double value;
  double deriv;
};

Cubic catmull_rom(double p0, double p1, double p2, double p3, double t) {
  const double a = -0.5 * p0 + 1.5 * p1 - 1.5 * p2 + 0.5 * p3;
  const double b = p0 - 2.5 * p1 + 2.0 * p2 - 0.5 * p3;
  const double c = -0.5 * p0 + 0.5 * p2;
  const double d = p1;
  return {((a * t + b) * t + c) * t + d, (3.0 * a * t + 2.0 * b) * t + c};
}

void check_axis(const std::vector<double>& axis, const char* name) {
  if (axis.size() < 2) throw std::invalid_argument(std::string("Table2D: axis too short: ") + name);
  const double h = axis[1] - axis[0];
  if (h <= 0.0) throw std::invalid_argument(std::string("Table2D: axis not ascending: ") + name);
  for (size_t i = 1; i < axis.size(); ++i) {
    if (std::abs((axis[i] - axis[i - 1]) - h) > 1e-9 * std::max(1.0, std::abs(h))) {
      throw std::invalid_argument(std::string("Table2D: axis not uniform: ") + name);
    }
  }
}

}  // namespace

Table2D::Table2D(std::vector<double> xs, std::vector<double> ys, std::vector<double> values)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  check_axis(xs_, "x");
  check_axis(ys_, "y");
  if (values.size() != xs_.size() * ys_.size()) {
    throw std::invalid_argument("Table2D: value count mismatch");
  }
  GNRFET_REQUIRE("model", "finite-table", contracts::all_finite(values),
                 "interpolation table contains NaN/inf values");
  dx_ = xs_[1] - xs_[0];
  dy_ = ys_[1] - ys_[0];

  // Linearly extended ghost points preserve the boundary slope of the
  // Catmull-Rom patches (clamped ghosts would halve the edge gradient,
  // distorting the FET-table extrapolation region):
  // v(-1) = 2 v(0) - v(1) and v(n) = 2 v(n-1) - v(n-2), along y first on
  // every grid row, then along x on every padded column (the corners
  // extend the y ghosts).
  const size_t nx = xs_.size(), ny = ys_.size(), stride = ny + 2;
  padded_.assign((nx + 2) * stride, 0.0);
  for (size_t i = 0; i < nx; ++i) {
    const double* src = &values[i * ny];
    double* row = &padded_[(i + 1) * stride];
    std::copy(src, src + ny, row + 1);
    row[0] = 2.0 * src[0] - src[1];
    row[ny + 1] = 2.0 * src[ny - 1] - src[ny - 2];
  }
  double* first = &padded_[0];
  const double* second = first + stride;
  const double* third = second + stride;
  double* last = &padded_[(nx + 1) * stride];
  const double* inner = last - stride;
  const double* inner2 = inner - stride;
  for (size_t j = 0; j < stride; ++j) {
    first[j] = 2.0 * second[j] - third[j];
    last[j] = 2.0 * inner[j] - inner2[j];
  }
}

TableSample Table2D::sample(double x, double y) const {
  // Clamp to the domain; outside it the value continues linearly with the
  // boundary gradient (computed by sampling at the clamped point).
  const double xc = std::clamp(x, xs_.front(), xs_.back());
  const double yc = std::clamp(y, ys_.front(), ys_.back());

  const double gx = (xc - xs_.front()) / dx_;
  const double gy = (yc - ys_.front()) / dy_;
  ptrdiff_t ix = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gx),
                                     static_cast<ptrdiff_t>(xs_.size()) - 2);
  ptrdiff_t iy = std::min<ptrdiff_t>(static_cast<ptrdiff_t>(gy),
                                     static_cast<ptrdiff_t>(ys_.size()) - 2);
  const double tx = gx - static_cast<double>(ix);
  const double ty = gy - static_cast<double>(iy);

  // Interpolate along y for the 4 x-rows, tracking d/dy. Stencil rows
  // ix-1..ix+2 and columns iy-1..iy+2 start at padded (ix, iy).
  const size_t stride = ys_.size() + 2;
  const double* p = &padded_[static_cast<size_t>(ix) * stride + static_cast<size_t>(iy)];
  double row_v[4], row_dy[4];
  for (int r = 0; r < 4; ++r, p += stride) {
    const Cubic c = catmull_rom(p[0], p[1], p[2], p[3], ty);
    row_v[r] = c.value;
    row_dy[r] = c.deriv / dy_;
  }
  const Cubic cx = catmull_rom(row_v[0], row_v[1], row_v[2], row_v[3], tx);
  const Cubic cdy = catmull_rom(row_dy[0], row_dy[1], row_dy[2], row_dy[3], tx);

  TableSample s;
  s.value = cx.value;
  s.d_dx = cx.deriv / dx_;
  s.d_dy = cdy.value;

  // Linear extension outside the domain.
  if (x != xc) s.value += s.d_dx * (x - xc);
  if (y != yc) s.value += s.d_dy * (y - yc);
  return s;
}

}  // namespace gnrfet::model
