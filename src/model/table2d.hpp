#pragma once

#include <cstddef>
#include <vector>

/// Smooth 2D lookup table (Catmull-Rom bicubic) for the circuit-level
/// device models. Smooth first derivatives are required by the circuit
/// simulator's Newton iterations and by the capacitance extraction
/// C = |dQ/dV| of Sec. 3. The constructor pads the grid with one ring of
/// linearly extended ghost points, so a sample reads its 4 x 4 stencil
/// from contiguous rows with no boundary branches.
namespace gnrfet::model {

struct TableSample {
  double value = 0.0;
  double d_dx = 0.0;
  double d_dy = 0.0;
};

class Table2D {
 public:
  /// `values` is row-major over (x, y): values[ix * ys.size() + iy].
  /// Axes must be strictly ascending and uniformly spaced.
  Table2D(std::vector<double> xs, std::vector<double> ys, std::vector<double> values);

  double value(double x, double y) const { return sample(x, y).value; }
  TableSample sample(double x, double y) const;

  double x_min() const { return xs_.front(); }
  double x_max() const { return xs_.back(); }
  double y_min() const { return ys_.front(); }
  double y_max() const { return ys_.back(); }

 private:
  std::vector<double> xs_, ys_;
  /// (nx + 2) x (ny + 2) row-major: grid point (ix, iy) at
  /// [(ix + 1) * (ny + 2) + iy + 1], ghosts in the outer ring.
  std::vector<double> padded_;
  double dx_ = 0.0, dy_ = 0.0;
};

}  // namespace gnrfet::model
