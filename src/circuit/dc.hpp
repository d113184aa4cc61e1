#pragma once

#include "circuit/newton.hpp"

/// Newton DC operating-point solver with source-stepping homotopy.
namespace gnrfet::circuit {

struct DcOptions {
  int max_iterations = 200;
  double residual_tolerance_A = 1e-12;
  double update_tolerance_V = 1e-10;
  double max_step_V = 0.3;  ///< Newton damping clamp
};

/// How a DC solve ended: the outcome of its last Newton solve (converged,
/// a numerically singular Jacobian, or the iteration limit).
using DcStatus = NewtonOutcome;

struct DcResult {
  DcStatus status = DcStatus::kNotConverged;
  int iterations = 0;
  std::vector<double> x;  ///< node voltages + branch currents

  bool converged() const { return status == DcStatus::kConverged; }
};

/// Solve at full sources. `initial` (may be empty) seeds Newton; if direct
/// Newton fails, sources are ramped from 0 in steps (each step warm-started
/// from the last). A failed solve increments the metrics counter of its
/// status (dc_singular / dc_not_converged).
DcResult solve_dc(const Circuit& ckt, const std::vector<double>& initial = {},
                  const DcOptions& opts = {});

}  // namespace gnrfet::circuit
