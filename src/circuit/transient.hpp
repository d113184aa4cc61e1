#pragma once

#include "circuit/dc.hpp"

/// Fixed-step trapezoidal transient analysis.
namespace gnrfet::circuit {

struct TransientOptions {
  double t_stop = 1e-9;
  double dt = 0.25e-12;
  int max_newton_iterations = 60;
  double residual_tolerance_A = 1e-10;
  double update_tolerance_V = 1e-7;
  /// Optional initial node voltages (size = num_unknowns). When set, the
  /// run starts from this state instead of the DC operating point — used
  /// to kick ring oscillators.
  std::vector<double> initial_x;
};

struct Waveforms {
  std::vector<double> time;
  /// samples[step][unknown]: node voltages followed by branch currents.
  std::vector<std::vector<double>> samples;

  std::vector<double> node(const Circuit& ckt, NodeId n) const;
  std::vector<double> branch(const Circuit& ckt, size_t branch_index) const;
};

/// How a transient run ended: completed, no DC operating point to start
/// from, or a time step whose Newton solve failed (singular Jacobian or
/// iteration limit).
enum class TransientStatus { kOk, kDcFailed, kNewtonFailed };

struct TransientResult {
  TransientStatus status = TransientStatus::kOk;
  double failed_at_s = 0.0;  ///< time of the failing step (kNewtonFailed)
  Waveforms waves;           ///< accepted steps up to the failure

  bool ok() const { return status == TransientStatus::kOk; }
};

/// A failed run increments the metrics counter of its status
/// (transient_dc_failed / transient_newton_failed).

TransientResult run_transient(const Circuit& ckt, const TransientOptions& opts);

}  // namespace gnrfet::circuit
