#pragma once

#include <optional>
#include <vector>

#include "circuit/mna.hpp"
#include "linalg/ordered_lu.hpp"

/// The one Newton kernel of the circuit simulator, shared by the DC solver
/// (circuit/dc.hpp) and every time step of the transient analysis
/// (circuit/transient.hpp). One iteration: assemble the MNA system, check
/// the stamp contracts, add a 1e-12 gmin to every node diagonal, factor,
/// solve, clamp each node-voltage update, and test convergence.
///
/// A kernel owns its whole workspace (Jacobian, residual, rhs, update and
/// the LU), so the hot loop never allocates. Make one kernel per solve_dc
/// or run_transient call: it is never shared between threads, and the
/// Circuit and its elements stay immutable. The LU's symbolic analysis
/// (elimination order, storage map) runs once, on the pattern of the first
/// assembled Jacobian: the topology of a circuit never changes during a run.
namespace gnrfet::circuit {

struct NewtonLimits {
  int max_iterations = 200;
  double residual_tolerance_A = 1e-12;
  double update_tolerance_V = 1e-10;
  /// Converged also when the update is below tolerance and the residual
  /// below this looser bound (DC: a settled update at a tiny residual).
  /// 0 disables the second test.
  double settled_residual_A = 0.0;
  double max_step_V = 0.3;   ///< clamp on each node-voltage update
  int halve_step_every = 0;  ///< halve the clamp every this many iterations (0: never)
};

enum class NewtonOutcome { kConverged, kSingular, kNotConverged };

class NewtonKernel {
 public:
  explicit NewtonKernel(const Circuit& ckt);

  /// Newton iteration from x (updated in place) under `ctx`. `iterations`,
  /// when given, receives the index of the last iteration that assembled.
  NewtonOutcome solve(std::vector<double>& x, const TransientContext& ctx,
                      const NewtonLimits& limits, int* iterations = nullptr);

  /// One checked assembly at x. Stamping writes ctx.state_next (zeroed
  /// first) when the context carries one.
  void assemble(const std::vector<double>& x, const TransientContext& ctx);

 private:
  const Circuit& ckt_;
  MnaSystem sys_;
  std::optional<linalg::OrderedLU> lu_;
  std::vector<double> rhs_, dx_;
};

}  // namespace gnrfet::circuit
