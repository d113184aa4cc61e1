#include "circuit/newton.hpp"

#include <algorithm>
#include <cmath>

#include "common/metrics.hpp"

namespace gnrfet::circuit {

NewtonKernel::NewtonKernel(const Circuit& ckt)
    : ckt_(ckt), sys_(ckt.num_unknowns()), rhs_(ckt.num_unknowns()), dx_(ckt.num_unknowns()) {}

void NewtonKernel::assemble(const std::vector<double>& x, const TransientContext& ctx) {
  if (ctx.state_next) std::fill(ctx.state_next->begin(), ctx.state_next->end(), 0.0);
  sys_.clear();
  Stamper st(ckt_, x, sys_);
  for (const auto& e : ckt_.elements()) e->stamp(st, ctx);
  check_mna_stamp(ckt_, sys_);
}

NewtonOutcome NewtonKernel::solve(std::vector<double>& x, const TransientContext& ctx,
                                  const NewtonLimits& limits, int* iterations) {
  const size_t n = sys_.size();
  const size_t num_node_unknowns = n - ckt_.num_branches();
  double clamp_v = limits.max_step_V;
  for (int it = 0; it < limits.max_iterations; ++it) {
    if (limits.halve_step_every > 0 && it > 0 && it % limits.halve_step_every == 0) {
      clamp_v *= 0.5;  // annealed if Newton cycles
    }
    assemble(x, ctx);
    double res_norm = 0.0;
    for (const double r : sys_.residual()) res_norm = std::max(res_norm, std::abs(r));
    if (iterations) *iterations = it;
    // Tiny diagonal regularization (gmin) keeps floating internal nodes
    // solvable without visibly perturbing operating points. Branch rows
    // keep their zero diagonal: the LU pivots past it.
    for (size_t i = 0; i < num_node_unknowns; ++i) sys_.add_jacobian(i, i, 1e-12);
    // Symbolic analysis on the first pattern (again only if an element
    // ever stamps a new position).
    if (!lu_ || lu_->num_entries() != sys_.entries().size()) lu_.emplace(n, sys_.entries());
    metrics::add(metrics::Counter::kMnaFactorizations);
    if (!lu_->factor(sys_.values())) return NewtonOutcome::kSingular;
    for (size_t i = 0; i < n; ++i) rhs_[i] = -sys_.residual()[i];
    lu_->solve(rhs_, dx_);
    double max_dx = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const bool node = i < num_node_unknowns;
      const double d = node ? std::clamp(dx_[i], -clamp_v, clamp_v) : dx_[i];
      x[i] += d;
      if (node) max_dx = std::max(max_dx, std::abs(d));
    }
    if (max_dx < limits.update_tolerance_V &&
        (res_norm < limits.residual_tolerance_A || res_norm < limits.settled_residual_A)) {
      return NewtonOutcome::kConverged;
    }
  }
  return NewtonOutcome::kNotConverged;
}

}  // namespace gnrfet::circuit
