#include "circuit/dc.hpp"

#include "common/metrics.hpp"
#include "common/trace.hpp"

namespace gnrfet::circuit {

DcResult solve_dc(const Circuit& ckt, const std::vector<double>& initial,
                  const DcOptions& opts) {
  trace::Span span("circuit", "solve_dc");
  NewtonKernel kernel(ckt);
  NewtonLimits limits;
  limits.max_iterations = opts.max_iterations;
  limits.residual_tolerance_A = opts.residual_tolerance_A;
  limits.update_tolerance_V = opts.update_tolerance_V;
  limits.settled_residual_A = 1e-9;
  limits.max_step_V = opts.max_step_V;
  TransientContext ctx;  // dt = 0: charge branches are open

  DcResult result;
  result.x.assign(ckt.num_unknowns(), 0.0);
  if (initial.size() == result.x.size()) result.x = initial;

  int iters = 0;
  result.status = kernel.solve(result.x, ctx, limits, &iters);
  if (result.converged()) {
    result.iterations = iters;
    return result;
  }
  // Source stepping from zero.
  std::vector<double> x(ckt.num_unknowns(), 0.0);
  const int steps = 20;
  for (int s = 1; s <= steps; ++s) {
    ctx.source_scale = static_cast<double>(s) / steps;
    result.status = kernel.solve(x, ctx, limits, &iters);
    if (!result.converged()) {
      metrics::add(result.status == DcStatus::kSingular ? metrics::Counter::kDcSingular
                                                         : metrics::Counter::kDcNotConverged);
      return result;
    }
  }
  result.x = x;
  result.iterations = iters;
  return result;
}

}  // namespace gnrfet::circuit
