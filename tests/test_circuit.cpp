#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/measure.hpp"
#include "circuit/snm.hpp"
#include "common/metrics.hpp"
#include "linalg/lu.hpp"
#include "linalg/ordered_lu.hpp"
#include "synthetic_device.hpp"

namespace {

using namespace gnrfet;
using namespace gnrfet::circuit;
using model::Polarity;

InverterModels synthetic_inverter(double offset = 0.12) {
  const auto par = model::Parasitics::from_per_width(0.05, 40.0);
  InverterModels m;
  m.nfet = model::make_extrinsic(
      model::ArrayFet::uniform(synthetic::synthetic_fet(Polarity::kN, offset), 4), par);
  m.pfet = model::make_extrinsic(
      model::ArrayFet::uniform(synthetic::synthetic_fet(Polarity::kP, offset), 4), par);
  return m;
}

uint64_t counter(metrics::Counter c) {
  return metrics::snapshot().counters[static_cast<size_t>(c)];
}

/// Two sources forcing one node: equal branch rows, so the Jacobian is
/// singular while every branch row still has a nonzero (the structural
/// contract passes and the failure must come from the factorization).
Circuit parallel_sources() {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 2.0));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1e3));
  return ckt;
}

TEST(Dc, SingularJacobianReportsSingularStatus) {
  const Circuit ckt = parallel_sources();
  const uint64_t before = counter(metrics::Counter::kDcSingular);
  const DcResult dc = solve_dc(ckt);
  EXPECT_FALSE(dc.converged());
  EXPECT_EQ(dc.status, DcStatus::kSingular);
  EXPECT_EQ(counter(metrics::Counter::kDcSingular), before + 1);
}

TEST(Dc, IterationLimitReportsNotConverged) {
  Circuit ckt;
  const NodeId vdd = ckt.new_node("vdd"), in = ckt.new_node("in"), out = ckt.new_node("out");
  ckt.add(std::make_unique<VoltageSource>(vdd, kGround, 0.4));
  ckt.add(std::make_unique<VoltageSource>(in, kGround, 0.2));
  add_inverter(ckt, synthetic_inverter(), in, out, vdd);
  DcOptions opts;
  opts.max_iterations = 1;
  const uint64_t before = counter(metrics::Counter::kDcNotConverged);
  const DcResult dc = solve_dc(ckt, {}, opts);
  EXPECT_EQ(dc.status, DcStatus::kNotConverged);
  EXPECT_EQ(counter(metrics::Counter::kDcNotConverged), before + 1);
  opts.max_iterations = 200;
  EXPECT_EQ(solve_dc(ckt, {}, opts).status, DcStatus::kConverged);
}

/// Assembles `ckt` at x like one Newton iteration does (stamps, then the
/// 1e-12 gmin on node diagonals) and checks that the ordered sparse LU
/// solves the system like the dense LUReal oracle.
void expect_ordered_lu_matches_dense(const Circuit& ckt, const std::vector<double>& x,
                                     const TransientContext& ctx) {
  const size_t n = ckt.num_unknowns();
  MnaSystem sys(n);
  Stamper st(ckt, x, sys);
  for (const auto& e : ckt.elements()) e->stamp(st, ctx);
  check_mna_stamp(ckt, sys);
  for (size_t i = 0; i + ckt.num_branches() < n; ++i) sys.add_jacobian(i, i, 1e-12);
  linalg::OrderedLU lu(n, sys.entries());
  ASSERT_TRUE(lu.factor(sys.values()));
  std::vector<double> rhs(n), dx;
  for (size_t i = 0; i < n; ++i) rhs[i] = -sys.residual()[i];
  lu.solve(rhs, dx);
  linalg::DMatrix dense(n, n);
  for (size_t s = 0; s < sys.entries().size(); ++s) {
    dense(sys.entries()[s].first, sys.entries()[s].second) = sys.values()[s];
  }
  const std::vector<double> ref = linalg::LUReal(dense).solve(rhs);
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(dx[i], ref[i], 1e-10 * scale) << "unknown " << i;
}

TEST(Transient, OrderedLuMatchesDenseLuOnRingAndFo4Jacobians) {
  const InverterModels inv = synthetic_inverter();
  const RingOscillator ring = build_ring_oscillator(std::vector<InverterModels>(15, inv), inv, 0.4);
  const Fo4Testbench fo4 =
      build_fo4_inverter(inv, inv, 0.4, pulse_waveform(0.0, 0.4, 5e-12, 2e-12));
  const DcResult fo4_dc = solve_dc(fo4.ckt);
  ASSERT_TRUE(fo4_dc.converged());
  for (const auto& [ckt, x] :
       {std::pair<const Circuit*, std::vector<double>>{&ring.ckt, ring.kick_state()},
        std::pair<const Circuit*, std::vector<double>>{&fo4.ckt, fo4_dc.x}}) {
    TransientContext dc_ctx;
    expect_ordered_lu_matches_dense(*ckt, x, dc_ctx);
    std::vector<double> state(ckt->state_size(), 0.0), state_next(state.size(), 0.0);
    for (const auto& e : ckt->elements()) e->init_state(*ckt, x, state);
    TransientContext tr_ctx;
    tr_ctx.time = 6e-12;
    tr_ctx.dt = 0.5e-12;
    tr_ctx.state_prev = &state;
    tr_ctx.state_next = &state_next;
    std::vector<double> moved = x;
    for (size_t i = 0; i < moved.size(); i += 3) moved[i] += 0.01;  // off the DC point
    expect_ordered_lu_matches_dense(*ckt, moved, tr_ctx);
  }
}

TEST(Transient, NewtonFailureReportsStepTime) {
  Circuit ckt;
  const NodeId in = ckt.new_node();
  const NodeId out = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(in, kGround, pulse_waveform(0.0, 1.0, 0.0, 1e-12)));
  ckt.add(std::make_unique<Resistor>(in, out, 10e3));
  ckt.add(std::make_unique<Capacitor>(out, kGround, 1e-15));
  TransientOptions opts;
  opts.t_stop = 5e-12;
  opts.dt = 0.5e-12;
  opts.max_newton_iterations = 1;  // the first step moves the source: one update never settles
  const uint64_t before = counter(metrics::Counter::kTransientNewtonFailed);
  const TransientResult tr = run_transient(ckt, opts);
  EXPECT_EQ(tr.status, TransientStatus::kNewtonFailed);
  EXPECT_EQ(tr.failed_at_s, opts.dt);
  EXPECT_EQ(tr.waves.time.size(), 1u);  // only the DC point was accepted
  EXPECT_EQ(counter(metrics::Counter::kTransientNewtonFailed), before + 1);
}

TEST(Transient, MissingDcPointReportsDcFailed) {
  const Circuit ckt = parallel_sources();
  const uint64_t before = counter(metrics::Counter::kTransientDcFailed);
  const TransientResult tr = run_transient(ckt, TransientOptions{});
  EXPECT_EQ(tr.status, TransientStatus::kDcFailed);
  EXPECT_FALSE(tr.ok());
  EXPECT_EQ(counter(metrics::Counter::kTransientDcFailed), before + 1);
}

TEST(Dc, ResistorDivider) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  const NodeId b = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(a, b, 1000.0));
  ckt.add(std::make_unique<Resistor>(b, kGround, 3000.0));
  const DcResult dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged());
  EXPECT_NEAR(dc.x[static_cast<size_t>(ckt.unknown_of_node(b))], 0.75, 1e-9);
}

TEST(Dc, VoltageSourceBranchCurrentSign) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  auto src = std::make_unique<VoltageSource>(a, kGround, 2.0);
  const size_t branch = src->branch();
  ckt.add(std::move(src));
  ckt.add(std::make_unique<Resistor>(a, kGround, 1000.0));
  const DcResult dc = solve_dc(ckt);
  ASSERT_TRUE(dc.converged());
  // Load draws 2 mA from the supply: branch current (p->m through the
  // source) is -2 mA, so delivered power is -V*i = +4 mW.
  EXPECT_NEAR(dc.x[ckt.unknown_of_branch(branch)], -2e-3, 1e-9);
}

TEST(Transient, RcStepResponseMatchesAnalytic) {
  Circuit ckt;
  const NodeId in = ckt.new_node();
  const NodeId out = ckt.new_node();
  const double r = 10e3, c = 1e-15;  // tau = 10 ps
  ckt.add(std::make_unique<VoltageSource>(in, kGround, pulse_waveform(0.0, 1.0, 5e-12, 1e-15)));
  ckt.add(std::make_unique<Resistor>(in, out, r));
  ckt.add(std::make_unique<Capacitor>(out, kGround, c));
  TransientOptions opts;
  opts.t_stop = 60e-12;
  opts.dt = 0.05e-12;
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok());
  const auto v = tr.waves.node(ckt, out);
  for (size_t i = 0; i < tr.waves.time.size(); i += 100) {
    const double t = tr.waves.time[i] - 5e-12;
    const double expected = t <= 0 ? 0.0 : 1.0 - std::exp(-t / (r * c));
    EXPECT_NEAR(v[i], expected, 0.01) << "t=" << tr.waves.time[i];
  }
}

TEST(Transient, CapacitorBlocksDc) {
  Circuit ckt;
  const NodeId a = ckt.new_node();
  const NodeId b = ckt.new_node();
  ckt.add(std::make_unique<VoltageSource>(a, kGround, 1.0));
  ckt.add(std::make_unique<Resistor>(a, b, 1e3));
  ckt.add(std::make_unique<Capacitor>(b, kGround, 1e-15));
  TransientOptions opts;
  opts.t_stop = 50e-12;
  opts.dt = 0.5e-12;
  const TransientResult tr = run_transient(ckt, opts);
  ASSERT_TRUE(tr.ok());
  // Started from DC: the capacitor is already charged, nothing moves.
  const auto v = tr.waves.node(ckt, b);
  EXPECT_NEAR(v.back(), 1.0, 1e-6);
}

TEST(Vtc, InverterIsMonotoneAndRailToRail) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  EXPECT_GT(vtc.vout.front(), 0.9 * 0.4);
  EXPECT_LT(vtc.vout.back(), 0.1 * 0.4);
  for (size_t i = 1; i < vtc.vout.size(); ++i) {
    // Allow a small ambipolar ripple: the off device weakens as vin rises.
    EXPECT_LE(vtc.vout[i], vtc.vout[i - 1] + 2.5e-3);
  }
}

TEST(Vtc, SymmetricInverterSwitchesAtMidRail) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  // Find the input where vout crosses VDD/2.
  double v_switch = 0.0;
  for (size_t i = 1; i < vtc.vin.size(); ++i) {
    if (vtc.vout[i - 1] >= 0.2 && vtc.vout[i] < 0.2) {
      v_switch = 0.5 * (vtc.vin[i - 1] + vtc.vin[i]);
      break;
    }
  }
  EXPECT_NEAR(v_switch, 0.2, 0.03);
}

TEST(Snm, SymmetricButterflyLobesAreEqual) {
  const InverterModels inv = synthetic_inverter();
  const Vtc vtc = compute_vtc(inv, 0.4);
  const double l1 = butterfly_lobe(vtc, vtc);
  const Vtc ivt = invert_vtc(vtc);
  const double l2 = butterfly_lobe(ivt, ivt);
  EXPECT_GT(l1, 0.02);
  EXPECT_NEAR(l1, l2, 0.01);
  EXPECT_NEAR(butterfly_snm(vtc, vtc), std::min(l1, l2), 1e-9);
}

TEST(Snm, DegradedInverterReducesSnm) {
  const InverterModels good = synthetic_inverter(0.12);
  // Skewed pair: weak offset mismatches the VTC switching point.
  InverterModels skewed = good;
  const auto par = model::Parasitics::from_per_width(0.05, 40.0);
  skewed.nfet = model::make_extrinsic(
      model::ArrayFet::uniform(synthetic::synthetic_fet(Polarity::kN, 0.3), 4), par);
  const Vtc a = compute_vtc(good, 0.4);
  const Vtc b = compute_vtc(skewed, 0.4);
  EXPECT_LT(butterfly_snm(b, b), butterfly_snm(a, a));
}

TEST(Measure, CrossingTimesAndFrequency) {
  std::vector<double> t, v;
  const double f = 2e9;
  for (int i = 0; i <= 2000; ++i) {
    t.push_back(i * 1e-12);
    v.push_back(0.5 + 0.4 * std::sin(2 * M_PI * f * t.back()));
  }
  const auto rises = crossing_times(t, v, 0.5, true);
  EXPECT_GE(rises.size(), 3u);
  EXPECT_NEAR(oscillation_frequency(t, v, 0.5), f, 0.02 * f);
}

TEST(Measure, InverterMetricsAreSane) {
  const InverterModels inv = synthetic_inverter();
  InverterMeasureOptions opts;
  opts.vdd = 0.4;
  opts.probe_period_s = 120e-12;
  opts.dt_s = 0.1e-12;
  const InverterMetrics m = measure_inverter(inv, inv, opts);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.delay_s, 0.1e-12);
  EXPECT_LT(m.delay_s, 40e-12);
  EXPECT_GT(m.dynamic_power_W, 0.0);
  EXPECT_GT(m.static_power_W, 0.0);
  EXPECT_GT(m.snm_V, 0.02);
}

TEST(Measure, RingOscillatorOscillates) {
  const InverterModels inv = synthetic_inverter();
  RingMeasureOptions opts;
  opts.vdd = 0.4;
  opts.t_stop_s = 1.0e-9;
  opts.dt_s = 0.5e-12;
  const RingMetrics m =
      measure_ring_oscillator(std::vector<InverterModels>(15, inv), inv, opts);
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.frequency_Hz, 0.5e9);
  EXPECT_LT(m.frequency_Hz, 100e9);
  EXPECT_GT(m.total_power_W, m.static_power_W);
  EXPECT_GT(m.edp_Js, 0.0);
}

TEST(Measure, SlowRingIsRetriedOverFourTimesTheHorizon) {
  const InverterModels inv = synthetic_inverter();
  const std::vector<InverterModels> stages(15, inv);
  RingMeasureOptions opts;
  opts.vdd = 0.4;
  opts.dt_s = 0.5e-12;
  opts.t_stop_s = 0.3e-9;  // one rising crossing; 4x the horizon gives 3+
  const uint64_t retries = counter(metrics::Counter::kRingHorizonRetries);
  const RingMetrics m = measure_ring_oscillator(stages, inv, opts);
  ASSERT_TRUE(m.ok);
  EXPECT_EQ(m.failure, RingFailure::kNone);
  EXPECT_EQ(counter(metrics::Counter::kRingHorizonRetries), retries + 1);
  // The retry is exactly a run over the 4x horizon.
  RingMeasureOptions longer = opts;
  longer.t_stop_s = 4.0 * opts.t_stop_s;
  const RingMetrics direct = measure_ring_oscillator(stages, inv, longer);
  ASSERT_TRUE(direct.ok);
  EXPECT_EQ(m.frequency_Hz, direct.frequency_Hz);
  EXPECT_EQ(m.edp_Js, direct.edp_Js);
  EXPECT_EQ(m.dynamic_power_W, direct.dynamic_power_W);
}

TEST(Measure, RingWithTooFewCrossingsReportsReason) {
  const InverterModels inv = synthetic_inverter();
  RingMeasureOptions opts;
  opts.vdd = 0.4;
  opts.dt_s = 0.5e-12;
  opts.t_stop_s = 10e-12;  // 4x is still far below one period
  const uint64_t gave_up = counter(metrics::Counter::kRingTooFewCrossings);
  const RingMetrics m = measure_ring_oscillator(std::vector<InverterModels>(15, inv), inv, opts);
  EXPECT_FALSE(m.ok);
  EXPECT_EQ(m.failure, RingFailure::kTooFewCrossings);
  EXPECT_EQ(m.frequency_Hz, 0.0);
  EXPECT_EQ(counter(metrics::Counter::kRingTooFewCrossings), gave_up + 1);
}

TEST(Latch, IsBistable) {
  const InverterModels inv = synthetic_inverter();
  Latch latch = build_latch(inv, inv, 0.4);
  // Seed Newton at the two states.
  std::vector<double> seed_a(latch.ckt.num_unknowns(), 0.0);
  seed_a[static_cast<size_t>(latch.ckt.unknown_of_node(latch.vdd_node))] = 0.4;
  std::vector<double> seed_b = seed_a;
  seed_a[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))] = 0.4;
  seed_b[static_cast<size_t>(latch.ckt.unknown_of_node(latch.qb))] = 0.4;
  const DcResult a = solve_dc(latch.ckt, seed_a);
  const DcResult b = solve_dc(latch.ckt, seed_b);
  ASSERT_TRUE(a.converged());
  ASSERT_TRUE(b.converged());
  // Two distinct stable states near the rails (which seed lands on which
  // state is solver-dependent; bistability is what matters).
  const double qa = a.x[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))];
  const double qb = b.x[static_cast<size_t>(latch.ckt.unknown_of_node(latch.q))];
  EXPECT_GT(std::abs(qa - qb), 0.25);
  EXPECT_GT(std::max(qa, qb), 0.3);
  EXPECT_LT(std::min(qa, qb), 0.1);
}

TEST(Elements, GateLoadCapacitanceIsPositive) {
  const InverterModels inv = synthetic_inverter();
  Circuit ckt;
  const NodeId n = ckt.new_node();
  InverterGateLoad load(inv.nfet, inv.pfet, n, 0.4);
  for (double v : {0.0, 0.2, 0.4}) {
    EXPECT_GT(load.capacitance(v), 1e-19);
    EXPECT_LT(load.capacitance(v), 1e-15);
  }
}

}  // namespace
