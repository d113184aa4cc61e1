/// `pipebench selftest`: every output check must accept a correct output
/// and reject a deliberately wrong one. Correct tables come from the
/// committed standard table; plane points are synthetic.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

struct Tally {
  int cases = 0;
  int bad = 0;

  /// `want_pass`: the check must return "" on this input; otherwise it
  /// must return a reason.
  void expect(const char* name, bool want_pass, const std::string& result) {
    ++cases;
    const bool passed = result.empty();
    const bool good = passed == want_pass;
    if (!good) ++bad;
    std::printf("%-4s %-52s %s\n", good ? "ok" : "FAIL", name,
                passed ? "(accepted)" : result.c_str());
  }
};

/// Flat index of the table entry at (vg, vd); throws if either is off-grid.
size_t index_of(const perfbench::DeviceTable& t, double vg, double vd) {
  const long ig = perfbench::axis_index(t.vg, vg);
  const long id = perfbench::axis_index(t.vd, vd);
  if (ig < 0 || id < 0) throw std::invalid_argument("selftest: bias not on the table grid");
  return static_cast<size_t>(ig) * t.vd.size() + static_cast<size_t>(id);
}

perfbench::ExplorePoint point(double vt, double vdd, double f_Hz, double snm_V) {
  perfbench::ExplorePoint p;
  p.vt = vt;
  p.vdd = vdd;
  p.frequency_Hz = f_Hz;
  p.snm_V = snm_V;
  p.edp_Js = 1e-27;
  p.ok = true;
  return p;
}

}  // namespace

int selftest(const std::string& table_path) {
  using namespace perfbench;
  Tally t;
  const DeviceTable good = gnrfet::device::load_table(table_path);

  t.expect("finite: standard table", true, check_table_finite(good));
  DeviceTable nan = good;
  nan.charge_C[index_of(nan, 0.40, 0.30)] = std::nan("");
  t.expect("finite: one charge NaN", false, check_table_finite(nan));

  t.expect("I(VD=0)=0: standard table", true, check_zero_drain_current(good));
  DeviceTable leak = good;
  leak.current_A[index_of(leak, 0.50, 0.00)] = 1e-12;
  t.expect("I(VD=0)=0: 1 pA at VD=0", false, check_zero_drain_current(leak));

  t.expect("I>=0: standard table", true, check_nonnegative_current(good));
  DeviceTable neg = good;
  neg.current_A[index_of(neg, 0.30, 0.20)] *= -1.0;
  t.expect("I>=0: one current negated", false, check_nonnegative_current(neg));

  t.expect("repeat: identical tables", true, check_tables_identical(good, good));
  DeviceTable ulp = good;
  ulp.current_A[index_of(ulp, 0.60, 0.40)] =
      std::nextafter(ulp.current_A[index_of(ulp, 0.60, 0.40)], 1.0);
  t.expect("repeat: one current moved by 1 ulp", false, check_tables_identical(good, ulp));

  // Independent fine re-solve against the committed table and wrong copies,
  // at the warm-start tolerance and at the cold-entry tolerance.
  const gnrfet::device::DeviceGeometry geometry(gnrfet::device::DeviceSpec{});
  const Reference ref = resolve_reference(geometry, {}, 0.35, 0.25);
  const size_t at = index_of(good, 0.35, 0.25);
  t.expect("re-solve: standard table at (0.35, 0.25)", true,
           check_against_reference(good, ref, kWarmCurrentRelTol, kWarmChargeRelTol));
  DeviceTable hot = good;
  hot.current_A[at] *= 1.1;
  t.expect("re-solve: current scaled by 1.1", false,
           check_against_reference(hot, ref, kWarmCurrentRelTol, kWarmChargeRelTol));
  DeviceTable heavy = good;
  heavy.charge_C[at] *= 1.1;
  t.expect("re-solve: charge scaled by 1.1", false,
           check_against_reference(heavy, ref, kWarmCurrentRelTol, kWarmChargeRelTol));
  DeviceTable near = good;
  near.current_A[at] = ref.current_A * (1.0 + 0.4 * kColdCurrentRelTol);
  near.charge_C[at] = ref.charge_C * (1.0 - 0.6 * kColdChargeRelTol);
  t.expect("re-solve (cold): entry within the tight tolerance", true,
           check_against_reference(near, ref, kColdCurrentRelTol, kColdChargeRelTol));
  DeviceTable drift = near;
  drift.current_A[at] = ref.current_A * 1.01;
  t.expect("re-solve (cold): current off by 1%", false,
           check_against_reference(drift, ref, kColdCurrentRelTol, kColdChargeRelTol));
  drift = near;
  drift.charge_C[at] = ref.charge_C * 1.015;
  t.expect("re-solve (cold): charge off by 1.5%", false,
           check_against_reference(drift, ref, kColdCurrentRelTol, kColdChargeRelTol));

  // Plane: an L of three points with the measured trends.
  const std::vector<ExplorePoint> plane = {point(0.13, 0.40, 3.0e9, 0.12),
                                           point(0.18, 0.40, 2.2e9, 0.13),
                                           point(0.13, 0.50, 4.5e9, 0.16)};
  t.expect("trends: measured L", true, check_frequency_trends(plane));
  std::vector<ExplorePoint> swapped = plane;
  std::swap(swapped[0].frequency_Hz, swapped[1].frequency_Hz);
  t.expect("trends: two points swapped", false, check_frequency_trends(swapped));

  std::vector<ExplorePoint> dead = plane;
  dead[2].ok = false;
  t.expect("failed count: every ring ok", true,
           count_failed_points(plane) == 0 ? "" : "miscounted");
  t.expect("failed count: one ring with ok=false", false,
           count_failed_points(dead) == 1 ? "counted as failed" : "");

  t.expect("SNM range: measured L", true, check_snm_range(plane));
  std::vector<ExplorePoint> snm = plane;
  snm[1].snm_V = 0.0;
  t.expect("SNM range: SNM = 0", false, check_snm_range(snm));
  snm[1].snm_V = 0.5 * snm[1].vdd;
  t.expect("SNM range: SNM = VDD/2", false, check_snm_range(snm));

  const double tpd = 0.68 / (2.0 * 15 * plane[0].frequency_Hz);
  t.expect("FO4: f*2N*t_pd = 0.68", true, check_fo4_consistency(plane[0], tpd, 15, 0.62, 0.74));
  ExplorePoint fast = plane[0];
  fast.frequency_Hz *= 1.15;
  t.expect("FO4: frequency scaled by 1.15", false,
           check_fo4_consistency(fast, tpd, 15, 0.62, 0.74));

  ExplorePoint half = plane[0];
  half.frequency_Hz *= 1.0 + 1.3e-4;
  t.expect("dt/2: f moved by 1.3e-4", true, check_timestep_convergence(plane[0], half, 1e-3));
  half.frequency_Hz = plane[0].frequency_Hz * 1.005;
  t.expect("dt/2: f moved by 5e-3", false, check_timestep_convergence(plane[0], half, 1e-3));
  half = plane[0];
  half.ok = false;
  t.expect("dt/2: re-run did not oscillate", false,
           check_timestep_convergence(plane[0], half, 1e-3));

  t.expect("repeat: identical planes", true, check_planes_identical(plane, plane));
  std::vector<ExplorePoint> moved = plane;
  moved[1].frequency_Hz = std::nextafter(moved[1].frequency_Hz, 0.0);
  t.expect("repeat: one frequency moved by 1 ulp", false, check_planes_identical(plane, moved));

  std::printf("selftest: %d cases, %d wrong\n", t.cases, t.bad);
  return t.bad == 0 ? 0 : 1;
}
