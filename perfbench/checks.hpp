#pragma once

#include <string>
#include <vector>

#include "device/selfconsistent.hpp"
#include "device/tablegen.hpp"
#include "explore/tech_explore.hpp"

/// Output checks of the paper-pipeline benchmark. Each check tests a
/// property of the method or an independent computation, never a stored
/// copy of the output, and returns "" on pass or a one-line reason on
/// failure. `pipebench selftest` feeds every check a wrong output.
namespace perfbench {

using gnrfet::device::DeviceTable;
using gnrfet::explore::ExplorePoint;

// ---- device tables -------------------------------------------------------

/// Index of `v` on a bias axis (0.05 V grids; 1e-9 V slack), or -1.
long axis_index(const std::vector<double>& axis, double v);

/// Every current and charge is finite.
std::string check_table_finite(const DeviceTable& t);

/// I(VG, VD = 0) is exactly 0 (no drive, no current) wherever the drain
/// axis holds 0 V; passes trivially when it does not.
std::string check_zero_drain_current(const DeviceTable& t);

/// No current is negative (source grounded, VD >= 0 drives drain -> source).
std::string check_nonnegative_current(const DeviceTable& t);

/// Two tables of the same call are bit-identical (repeat determinism).
std::string check_tables_identical(const DeviceTable& a, const DeviceTable& b);

/// One independently re-solved bias point.
struct Reference {
  double vg = 0.0;
  double vd = 0.0;
  double current_A = 0.0;
  double charge_C = 0.0;
  int gummel_iterations = 0;
};

/// Cold re-solve of (vg, vd) with SelfConsistentSolver on a uniform energy
/// grid 4x finer than `base` and a 10x tighter Gummel tolerance. Throws if
/// the reference itself does not converge.
Reference resolve_reference(const gnrfet::device::DeviceGeometry& geometry,
                            const gnrfet::device::SolveOptions& base, double vg, double vd);

/// Reference tolerances (relative). An entry that table generation solves
/// from a cold start (the first point of its warm-start chain) agrees with
/// the fine reference to 1.8e-3 in current and 6.0e-3 in charge at this
/// commit. Warm-started entries sit up to 2.2e-2 (current) and 2.3e-2
/// (charge) away, because table generation stops Gummel early there (see
/// README.md "Checks").
constexpr double kColdCurrentRelTol = 5e-3;
constexpr double kColdChargeRelTol = 1e-2;
constexpr double kWarmCurrentRelTol = 3e-2;
constexpr double kWarmChargeRelTol = 3e-2;

/// The table's entry at the reference's bias agrees with it within the
/// relative tolerances.
std::string check_against_reference(const DeviceTable& t, const Reference& r,
                                    double current_rel_tol, double charge_rel_tol);

// ---- (VT, VDD) plane -------------------------------------------------------

/// Plane points whose `ok` is false (counted as failed operations).
size_t count_failed_points(const std::vector<ExplorePoint>& points);

/// Over every pair of ok points: frequency rises with VDD at fixed VT and
/// falls with VT at fixed VDD.
std::string check_frequency_trends(const std::vector<ExplorePoint>& points);

/// 0 < SNM < VDD/2 at every ok point.
std::string check_snm_range(const std::vector<ExplorePoint>& points);

/// Ring frequency against an FO4 inverter delay from a separate testbench:
/// f * 2 * stages * t_pd lies in [lo, hi].
std::string check_fo4_consistency(const ExplorePoint& p, double fo4_delay_s, int stages,
                                  double lo, double hi);

/// A re-run at half the time step moves the frequency by at most rel_tol.
std::string check_timestep_convergence(const ExplorePoint& p, const ExplorePoint& half_dt,
                                       double rel_tol);

/// Two plane results of the same call are bit-identical.
std::string check_planes_identical(const std::vector<ExplorePoint>& a,
                                   const std::vector<ExplorePoint>& b);

}  // namespace perfbench
