#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr double kElementaryCharge = 1.602176634e-19;  // C (exact SI value)

std::string fmt(const char* f, double a, double b, double c = 0.0, double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Sets an environment variable for the lifetime of the object and
/// restores the previous value. Used only between timed calls, while no
/// solver thread runs.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace

long axis_index(const std::vector<double>& axis, double v) {
  for (size_t i = 0; i < axis.size(); ++i) {
    if (std::abs(axis[i] - v) < 1e-9) return static_cast<long>(i);
  }
  return -1;
}

std::string check_table_finite(const DeviceTable& t) {
  for (size_t i = 0; i < t.current_A.size(); ++i) {
    if (!std::isfinite(t.current_A[i]) || !std::isfinite(t.charge_C[i])) {
      return fmt("table: non-finite entry at VG=%.2f VD=%.2f", t.vg[i / t.vd.size()],
                 t.vd[i % t.vd.size()]);
    }
  }
  return "";
}

std::string check_zero_drain_current(const DeviceTable& t) {
  const long ivd = axis_index(t.vd, 0.0);
  if (ivd < 0) return "";
  for (size_t ig = 0; ig < t.vg.size(); ++ig) {
    const double i = t.at_current(ig, static_cast<size_t>(ivd));
    if (i != 0.0) return fmt("table: I(VG=%.2f, VD=0) = %.3e A, expected exactly 0", t.vg[ig], i);
  }
  return "";
}

std::string check_nonnegative_current(const DeviceTable& t) {
  for (size_t i = 0; i < t.current_A.size(); ++i) {
    if (t.current_A[i] < 0.0) {
      return fmt("table: negative current %.3e A at VG=%.2f VD=%.2f", t.current_A[i],
                 t.vg[i / t.vd.size()], t.vd[i % t.vd.size()]);
    }
  }
  return "";
}

std::string check_tables_identical(const DeviceTable& a, const DeviceTable& b) {
  if (a.vg != b.vg || a.vd != b.vd || a.current_A.size() != b.current_A.size()) {
    return "table: repeated call changed the bias grid";
  }
  for (size_t i = 0; i < a.current_A.size(); ++i) {
    if (!same_bits(a.current_A[i], b.current_A[i]) || !same_bits(a.charge_C[i], b.charge_C[i])) {
      return fmt("table: repeated call differs at VG=%.2f VD=%.2f", a.vg[i / a.vd.size()],
                 a.vd[i % a.vd.size()]);
    }
  }
  return "";
}

Reference resolve_reference(const gnrfet::device::DeviceGeometry& geometry,
                            const gnrfet::device::SolveOptions& base, double vg, double vd) {
  gnrfet::device::SolveOptions opts = base;
  opts.energy_step_eV = base.energy_step_eV / 4.0;
  opts.gummel_tolerance_V = base.gummel_tolerance_V / 10.0;
  opts.max_gummel_iterations = 2 * base.max_gummel_iterations;
  const ScopedEnv grid("GNRFET_NEGF_GRID", "uniform");
  const gnrfet::device::SelfConsistentSolver solver(geometry, opts);
  const gnrfet::device::DeviceSolution sol = solver.solve({vg, vd});
  if (!sol.converged) {
    throw std::runtime_error(fmt("reference re-solve at VG=%.2f VD=%.2f did not converge", vg, vd));
  }
  Reference r;
  r.vg = vg;
  r.vd = vd;
  r.current_A = sol.current_A;
  r.charge_C = -kElementaryCharge * sol.net_electrons;
  r.gummel_iterations = sol.iterations;
  return r;
}

std::string check_against_reference(const DeviceTable& t, const Reference& r,
                                    double current_rel_tol, double charge_rel_tol) {
  const long ig = axis_index(t.vg, r.vg);
  const long id = axis_index(t.vd, r.vd);
  if (ig < 0 || id < 0) return fmt("table: reference bias VG=%.2f VD=%.2f not on grid", r.vg, r.vd);
  const double i = t.at_current(static_cast<size_t>(ig), static_cast<size_t>(id));
  const double q = t.at_charge(static_cast<size_t>(ig), static_cast<size_t>(id));
  const double di = std::abs(i - r.current_A) / std::abs(r.current_A);
  const double dq = std::abs(q - r.charge_C) / std::abs(r.charge_C);
  if (!(di <= current_rel_tol)) {
    return fmt("table: current at VG=%.2f VD=%.2f off the fine re-solve by %.2e (tol %.1e)", r.vg,
               r.vd, di, current_rel_tol);
  }
  if (!(dq <= charge_rel_tol)) {
    return fmt("table: charge at VG=%.2f VD=%.2f off the fine re-solve by %.2e (tol %.1e)", r.vg,
               r.vd, dq, charge_rel_tol);
  }
  return "";
}

size_t count_failed_points(const std::vector<ExplorePoint>& points) {
  size_t failed = 0;
  for (const auto& p : points) failed += p.ok ? 0 : 1;
  return failed;
}

std::string check_frequency_trends(const std::vector<ExplorePoint>& points) {
  for (const auto& a : points) {
    for (const auto& b : points) {
      if (!a.ok || !b.ok) continue;
      if (a.vt == b.vt && a.vdd < b.vdd && !(a.frequency_Hz < b.frequency_Hz)) {
        return fmt("plane: f does not rise with VDD at VT=%.2f (VDD %.2f -> %.2f)", a.vt, a.vdd,
                   b.vdd);
      }
      if (a.vdd == b.vdd && a.vt < b.vt && !(a.frequency_Hz > b.frequency_Hz)) {
        return fmt("plane: f does not fall with VT at VDD=%.2f (VT %.2f -> %.2f)", a.vdd, a.vt,
                   b.vt);
      }
    }
  }
  return "";
}

std::string check_snm_range(const std::vector<ExplorePoint>& points) {
  for (const auto& p : points) {
    if (p.ok && !(p.snm_V > 0.0 && p.snm_V < 0.5 * p.vdd)) {
      return fmt("plane: SNM %.4f V outside (0, VDD/2) at VT=%.2f VDD=%.2f", p.snm_V, p.vt, p.vdd);
    }
  }
  return "";
}

std::string check_fo4_consistency(const ExplorePoint& p, double fo4_delay_s, int stages,
                                  double lo, double hi) {
  const double r = p.frequency_Hz * 2.0 * stages * fo4_delay_s;
  if (!(r >= lo && r <= hi)) {
    return fmt("plane: f*2N*t_pd = %.4f outside [%.2f, %.2f] at VT=%.2f", r, lo, hi, p.vt);
  }
  return "";
}

std::string check_timestep_convergence(const ExplorePoint& p, const ExplorePoint& half_dt,
                                       double rel_tol) {
  if (!half_dt.ok) {
    return fmt("plane: re-run at dt/2 did not oscillate at VT=%.2f VDD=%.2f", p.vt, p.vdd);
  }
  const double d = std::abs(half_dt.frequency_Hz - p.frequency_Hz) / p.frequency_Hz;
  if (!(d <= rel_tol)) {
    return fmt("plane: halving dt moves f by %.2e (tol %.1e) at VT=%.2f VDD=%.2f", d, rel_tol,
               p.vt, p.vdd);
  }
  return "";
}

std::string check_planes_identical(const std::vector<ExplorePoint>& a,
                                   const std::vector<ExplorePoint>& b) {
  if (a.size() != b.size()) return "plane: repeated call changed the point count";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok != b[i].ok || !same_bits(a[i].frequency_Hz, b[i].frequency_Hz) ||
        !same_bits(a[i].edp_Js, b[i].edp_Js) || !same_bits(a[i].snm_V, b[i].snm_V)) {
      return fmt("plane: repeated call differs at VT=%.2f VDD=%.2f", a[i].vt, a[i].vdd);
    }
  }
  return "";
}

}  // namespace perfbench
