/// Paper-pipeline benchmark binary: one named workload per process.
///
///   pipebench run --workload W --seed N [--seconds S] [--checks 0|1]
///                 [--extras 0|1] [--spawn-t T] --table PATH
///   pipebench selftest --table PATH
///   pipebench regen
///
/// `run` repeats whole rounds of the workload's public calls until S
/// seconds have passed (--seconds 0: one round), then checks the outputs and
/// prints one JSON line of raw figures for perfbench/run.py. --extras 1
/// (ring_plane) adds the pipebench-timed layer probes (ArrayFet
/// evaluation, compute_vtc) and the dt/2 re-run check. `selftest`
/// feeds every check a wrong output. `regen` regenerates the nominal
/// standard table into $GNRFET_CACHE_DIR.
///
/// Workloads (bias windows and plane points are documented in README.md):
///   table_corners  cold generate_device_table on a low- and a high-bias corner
///   ring_plane     explore_plane on the committed standard table
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "circuit/measure.hpp"
#include "circuit/snm.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "device/selfconsistent.hpp"
#include "device/tablegen.hpp"
#include "explore/tech_explore.hpp"

using namespace gnrfet;

namespace {

/// A low- or high-bias corner of the standard 0.05 V grid.
struct TableCorner {
  double vg_min, vg_max;
  size_t vg_points;
  double vd_min, vd_max;
  size_t vd_points;
  size_t resolves;  ///< warm-started bias points the seed picks for re-solves
};

/// table_corners: one round generates both corners. The low-bias corner is
/// Poisson-heavy (Gummel x Newton x PCG), the high-bias one NEGF-heavy.
constexpr TableCorner kTableCorners[] = {
    {0.20, 0.35, 4, 0.00, 0.25, 6, 2},
    {0.70, 0.80, 3, 0.65, 0.75, 3, 1},
};

/// ring_plane: an L of three points in the Fig. 3(b) plane, so both
/// frequency trends are checked. Ring options are those of fig3.
constexpr double kRingVtLo = 0.13;
constexpr double kRingVtHi = 0.18;
constexpr double kRingVddLo = 0.40;
constexpr double kRingVddHi = 0.50;
constexpr double kRingStop_s = 2.0e-9;
constexpr double kRingDt_s = 0.4e-12;
constexpr int kRingStages = 15;
constexpr double kFo4RatioLo = 0.62;
constexpr double kFo4RatioHi = 0.74;
constexpr double kHalfDtRelTol = 1e-3;

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// splitmix64: deterministic seed -> index mixing.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Args {
  std::string mode;
  std::string workload;
  std::string table_path;
  uint64_t seed = 0;
  double seconds = 30.0;
  bool checks = true;
  bool extras = false;
  double spawn_t = -1.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("usage: pipebench run|selftest|regen [options]");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--table") {
      a.table_path = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--checks") {
      a.checks = v != "0";
    } else if (k == "--extras") {
      a.extras = v != "0";
    } else if (k == "--spawn-t") {
      a.spawn_t = std::stod(v);
    } else {
      throw std::invalid_argument("unknown option " + k);
    }
  }
  return a;
}

/// Raw figures of one run, printed as the last stdout line.
struct Report {
  double setup_s = 0.0;
  std::vector<double> round_s;
  double peak_rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  metrics::Snapshot before, after;
  double model_eval_ns = 0.0;
  double vtc_s = 0.0;

  void check(const std::string& why) {
    if (!why.empty()) failures.push_back(why);
  }
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

void print_report(const Report& r) {
  std::string s = "{";
  char buf[64];
  const auto num = [&](const char* key, double v) {
    std::snprintf(buf, sizeof buf, "\"%s\":%.17g,", key, v);
    s += buf;
  };
  s += std::string("\"correct\":") + (r.failures.empty() ? "true" : "false") + ",";
  s += "\"attempted\":" + std::to_string(r.attempted) + ",";
  s += "\"failed\":" + std::to_string(r.failed) + ",";
  num("setup_s", r.setup_s);
  num("peak_rss_mb", r.peak_rss_mb);
  num("model_eval_ns", r.model_eval_ns);
  num("vtc_s", r.vtc_s);
  s += "\"round_s\":[";
  for (size_t i = 0; i < r.round_s.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", r.round_s[i]);
    s += buf;
  }
  s += "],\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    s += (i ? ",\"" : "\"") + json_escape(r.failures[i]) + "\"";
  }
  s += "],\"counters\":{";
  for (size_t c = 0; c < metrics::kNumCounters; ++c) {
    s += (c ? ",\"" : "\"") + std::string(metrics::counter_name(static_cast<metrics::Counter>(c))) +
         "\":" + std::to_string(r.after.counters[c] - r.before.counters[c]);
  }
  s += "},\"histograms\":{";
  for (size_t h = 0; h < metrics::kNumHistograms; ++h) {
    const auto& a = r.after.histograms[h];
    const auto& b = r.before.histograms[h];
    std::snprintf(buf, sizeof buf, "{\"count\":%llu,\"sum\":%.17g}",
                  static_cast<unsigned long long>(a.count - b.count), a.sum - b.sum);
    s += (h ? ",\"" : "\"") +
         std::string(metrics::histogram_name(static_cast<metrics::Histogram>(h))) + "\":" + buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Repeat `round` until the time budget is spent; at least one round runs.
/// Every round makes the same calls, so attempted/failed scale by whole
/// rounds.
void timed_rounds(const Args& a, Report& r, const std::function<void()>& round) {
  r.before = metrics::snapshot();
  const double t0 = mono_s();
  r.setup_s = t0 - (a.spawn_t >= 0.0 ? a.spawn_t : t0);
  for (;;) {
    const double ts = mono_s();
    round();
    r.round_s.push_back(mono_s() - ts);
    if (mono_s() - t0 >= a.seconds) break;
  }
  r.after = metrics::snapshot();
  r.peak_rss_mb = peak_rss_mb();
}

// ---- table workloads --------------------------------------------------------

device::TableGenOptions table_options(const TableCorner& c) {
  device::TableGenOptions opts = explore::standard_table_options();
  opts.vg_min = c.vg_min;
  opts.vg_max = c.vg_max;
  opts.vg_points = c.vg_points;
  opts.vd_min = c.vd_min;
  opts.vd_max = c.vd_max;
  opts.vd_points = c.vd_points;
  opts.use_cache = false;
  return opts;
}

/// Re-solves (vg, vd) on the fine reference and compares the table's entry.
void check_reference(const device::DeviceTable& t, const device::DeviceGeometry& geometry,
                     const device::SolveOptions& solve, double vg, double vd,
                     double current_rel_tol, double charge_rel_tol, Report& r) {
  const perfbench::Reference ref = perfbench::resolve_reference(geometry, solve, vg, vd);
  const std::string why =
      perfbench::check_against_reference(t, ref, current_rel_tol, charge_rel_tol);
  std::fprintf(stderr, "pipebench: reference at VG=%.2f VD=%.2f (%d Gummel): %s\n", vg, vd,
               ref.gummel_iterations, why.empty() ? "agrees" : why.c_str());
  r.check(why);
}

/// Property checks and reference re-solves of one corner. `tables` holds
/// that corner's table from every round.
void check_corner(const TableCorner& c, const device::DeviceGeometry& geometry,
                  const std::vector<device::DeviceTable>& tables, uint64_t& seed, Report& r) {
  const device::DeviceTable& t = tables.front();
  for (const auto& other : tables) r.check(perfbench::check_tables_identical(t, other));
  r.check(perfbench::check_table_finite(t));
  r.check(perfbench::check_zero_drain_current(t));
  r.check(perfbench::check_nonnegative_current(t));
  const device::SolveOptions solve = table_options(c).solve;
  // The chain's first entry (vg_min, vd_min) is solved from a cold start.
  // Where it carries current (VD > 0) it is held to the tight tolerance.
  if (t.vd.front() > 0.0) {
    check_reference(t, geometry, solve, t.vg.front(), t.vd.front(),
                    perfbench::kColdCurrentRelTol, perfbench::kColdChargeRelTol, r);
  }
  // The seed picks the other re-solved points among the warm-started
  // column entries (VG > vg_min, VD > 0).
  std::vector<std::pair<double, double>> candidates;
  for (const double vg : t.vg) {
    for (const double vd : t.vd) {
      if (vg > t.vg.front() && vd > 0.0) candidates.emplace_back(vg, vd);
    }
  }
  for (size_t k = 0; k < c.resolves; ++k) {
    seed = mix(seed);
    const size_t pick = static_cast<size_t>(seed % candidates.size());
    const auto [vg, vd] = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
    check_reference(t, geometry, solve, vg, vd, perfbench::kWarmCurrentRelTol,
                    perfbench::kWarmChargeRelTol, r);
  }
}

void run_tables(const Args& a, Report& r) {
  const device::DeviceSpec spec;  // nominal N = 12, ideal
  constexpr size_t kCorners = std::size(kTableCorners);
  std::vector<device::DeviceTable> tables[kCorners];
  timed_rounds(a, r, [&] {
    for (size_t i = 0; i < kCorners; ++i) {
      trace::Span span("bench", "generate_device_table");
      tables[i].push_back(device::generate_device_table(spec, table_options(kTableCorners[i])));
    }
  });
  for (size_t i = 0; i < kCorners; ++i) {
    r.attempted += tables[i].size() * kTableCorners[i].vg_points * kTableCorners[i].vd_points;
  }
  if (!a.checks) return;
  const device::DeviceGeometry geometry(spec);  // shared by the reference re-solves
  uint64_t seed = a.seed;
  for (size_t i = 0; i < kCorners; ++i) check_corner(kTableCorners[i], geometry, tables[i], seed, r);
}

// ---- ring_plane -------------------------------------------------------------

explore::ExploreOptions ring_options(double dt_s) {
  explore::ExploreOptions eo;
  eo.ring.t_stop_s = kRingStop_s;
  eo.ring.dt_s = dt_s;
  return eo;
}

/// The L of plane points: (lo, lo), (hi, lo) in one call, (lo, hi) in a second.
std::vector<explore::ExplorePoint> ring_round(explore::DesignKit& kit, double dt_s) {
  const explore::ExploreOptions eo = ring_options(dt_s);
  std::vector<explore::ExplorePoint> pts;
  {
    trace::Span span("bench", "explore_plane");
    pts = explore::explore_plane(kit, {kRingVtLo, kRingVtHi}, {kRingVddLo}, eo);
  }
  trace::Span span("bench", "explore_plane");
  const auto more = explore::explore_plane(kit, {kRingVtLo}, {kRingVddHi}, eo);
  pts.insert(pts.end(), more.begin(), more.end());
  return pts;
}

void run_ring(const Args& a, Report& r) {
  explore::DesignKit kit;
  {
    trace::Span span("bench", "load_table");
    kit.set_table({12, 0.0}, device::load_table(a.table_path));
  }
  kit.vt0();
  for (const double vt : {kRingVtLo, kRingVtHi}) kit.inverter(vt);  // warm the kit's model cache

  std::vector<std::vector<explore::ExplorePoint>> planes;
  timed_rounds(a, r, [&] { planes.push_back(ring_round(kit, kRingDt_s)); });
  const auto& pts = planes.front();
  r.attempted = planes.size() * pts.size();
  for (const auto& p : planes) r.failed += perfbench::count_failed_points(p);

  if (a.extras) {
    // model: ArrayFet current + charge over a fixed bias set.
    const circuit::InverterModels inv = kit.inverter(kRingVtLo);
    const model::ChannelModel& fet = *inv.nfet.intrinsic;
    constexpr int kGrid = 41, kRepeats = 40;
    double sink = 0.0;
    const double t0 = mono_s();
    {
      trace::Span span("bench", "array_fet_eval");
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (int i = 0; i < kGrid; ++i) {
          for (int j = 0; j < kGrid; ++j) {
            const double vgs = -0.1 + 0.6 * i / (kGrid - 1);
            const double vds = -0.1 + 0.6 * j / (kGrid - 1);
            sink += fet.current(vgs, vds).value + fet.charge(vgs, vds).value;
          }
        }
      }
    }
    r.model_eval_ns = (mono_s() - t0) * 1e9 / (double(kRepeats) * kGrid * kGrid);
    if (!std::isfinite(sink)) r.check("model: non-finite ArrayFet output");
    // circuit: compute_vtc at every plane point.
    const double t1 = mono_s();
    for (const auto& p : pts) {
      trace::Span span("bench", "compute_vtc");
      const circuit::Vtc vtc = circuit::compute_vtc(kit.inverter(p.vt), p.vdd);
      if (vtc.vout.empty()) r.check("circuit: empty VTC");
    }
    r.vtc_s = (mono_s() - t1) / static_cast<double>(pts.size());
  }
  if (!a.checks) return;

  for (const auto& p : planes) r.check(perfbench::check_planes_identical(pts, p));
  r.check(perfbench::check_frequency_trends(pts));
  r.check(perfbench::check_snm_range(pts));
  for (const auto& p : pts) {
    if (!p.ok) continue;
    circuit::InverterMeasureOptions mo;
    mo.vdd = p.vdd;
    const circuit::InverterModels inv = kit.inverter(p.vt);
    const circuit::InverterMetrics im = circuit::measure_inverter(inv, inv, mo);
    if (!im.ok) {
      r.check("plane: FO4 testbench failed");
      continue;
    }
    std::fprintf(stderr,
                 "pipebench: VT=%.2f VDD=%.2f f=%.4f GHz SNM=%.4f V t_pd=%.3f ps "
                 "f*2N*t_pd=%.4f\n",
                 p.vt, p.vdd, p.frequency_Hz * 1e-9, p.snm_V, im.delay_s * 1e12,
                 p.frequency_Hz * 2.0 * kRingStages * im.delay_s);
    r.check(perfbench::check_fo4_consistency(p, im.delay_s, kRingStages, kFo4RatioLo,
                                             kFo4RatioHi));
  }
  // The seed picks which point is re-run at half the time step. The re-run
  // costs two rings, so it belongs to the --extras runs (trace mode).
  const explore::ExplorePoint& p = pts[mix(a.seed) % pts.size()];
  if (a.extras && p.ok) {
    const auto half = explore::explore_plane(kit, {p.vt}, {p.vdd}, ring_options(0.5 * kRingDt_s));
    std::fprintf(stderr, "pipebench: dt/2 at VT=%.2f VDD=%.2f moves f by %.3e\n", p.vt, p.vdd,
                 half.front().frequency_Hz / p.frequency_Hz - 1.0);
    r.check(perfbench::check_timestep_convergence(p, half.front(), kHalfDtRelTol));
  }
}

}  // namespace

int selftest(const std::string& table_path);  // selftest.cpp

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "selftest") return selftest(a.table_path);
    if (a.mode == "regen") {
      trace::Span span("bench", "generate_device_table");
      device::generate_device_table(device::DeviceSpec{}, explore::standard_table_options());
      const metrics::Snapshot snap = metrics::snapshot();
      const metrics::HistogramData& g =
          snap.histograms[static_cast<size_t>(metrics::Histogram::kGummelIterationsPerBias)];
      std::printf("regen: %llu bias points, at most %.0f Gummel iterations per point (limit %d)\n",
                  static_cast<unsigned long long>(g.count), g.max,
                  device::SolveOptions{}.max_gummel_iterations);
      return 0;
    }
    if (a.mode != "run") throw std::invalid_argument("unknown mode " + a.mode);
    Report r;
    if (a.workload == "ring_plane") {
      run_ring(a, r);
    } else if (a.workload == "table_corners") {
      run_tables(a, r);
    } else {
      throw std::invalid_argument("unknown workload '" + a.workload + "'");
    }
    print_report(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
