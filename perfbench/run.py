#!/usr/bin/env python3
"""Paper-pipeline benchmark of gnrfet-explore (see perfbench/README.md).

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --regen-table [--write]

Run from the repository root. Builds the library and the benchmark binary
from source into .bench_build/perfbench, runs the workload single-threaded
with a private table cache, and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics, from a second
run of the workload under GNRFET_TRACE.
"""
import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TABLE = os.path.join(HERE, "data", "n12-standard-table.csv")
WORKLOADS = ("table_corners", "ring_plane")
BUDGET_S = 175.0  # whole run after a warm build check; a run must end within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the two binaries up to date."""
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "-j", "4", "--target", "pipebench", "gnrfet_trace_report"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        raise BenchError("build failed")


def child_env(tmp, threads="1", trace_path=None):
    """The benchmark's environment: no inherited GNRFET_* knob, a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GNRFET_")}
    env["GNRFET_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["TMPDIR"] = tmp
    if threads is not None:
        env["GNRFET_THREADS"] = threads
    if trace_path is not None:
        env["GNRFET_TRACE"] = trace_path
    return env


def run_child(args, env, deadline):
    """Run pipebench to completion (killed at the deadline); return its JSON line."""
    exe = os.path.join(BUILD, "pipebench")
    spawn_t = time.monotonic()
    cmd = [exe] + args + ["--spawn-t", repr(spawn_t)]
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - spawn_t))
    except subprocess.TimeoutExpired:
        raise BenchError("workload exceeded the time budget")
    if p.returncode != 0:
        raise BenchError(f"pipebench exited with {p.returncode}")
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("pipebench printed no result")
    return json.loads(lines[-1])


def trace_report(trace_path, deadline):
    exe = os.path.join(BUILD, "gnrfet_trace_report")
    p = subprocess.run([exe, "--json", trace_path], stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    if p.returncode != 0:
        raise BenchError("gnrfet_trace_report failed")
    return json.loads(p.stdout)


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(untraced, traced, report):
    """Per-layer metrics of one traced round; 0 where a layer is not exercised."""
    c = traced["counters"]
    h = traced["histograms"]
    self_s = {k: v / 1000.0 for k, v in report["subsystem_self_ms"].items()}
    spans = {(s["subsystem"], s["span"]): s for s in report["spans"]}

    def span_mean_s(cat, name):
        s = spans.get((cat, name))
        return s["total_ms"] / 1000.0 / s["count"] if s else 0.0

    def hist_mean(name):
        return ratio(h[name]["sum"], h[name]["count"])

    transient_s = spans.get(("circuit", "run_transient"), {}).get("total_ms", 0.0) / 1000.0
    m = {
        "negf.self_s": (self_s.get("negf", 0.0), "s"),
        "negf.rgf_solves": (c["rgf_solves"], "count"),
        "negf.energy_points_per_call": (hist_mean("energy_points_per_transport"), "count"),
        "negf.solves_per_batch": (ratio(c["rgf_solves"], c["rgf_batch_solves"]), "count"),
        "poisson.self_s": (self_s.get("poisson", 0.0), "s"),
        "poisson.newton_per_gummel": (
            ratio(c["poisson_newton_iterations"], c["gummel_iterations"]), "ratio"),
        "linalg.self_s": (self_s.get("linalg", 0.0), "s"),
        "linalg.pcg_iterations": (c["pcg_iterations"], "count"),
        "linalg.pcg_per_newton": (
            ratio(c["pcg_iterations"], c["poisson_newton_iterations"]), "ratio"),
        "device.gummel_per_bias": (hist_mean("gummel_iterations_per_bias"), "ratio"),
        "device.bias_s": (span_mean_s("device", "solve_bias_point"), "s"),
        "model.eval_ns": (untraced["model_eval_ns"], "ns"),
        "circuit.self_s": (self_s.get("circuit", 0.0), "s"),
        "circuit.transient_steps": (c["transient_steps"], "count"),
        "circuit.newton_per_step": (
            ratio(c["mna_factorizations"], c["transient_steps"]), "ratio"),
        "circuit.step_us": (ratio(transient_s * 1e6, c["transient_steps"]), "us"),
        "circuit.vtc_s": (untraced["vtc_s"], "s"),
        "explore.point_s": (span_mean_s("explore", "explore_point"), "s"),
        "trace.overhead_s": (traced["round_s"][0] - untraced["round_s"][0], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_workload(opts, tmp, deadline):
    common = ["run", "--workload", opts.workload, "--seed", str(opts.seed), "--table", TABLE]
    if opts.trace == 0:
        r = run_child(common + ["--seconds", str(opts.seconds)], child_env(tmp), deadline)
        metrics = {
            "setup_s": {"value": r["setup_s"], "unit": "s"},
            "run_s": {"value": statistics.median(r["round_s"]), "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
        }
        runs = [r]
    else:
        # One checked round with tracing off, then the same round traced
        # (--seconds 0 runs exactly one round).
        untraced = run_child(common + ["--seconds", "0", "--extras", "1"], child_env(tmp),
                             deadline)
        trace_path = os.path.join(tmp, "trace.json")
        traced = run_child(common + ["--seconds", "0", "--checks", "0"],
                           child_env(tmp, trace_path=trace_path), deadline)
        metrics = per_layer(untraced, traced, trace_report(trace_path, deadline))
        runs = [untraced, traced]
    for r in runs:
        for why in r["failures"]:
            log(f"check failed: {why}")
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def regen_table(write, tmp):
    """Regenerate the committed standard table and report whether its bytes changed."""
    exe = os.path.join(BUILD, "pipebench")
    t0 = time.monotonic()
    if subprocess.run([exe, "regen"], env=child_env(tmp, threads=None)).returncode != 0:
        raise BenchError("table generation failed")
    fresh = glob.glob(os.path.join(tmp, "cache", "device-table-*.csv"))
    if len(fresh) != 1:
        raise BenchError(f"expected one generated table, found {len(fresh)}")
    with open(fresh[0], "rb") as f:
        new = f.read()
    with open(TABLE, "rb") as f:
        old = f.read()
    took = time.monotonic() - t0
    if new == old:
        print(f"regen: {os.path.relpath(TABLE, ROOT)} unchanged ({took:.0f} s)")
        return 0
    changed = sum(a != b for a, b in zip(new.splitlines(), old.splitlines()))
    print(f"regen: bytes changed ({changed} lines differ, {took:.0f} s)")
    if write:
        shutil.copyfile(fresh[0], TABLE)
        print(f"regen: wrote {os.path.relpath(TABLE, ROOT)}")
        return 0
    return 3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="feed every check a wrong output")
    ap.add_argument("--regen-table", action="store_true",
                    help="regenerate the committed standard table (all cores, minutes)")
    ap.add_argument("--write", action="store_true", help="with --regen-table: overwrite it")
    opts = ap.parse_args()
    if not (opts.selftest or opts.regen_table or opts.workload):
        ap.error("one of --workload, --selftest, --regen-table is required")
    if opts.seed < 0:
        ap.error("--seed must be >= 0")

    start = time.monotonic()
    try:
        build()
        tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.dirname(BUILD))
        try:
            if opts.regen_table:
                return regen_table(opts.write, tmp)
            if opts.selftest:
                exe = os.path.join(BUILD, "pipebench")
                return subprocess.run([exe, "selftest", "--table", TABLE],
                                      env=child_env(tmp)).returncode
            # The budget starts after the build: a cold build may take minutes.
            deadline = time.monotonic() + BUDGET_S - min(time.monotonic() - start, 5.0)
            result = run_workload(opts, tmp, deadline)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
