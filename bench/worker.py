"""One pass of a workload in a fresh process: set up, run every job once,
print one JSON object on stdout.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up imports thermoflow from ./src, loads the tests/data models through
thermoflow.io, generates the seeded job list and builds every library
object the jobs need.  Each job is then timed around the calls a user
would make.  A fixed calibration kernel that tracks the speed of the
machine (`calibrate`) runs after set-up, before every job and after the
last one.  With --trace every call into a layer is recorded as a span
(name, start, end, parent, job); spans stay in memory and go out with the
result.  With --setup-only the process stops after set-up and its
calibration runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import thermoflow as tf  # noqa: E402
from thermoflow import cli as tf_cli  # noqa: E402
from thermoflow import io as tfio  # noqa: E402

import jobs as joblists  # noqa: E402

if not os.path.abspath(tf.__file__).startswith(os.getcwd() + os.sep):
    sys.exit(f"thermoflow imported from {tf.__file__}, not from ./src")

DATA = joblists.DATA
CFG = tf.WeakStarConfig()


class Tracer:
    """Runs calls into the library; with tracing on, records a span for
    each one, parented to the job that made it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.job = "setup"

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.spans.append({"name": name, "start": start,
                               "end": time.perf_counter(),
                               "parent": "job:" + self.job, "job": self.job,
                               "ok": ok})


# ----------------------------------------------------------------------
# machine speed: a fixed kernel, timed before every job
# ----------------------------------------------------------------------

_CAL_RNG = np.random.default_rng(12345)
_CAL_M = _CAL_RNG.random((8, 8))
_CAL_M /= _CAL_M.sum(axis=1, keepdims=True)
_CAL_B = _CAL_RNG.random((48, 48))
_CAL_X = 7 ** 1500
_CAL_Y = 3 ** 2500


def calibrate() -> float:
    """Milliseconds for a fixed mix of the work thermoflow does: Python
    arithmetic and dict traffic, a small power iteration, a dense
    eigenvalue solve and big-integer products.  It never changes, so
    its time tracks only the speed of the machine."""
    t0 = time.perf_counter()
    acc = {}
    s = 0
    for i in range(2500):
        s += (i * i) % 7
        acc[i % 61] = acc.get(i % 61, 0) + s
    v = np.ones(8)
    for _ in range(150):
        v = _CAL_M @ v
        v = v / v.sum()
    np.linalg.eigvals(_CAL_B)
    for _ in range(20):
        (_CAL_X * _CAL_Y) >> 3000
    return (time.perf_counter() - t0) * 1e3


def calibrate_setup(t_setup: float) -> list:
    """Kernel runs after set-up, for as long as set-up took in this
    process (and at least CAL_SETUP_RUNS times), so that they meet the
    machine's fast and slow states in about the shares set-up did."""
    runs = []
    while len(runs) < CAL_SETUP_RUNS or \
            time.perf_counter() < 2 * t_setup - T_START:
        runs.append(calibrate())
    return runs


CAL_SETUP_RUNS = 15


# ----------------------------------------------------------------------
# set-up: models through thermoflow.io, then per-job library objects
# ----------------------------------------------------------------------


def load_models(tr: Tracer) -> dict:
    def read(name):
        return tr.call("io.read_json", tfio.read_json,
                       os.path.join(DATA, name + ".json"))

    full2, _ = tr.call("io.load_sft", tfio.load_sft, read("full2"))
    golden, _ = tr.call("io.load_sft", tfio.load_sft, read("golden"))
    roof12 = tr.call("io.load_roof", tfio.load_roof, read("golden_roof12"))
    unit = tf.Roof([1.0, 1.0])
    models = {
        "full2": tf.Suspension(full2, unit),
        "golden11": tf.Suspension(golden, unit),
        "golden12": tf.Suspension(golden, roof12),
        "cycle2": tf.Suspension(tf.Sft([[0, 1], [1, 0]]), unit),
    }
    for g in joblists.GRAPHS:
        graph = tr.call("io.load_graph", tfio.load_graph, read(g))
        models[g] = tr.call("graph.graph_suspension", tf.graph_suspension,
                            graph)
        models[g + ":graph"] = graph
    return models


def potential(pot):
    if not pot["table"]:
        return tf.zero_potential()
    return tf.CylinderPotential(pot["width"], joblists.table_of(pot))


def periodic_point(system, spec):
    base = tf.BiWord.periodic(tuple(spec["cycle"]), phase=spec["phase"])
    return system.point(base, spec["height"])


def prepare(job, models) -> dict:
    """Library objects for one job, built during set-up."""
    kind = job["kind"]
    obj = {}
    if "model" in job:
        obj["system"] = models[job["model"]]
    if "potential" in job:
        obj["phi"] = potential(job["potential"])
    if "psi" in job:
        obj["psi"] = potential(job["psi"])
    if kind == "dgx":
        g = models[job["model"] + ":graph"]
        obj["geodesics"] = [tf.Geodesic(g, periodic_point(obj["system"], p))
                            for p in job["geodesics"]]
    elif kind == "shadow":
        g = models[job["model"] + ":graph"]
        pair = job["pair"]
        obj["geodesics"] = [
            tf.Geodesic(g, obj["system"].point(
                tf.BiWord((tail[0],), tuple(pair["word"]), (tail[1],), 0),
                pair["height"]))
            for tail in pair["tails"]]
    elif kind == "glue":
        system = tf.Suspension(tf.Sft(job["A"]), tf.Roof(job["roof"]))
        obj["system"] = system
        obj["segments"] = [
            tf.OrbitSegment(periodic_point(system, s["point"]),
                            s["duration"]) for s in job["segments"]]
    elif kind == "close":
        obj["segment"] = tf.OrbitSegment(
            periodic_point(obj["system"], job["point"]), job["duration"])
    elif kind == "min_gap":
        obj["sft"] = tf.Sft(job["A"])
    elif kind == "separated":
        obj["mu"] = tf.MarkovMeasure(job["mu"])
    elif kind == "glue_family":
        obj["target"] = tf.ApproxTarget(
            tuple((tf.MarkovMeasure(P), a) for P, a in job["components"]),
            job["eta"])
    return obj


# ----------------------------------------------------------------------
# jobs: each returns a small JSON-able record of what the user got back
# ----------------------------------------------------------------------


def run_pressure(tr, job, o, state):
    kw = {}
    if "max_period" in job:
        kw["max_period"] = job["max_period"]
    res = tr.call(job["fn"], tf.pressure, o["system"], o["phi"],
                  job["method"], **kw)
    return {"value": res.value, "error": res.error}


def run_equilibrium(tr, job, o, state):
    mu = tr.call("thermo.equilibrium_state", tf.equilibrium_state,
                 o["system"], o["phi"])
    h, mean = tr.call("thermo.entropy_and_mean", tf.entropy_and_mean, mu,
                      o["phi"])
    return {"h": h, "mean": mean}


def run_rate(tr, job, o, state):
    q = tr.call(job["fn"], tf.rate_function, o["system"], o["phi"],
                o["psi"], job["eps"], job["method"])
    return {"q": [q[e] for e in job["eps"]]}


def run_deviation(tr, job, o, state):
    mu = tr.call("thermo.equilibrium_state", tf.equilibrium_state,
                 o["system"], tf.zero_potential())
    dev = tr.call("ldp.deviation_frequency", tf.deviation_frequency,
                  o["system"], mu, o["psi"], job["eps"], float(job["t"]),
                  job["samples"], job["seed"])
    return {"frequency": dev.frequency, "ci_low": dev.ci_low,
            "ci_high": dev.ci_high, "hits": dev.hits,
            "samples": dev.n_samples}


def run_gibbs(tr, job, o, state):
    mu = tr.call("thermo.equilibrium_state", tf.equilibrium_state,
                 o["system"], o["phi"])
    stats = tr.call("thermo.gibbs_ratio_stats", tf.gibbs_ratio_stats,
                    o["system"], mu, o["phi"], job["rho"], job["t_grid"],
                    job["samples"], job["seed"])
    return {"bands": [stats["per_t"][t][1] / stats["per_t"][t][0]
                      for t in job["t_grid"]]}


def run_target(tr, job, o, state):
    mu = tr.call("thermo.equilibrium_state", tf.equilibrium_state,
                 o["system"], o["phi"])
    stats = tr.call("ldp.measure_statistics", tf.measure_statistics, mu, CFG)
    state[job["target"]] = stats
    n = o["system"].sft.n_symbols
    return {"freq1": [stats.frequency((s,)) for s in range(n)]}


def run_wom(tr, job, o, state):
    emp, C, n = tr.call("ldp.weighted_orbit_measure",
                        tf.weighted_orbit_measure, o["system"], o["phi"],
                        job["t"], CFG)
    out = {"n_orbits": n, "C": C, "D": None}
    if job["target"] in state:
        out["D"] = tr.call("ldp.weak_star_distance", tf.weak_star_distance,
                           emp, state[job["target"]], CFG)
    return out


def run_dgx(tr, job, o, state):
    v, err = tr.call("graph.d_GX", tf.d_GX, *o["geodesics"])
    return {"value": v, "error": err}


def run_shadow(tr, job, o, state):
    """Criterion 3's shadowing shape: screen the pair by lift distance on
    [a - T, b + T], then evaluate d_GX on [a, b] (a, b = 8, 12)."""
    g1, g2 = o["geodesics"]
    eps = job["eps"]
    T = -math.log(eps)
    for t in np.linspace(8.0 - T, 12.0 + T, 13):
        if tr.call("graph.lift_distance", tf.lift_distance, g1, g2,
                   float(t), window=64) >= eps / 2:
            return {"screened": False, "worst": None}
    worst = -math.inf
    for t in np.linspace(8.0, 12.0, 5):
        a = tr.call("graph.shift_time", g1.shift_time, float(t))
        b = tr.call("graph.shift_time", g2.shift_time, float(t))
        v, err = tr.call("graph.d_GX", tf.d_GX, a, b)
        worst = max(worst, v - err)
    return {"screened": True, "worst": worst}


def run_glue(tr, job, o, state):
    system, segs = o["system"], o["segments"]
    res = tr.call("suspension.glue_segments", system.glue_segments, segs,
                  job["delta"])
    shadowed = []
    for start, seg in zip(res.block_starts, segs):
        y = tr.call("suspension.flow", system.flow, res.point,
                    start - seg.duration)
        shadowed.append(tr.call("suspension.shadows", system.shadows, y,
                                seg, job["delta"]))
    return {"transition_times": list(res.transition_times),
            "shadowed": shadowed}


def run_close(tr, job, o, state):
    orbit, achieved = tr.call("suspension.close_segment",
                              o["system"].close_segment, o["segment"],
                              job["delta"])
    return {"achieved": achieved, "period": orbit.period}


def run_min_gap(tr, job, o, state):
    return {"tau": tr.call("sft.min_gap_bound", tf.min_gap_bound, o["sft"])}


def run_separated(tr, job, o, state):
    s = tr.call("entropy_density.separated_generic_set",
                tf.separated_generic_set, o["system"], o["mu"], job["h"],
                job["t"], job["eta"], job["seed"])
    return {"count": str(s.count), "length": s.length,
            "log_count": s.log_count, "certificate_ok": s.certificate_ok}


def run_glue_family(tr, job, o, state):
    fam = tr.call("entropy_density.glue_generic_family",
                  tf.glue_generic_family, o["system"], o["target"],
                  job["t"], job["m"], job["seed"])
    return {"counts": [str(g.count) for g in fam.gammas],
            "lengths": [g.length for g in fam.gammas],
            "log_Em": fam.log_Em}


def _read_artifact(path):
    if path.endswith(".json"):
        with open(path) as f:
            return json.load(f)
    with open(path, newline="") as f:
        return list(csv.reader(f))[1:]  # drop the config/version stamp


def run_cli(tr, job, o, state):
    """One in-process `thermoflow` invocation with --out in a scratch
    directory under .bench_tmp/ in the checkout; console output is
    discarded, artifacts are read back."""
    os.makedirs(".bench_tmp", exist_ok=True)
    out_dir = tempfile.mkdtemp(dir=".bench_tmp")
    try:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = tr.call(job["fn"], tf_cli.main,
                           job["argv"] + ["--out", out_dir])
        artifacts = {name: _read_artifact(os.path.join(out_dir, name))
                     for name in sorted(os.listdir(out_dir))}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"exit": code, "artifacts": artifacts}


RUNNERS = {
    "pressure": run_pressure, "equilibrium": run_equilibrium,
    "rate": run_rate, "deviation": run_deviation, "gibbs": run_gibbs,
    "target": run_target, "wom": run_wom, "dgx": run_dgx,
    "shadow": run_shadow, "glue": run_glue, "close": run_close,
    "min_gap": run_min_gap, "separated": run_separated,
    "glue_family": run_glue_family, "cli": run_cli,
}


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    return x


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=joblists.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = Tracer(args.trace)
    models = load_models(tr)
    job_list = joblists.make_jobs(args.workload, args.seed)
    prepared = [prepare(job, models) for job in job_list]
    t_setup = time.perf_counter()
    record = {"setup_end": t_setup, "setup_in_process": t_setup - T_START,
              "setup_cal_ms": calibrate_setup(t_setup)}
    if not args.setup_only:
        state = {}
        results = []
        for job, obj in zip(job_list, prepared):
            tr.job = job["id"]
            cal_ms = calibrate()
            t0 = time.perf_counter()
            try:
                out, error = RUNNERS[job["kind"]](tr, job, obj, state), None
            except Exception as e:  # the job boundary: record and go on
                out, error = None, f"{type(e).__name__}: {e}"
            t1 = time.perf_counter()
            if args.trace:
                tr.spans.append({"name": "job", "start": t0, "end": t1,
                                 "parent": None, "job": job["id"],
                                 "ok": error is None})
            results.append({"id": job["id"], "ms": (t1 - t0) * 1e3,
                            "start_s": t0 - t_setup, "cal_ms": cal_ms,
                            "out": _jsonable(out), "error": error})
        record["end_s"] = time.perf_counter() - t_setup
        record["end_cal_ms"] = calibrate()
        record["jobs"] = results
        record["spans"] = tr.spans
    record["maxrss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
