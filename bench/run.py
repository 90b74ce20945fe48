"""thermoflow benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/thermoflow and tests/data.
The run makes the workload's seeded job list and executes it in passes,
each in a fresh worker process (bench/worker.py), one at a time, until
about S seconds are used (at least two passes).  Times are scaled to a
reference speed of the machine, measured by a fixed calibration kernel
run around every job (CAL_REF_MS below).  Every job's output is
checked against an exact reference (checks.py, oracles.py).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` is the number of jobs in the list and `failed` the number that
failed; `correct` is false when a job not listed in known_failures.json
failed or returned different outputs in two passes.  With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics, from passes that alternate traced and untraced; the
spans go to .bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

# Times are reported at a fixed reference speed of the machine: each raw
# time is scaled by CAL_REF_MS over the time worker.calibrate took around
# it.  That fixed kernel runs before every job and after the last; a job's
# kernel time is the trimmed mean of the runs that start within the job's
# own duration (at least CAL_REACH_S) before its start or after its end.
# Set-up is scaled by the runs that follow it.
CAL_REF_MS = 2.5
CAL_REACH_S = 0.02
MIN_PASSES = 2
MIN_SETUPS = 5
HARD_LIMIT_S = 160.0  # stay inside the 180 s a run may take
LAYERS = ("sft", "suspension", "graph", "thermo", "ldp", "entropy_density",
          "io", "cli")


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = dict(os.environ)
    # one client, one thread: pin BLAS so the 2-core box is not shared
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("THERMOFLOW_LOG", None)
    return env


def run_worker(args, trace: bool, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=worker_env(), timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and worker
    rec["raw_setup_s"] = rec["setup_end"] - t_spawn
    rec["setup_speed"] = CAL_REF_MS / trimmed_mean(rec["setup_cal_ms"])
    rec["setup_s"] = rec["raw_setup_s"] * rec["setup_speed"]
    rec["traced"] = trace
    if not setup_only:
        cal = [(j["start_s"], j["cal_ms"]) for j in rec["jobs"]]
        cal.append((rec["end_s"], rec["end_cal_ms"]))
        for j in rec["jobs"]:
            reach = max(CAL_REACH_S, j["ms"] / 1e3)
            lo = j["start_s"] - reach
            hi = j["start_s"] + j["ms"] / 1e3 + reach
            j["speed"] = CAL_REF_MS / trimmed_mean(
                [c for t, c in cal if lo <= t <= hi])
            j["ref_ms"] = j["ms"] * j["speed"]
        rec["raw_wall_s"] = sum(j["ms"] for j in rec["jobs"]) / 1e3
        rec["wall_s"] = sum(j["ref_ms"] for j in rec["jobs"]) / 1e3
    return rec


def trimmed_mean(values):
    """Mean of the middle 80%: a kernel run hit by an interrupt is cut,
    while the share of runs in the machine's fast and slow states (both
    common on a shared host) is kept."""
    values = sorted(values)
    k = len(values) // 10
    return statistics.mean(values[k:len(values) - k])


def run_passes(args):
    """Worker passes until the next one would overrun --seconds; in trace
    mode they alternate traced / untraced."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    stop = time.perf_counter() + args.seconds
    passes = []
    longest = 0.0
    while True:
        trace = bool(args.trace) and len(passes) % 2 == 0
        start = time.perf_counter()
        passes.append(run_worker(args, trace, False, deadline - start))
        longest = max(longest, time.perf_counter() - start)
        if len(passes) >= MIN_PASSES and \
                time.perf_counter() + longest > min(stop, deadline):
            break
    setups = list(passes)
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(args, False, True,
                                 deadline - time.perf_counter()))
    return passes, setups


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles, 'inclusive'
    method, so it lies within the data."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setups):
    """Timings at the reference speed, as medians over repetitions: each
    job's latency is its median over the untraced passes, wall_s (the sum
    of the job latencies of a pass) and peak RSS are medians over those
    passes, setup_s the median over worker starts.  Other tenants of a
    shared machine slow identical work by up to half for minutes at a
    time; the calibration kernel slows with it, so the scaled times do
    not."""
    plain = [p for p in passes if not p["traced"]]
    lat = [statistics.median(ms) for ms in
           zip(*([j["ref_ms"] for j in p["jobs"]] for p in plain))]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "job_p50_ms": statistics.median(lat),
        "job_p90_ms": percentile(lat, 90),
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in plain),
    }


def raw_timings(passes, setups) -> dict:
    """The same set-up and pass times as measured, before scaling, and
    the calibration kernel's median time."""
    plain = [p for p in passes if not p["traced"]]
    cal = [j["cal_ms"] for p in passes for j in p["jobs"]]
    return {"raw setup_s": (statistics.median(p["raw_setup_s"]
                                              for p in setups), "s"),
            "raw wall_s": (statistics.median(p["raw_wall_s"] for p in plain),
                           "s"),
            "calibration ms": (statistics.median(cal), "ms")}


def per_layer(job_list, passes, failures):
    """Per-layer and per-function busy time and call counts from the spans
    of the traced passes (medians over passes), failed jobs by layer,
    counters read from the jobs' return values, and the tracing overhead
    (median traced minus median untraced wall_s).  Span times are scaled
    to the reference speed like the job times."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rollups = []
    for p in traced:
        speed = {j["id"]: j["speed"] for j in p["jobs"]}
        r = {}
        for s in p["spans"]:
            if s["name"] == "job":
                continue
            dur = (s["end"] - s["start"]) * speed.get(s["job"],
                                                      p["setup_speed"])
            layer = s["name"].split(".")[0]
            for key in (layer, s["name"]):
                r[key + ".busy_s"] = r.get(key + ".busy_s", 0.0) + dur
                r[key + ".calls"] = r.get(key + ".calls", 0) + 1
        rollups.append(r)
    keys = set().union(*rollups)
    vals = {k: statistics.median(r.get(k, 0) for r in rollups) for k in keys}
    for layer in LAYERS:
        vals[layer + ".failed"] = sum(
            1 for j in job_list
            if j["id"] in failures and j["layer"] == layer)

    outs = {j["id"]: j["out"] for j in traced[0]["jobs"]}
    kinds = {j["id"]: j["kind"] for j in job_list}

    def total(kind, field):
        return sum(o[field] for i, o in outs.items()
                   if kinds[i] == kind and o is not None)

    def rate(count, key):
        busy = vals.get(key + ".busy_s", 0.0)
        return count / busy if busy > 0 else 0.0

    vals["ldp.orbits"] = total("wom", "n_orbits")
    vals["ldp.orbits_per_s"] = rate(vals["ldp.orbits"],
                                    "ldp.weighted_orbit_measure")
    vals["ldp.mc_samples_per_s"] = rate(total("deviation", "samples"),
                                        "ldp.deviation_frequency")
    vals["graph.d_GX.per_s"] = rate(vals.get("graph.d_GX.calls", 0),
                                    "graph.d_GX")
    shadow = [o for i, o in outs.items() if kinds[i] == "shadow"]
    vals["graph.shadow_pairs_ratio"] = (
        sum(1 for o in shadow if o and o["screened"]) / len(shadow)
        if shadow else 0.0)
    vals["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in plain))
    vals["machine.calibration_ms"] = statistics.median(
        j["cal_ms"] for p in passes for j in p["jobs"])
    return vals


def check_outputs(job_list, passes):
    """Failures by job id, plus job ids whose outputs differ between
    passes (same seed, so they must agree)."""
    import checks
    first = {j["id"]: (j["out"], j["error"]) for j in passes[0]["jobs"]}
    failures = checks.check_all(job_list, first)
    unstable = set()
    for p in passes[1:]:
        for j in p["jobs"]:
            if (j["out"], j["error"]) != first[j["id"]]:
                unstable.add(j["id"])
    for jid in unstable:
        failures.setdefault(jid, "outputs differ between passes")
    return failures, unstable


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("BENCHMARK.json", os.path.join("src", "thermoflow"),
                 os.path.join("tests", "data")):
        if not os.path.exists(need):
            return fail(f"{need} not found: run from the root of a "
                        f"thermoflow checkout")
    import jobs as joblists
    if args.workload not in joblists.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from "
                    f"{', '.join(joblists.WORKLOADS)}")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "known_failures.json")) as f:
        known = json.load(f)["failures"]

    job_list = joblists.make_jobs(args.workload, args.seed)
    try:
        passes, setups = run_passes(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        return fail(f"worker failed: {e}")
    failures, unstable = check_outputs(job_list, passes)
    unexpected = {i: r for i, r in failures.items()
                  if i not in known or i in unstable}

    if args.trace:
        values = per_layer(job_list, passes, failures)
        wanted = spec["per_layer"]
        os.makedirs(".bench_out", exist_ok=True)
        path = os.path.join(".bench_out",
                            f"trace-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump([{"pass": k, "spans": p["spans"]}
                       for k, p in enumerate(passes) if p["traced"]], f)
    else:
        values = end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    n_jobs = len(job_list)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {n_jobs} x {len(passes)} passes  setups {len(setups)}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    for name, (v, unit) in raw_timings(passes, setups).items():
        print(f"  {name:44s} {v:>14.6g} {unit}")
    print(f"  {'error_rate':44s} {len(failures) / n_jobs:>14.6g} fraction "
          f"({len(failures)} of {n_jobs} jobs)")
    for jid, reason in sorted(failures.items()):
        tag = "UNEXPECTED" if jid in unexpected else "known"
        print(f"  {tag:10s} {jid}: {reason}")
    print(json.dumps({"correct": not unexpected, "attempted": n_jobs,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
