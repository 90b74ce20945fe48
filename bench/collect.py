"""Repeat the benchmark over seeds and summarize it.

    python3 bench/collect.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                             [--trace-seed N] [--out bench/baseline.json]

Run from the root of a checkout.  For each workload it runs
`bench/run.py` once per seed (untraced), prints every end-to-end metric
with its unit, median, quartiles and spread (IQR / median, the figure
each bound in BENCHMARK.json is compared with), the job count and the
failures, and flags a spread above a third of its bound.  The unscaled
figures each run prints (raw set-up and wall time, calibration kernel
time) are kept beside them.  With
--trace-seed it also makes one traced run per workload and reports its
per-layer rollup and the tracing overhead (traced minus untraced wall_s
within that run).  With --out the summary is written as JSON together
with the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def raw_figures(lines):
    """The unscaled figures run.py prints: raw setup_s, raw wall_s and
    the calibration kernel's time."""
    out = {}
    for line in lines:
        words = line.split()
        if words[:1] == ["raw"] or words[:2] == ["calibration", "ms"]:
            out[" ".join(words[:2])] = float(words[2])
    return out


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def machine():
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "machine": machine(),
               "workloads": {}}
    worst = 0.0
    for w in args.workloads.split(","):
        runs, raws = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            res, lines = run_once(w, seed, seconds, 0)
            runs.append(res)
            raws.append(raw_figures(lines))
        entry = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                 "attempted": runs[0]["attempted"],
                 "failed": [r["failed"] for r in runs],
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": {},
                 "raw": {k: summarize([r[k] for r in raws])
                         for k in raws[0]}}
        print(f"{w}: {entry['attempted']} jobs per run, failed "
              f"{entry['failed']}, correct {entry['correct']}")
        for name, m in runs[0]["metrics"].items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = m["unit"]
            entry["end_to_end"][name] = s
            ratio = s["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, ratio)
            flag = "  > bound/3" if ratio > 1 / 3 else ""
            print(f"  {name:12s} {s['median']:12.5g} {m['unit']:3s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread "
                  f"{s['spread']:7.4f} (bound {bounds[name]}){flag}")
        if args.trace_seed is not None:
            res, lines = run_once(w, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "correct": res["correct"],
                               "per_layer": {k: v["value"] for k, v in
                                             res["metrics"].items()}}
            print(f"  traced run, seed {args.trace_seed}: tracing overhead "
                  f"{res['metrics']['trace.overhead_s']['value']:.4f} s")
        summary["workloads"][w] = entry
    print(f"largest spread / bound (setup_s aside): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
