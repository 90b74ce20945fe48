"""Batch front door: load models from JSON, run computations, emit
human-readable reports plus CSV/JSON artifacts.

Exit codes: 0 success, 2 model rejection (excluded geometry, bad input),
3 numerical non-convergence, 64 unknown subcommand / bad usage.

Set THERMOFLOW_LOG to one of {error, info, debug} to control logging.
All sampling subcommands require --seed; given the same config and seed the
outputs are bitwise identical (single-threaded mode).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__
from .sft import BiWord, _close_word, glue_words, min_gap_bound
from .suspension import OrbitSegment, Suspension
from .graph import GraphModelError, graph_suspension
from .thermo import (
    NonConvergenceError,
    entropy_and_mean,
    equilibrium_state,
    gibbs_ratio_stats,
    pressure,
    random_markov_measure,
)
from .ldp import (
    WeakStarConfig,
    _deviation_frequencies,
    measure_statistics,
    rate_function,
    weak_star_distance,
    weighted_orbit_measure,
)
from .entropy_density import ApproxTarget, ergodic_approximation
from . import io as tfio

log = logging.getLogger("thermoflow")

SUBCOMMANDS = (
    "spec-tau", "glue", "pressure", "equilibrium", "gibbs",
    "equidistribute", "ldp", "entropy-dense",
)

_USAGE = (
    "usage: thermoflow SUBCOMMAND [flags]\n"
    "subcommands: " + " ".join(SUBCOMMANDS) + "\n"
    "common flags: --sft FILE | --graph FILE, --roof FILE, "
    "--potential FILE, --psi FILE,\n"
    "              --delta X, --epsilon X[,X...], --t-grid X[,X...], "
    "--max-period X,\n"
    "              --eta X, --seed N, --samples N, --out DIR,\n"
    "              --method spectral|separated|gurevic|all\n"
)


def _setup_logging() -> None:
    level = os.environ.get("THERMOFLOW_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if level not in levels:
        log.error("THERMOFLOW_LOG=%r not in {error,info,debug}; "
                  "using error", level)


def _float_list(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thermoflow", add_help=True)
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--sft", help="SFT model JSON")
    p.add_argument("--graph", help="metric graph model JSON")
    p.add_argument("--roof", help="roof function JSON (SFT models)")
    p.add_argument("--potential", help="potential JSON")
    p.add_argument("--psi", help="observable potential JSON (ldp)")
    p.add_argument("--method", default="spectral",
                   choices=["spectral", "separated", "gurevic", "all"])
    p.add_argument("--delta", type=float)
    p.add_argument("--epsilon", type=_float_list)
    p.add_argument("--t-grid", dest="t_grid", type=_float_list)
    p.add_argument("--max-period", dest="max_period", type=float,
                   default=12.0)
    p.add_argument("--eta", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=int, help="gibbs: 400, ldp: 20000")
    p.add_argument("--out", help="output directory for artifacts")
    return p


def _check_numbers(args: argparse.Namespace) -> None:
    """--delta, --eta, --max-period and each --t-grid value must be finite
    and positive, each --epsilon finite and >= 0."""
    positive = [("--delta", args.delta), ("--eta", args.eta),
                ("--max-period", args.max_period)]
    positive += [("--t-grid", t) for t in args.t_grid or ()]
    for flag, x in positive:
        if x is not None and not 0 < x < math.inf:
            raise UsageError(f"{flag} must be finite and positive, got {x}")
    for x in args.epsilon or ():
        if not 0 <= x < math.inf:
            raise UsageError(f"--epsilon must be finite and >= 0, got {x}")


def _config_hash(args: argparse.Namespace) -> str:
    cfg = {k: v for k, v in vars(args).items() if k != "out"}
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class _Run:
    """Resolved models plus artifact plumbing for one invocation."""

    def __init__(self, args):
        self.args = args
        self.hash = _config_hash(args)
        self.names = None
        if args.graph:
            self.system = graph_suspension(
                tfio.load_graph(tfio.read_json(args.graph)))
            self.sft = self.system.sft
        elif args.sft:
            obj = tfio.read_json(args.sft)
            self.sft, self.names = tfio.load_sft(obj)
            if args.roof:
                roof = tfio.load_roof(tfio.read_json(args.roof))
            else:
                from .suspension import Roof
                roof = Roof([1.0] * self.sft.n_symbols)
            self.system = Suspension(self.sft, roof)
        else:
            raise UsageError("one of --sft/--graph is required")

    def name(self, s: int) -> str:
        if self.names:
            return self.names[s]
        return str(s)

    def potential(self, path, required=True):
        if path is None:
            if required:
                raise UsageError("--potential is required")
            from .thermo import zero_potential
            return zero_potential()
        return tfio.load_potential(tfio.read_json(path))

    def header(self) -> str:
        return f"# thermoflow {__version__}  config={self.hash}"

    def samples(self, default: int) -> int:
        n = default if self.args.samples is None else self.args.samples
        if n < 1:
            raise UsageError(f"--samples must be at least 1, got {n}")
        return n

    def need_seed(self):
        if self.args.seed is None:
            raise UsageError("--seed is mandatory for sampling subcommands")
        return self.args.seed

    def emit(self, name: str, payload) -> None:
        """Write a JSON or CSV artifact into --out, if given."""
        if not self.args.out:
            return
        os.makedirs(self.args.out, exist_ok=True)
        path = os.path.join(self.args.out, name)
        if name.endswith(".json"):
            payload = dict(payload)
            payload["config_hash"] = self.hash
            payload["version"] = __version__
            with open(path, "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
                f.write("\n")
        else:
            with open(path, "w", newline="") as f:
                w = csv.writer(f)
                w.writerow([f"config={self.hash}",
                            f"version={__version__}"])
                for row in payload:
                    w.writerow(row)
        log.info("wrote %s", path)


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# subcommands


def _cmd_spec_tau(run: _Run) -> int:
    tau = min_gap_bound(run.sft)
    print(run.header())
    print(f"tau = {tau}")
    print("witness table (shortest gap word per symbol pair):")
    rows = []
    for a in range(run.sft.n_symbols):
        for b in range(run.sft.n_symbols):
            gap = glue_words(run.sft, (a,), (b,))
            word = ",".join(run.name(s) for s in gap) if gap else "-"
            print(f"  {run.name(a)} -> {run.name(b)}: "
                  f"gap length {len(gap)} word [{word}]")
            rows.append((run.name(a), run.name(b), len(gap), word))
    run.emit("spec_tau.json", {
        "tau": tau,
        "witnesses": [{"from": a, "to": b, "length": n, "word": w}
                      for a, b, n, w in rows],
    })
    return 0


def _random_segments(system: Suspension, rng):
    segs = []
    n = system.sft.n_symbols
    for _ in range(3):
        word = [int(rng.integers(n))]
        for _ in range(int(rng.integers(1, 6))):
            succ = system.sft.successors(word[-1])
            word.append(int(succ[rng.integers(len(succ))]))
        # close the word into a cycle so the segment lies on a genuine orbit
        cyc = _close_word(system.sft, word)
        start = system.point(BiWord.periodic(cyc), 0.0)
        dur = sum(system.roof.array[word].tolist())
        segs.append(OrbitSegment(start, dur))
    return segs


def _cmd_glue(run: _Run) -> int:
    args = run.args
    delta = args.delta
    if delta is None:
        raise UsageError("--delta is required for glue")
    rng = np.random.default_rng(run.need_seed())
    segs = _random_segments(run.system, rng)
    res = run.system.glue_segments(segs, delta)
    bound = run.system.transition_bound(delta)
    print(run.header())
    print(f"glued {len(segs)} segments at delta = {delta}")
    print(f"transition-time bound: {bound:.6f}")
    ok_all = True
    for j, seg in enumerate(segs):
        y = run.system.flow(res.point,
                            res.block_starts[j] - seg.duration)
        ok = run.system.shadows(y, seg, delta)
        ok_all &= ok
        tau_j = res.transition_times[j] if j < len(res.transition_times) \
            else None
        tau_txt = f" tau_{j} = {tau_j:.6f}" if tau_j is not None else ""
        print(f"  segment {j}: duration {seg.duration:.6f} "
              f"shadowed = {ok}{tau_txt}")
    print("all transition times within bound:",
          all(t <= bound + 1e-9 for t in res.transition_times))
    print("shadowing verified:", ok_all)
    run.emit("glue.json", {
        "delta": delta,
        "transition_bound": bound,
        "transition_times": list(res.transition_times),
        "block_starts": list(res.block_starts),
        "shadowing_verified": bool(ok_all),
    })
    return 0 if ok_all else 3


def _cmd_pressure(run: _Run) -> int:
    args = run.args
    phi = run.potential(args.potential)
    methods = ([args.method] if args.method != "all"
               else ["spectral", "separated", "gurevic"])
    print(run.header())
    results = {}
    for m in methods:
        res = pressure(run.system, phi, method=m, t_grid=args.t_grid,
                       max_period=args.max_period)
        results[m] = res
        print(f"P = {res.value:.6f} ± {res.error:g}  [{m}]")
    if len(results) > 1:
        vals = [r.value for r in results.values()]
        spread = max(vals) - min(vals)
        print(f"method agreement: spread = {spread:.6f}")
    run.emit("pressure.json", {
        m: {"value": r.value, "error": r.error,
            "diagnostics": r.diagnostics}
        for m, r in results.items()
    })
    return 0


def _cmd_equilibrium(run: _Run) -> int:
    phi = run.potential(run.args.potential)
    mu = equilibrium_state(run.system, phi)
    h, mean_phi = entropy_and_mean(mu, phi)
    P, err = pressure(run.system, phi, method="spectral")
    gap = abs(h + mean_phi - P)
    print(run.header())
    print(f"h(mu)        = {h:.9f}")
    print(f"int phi dmu  = {mean_phi:.9f}")
    print(f"P(phi)       = {P:.9f} ± {err:g}")
    print(f"variational identity |h + int phi - P| = {gap:.3e}")
    run.emit("equilibrium.json", {
        "entropy": h,
        "mean_potential": mean_phi,
        "pressure": P,
        "pressure_error": err,
        "variational_gap": gap,
        "base_transition": np.asarray(mu.base.transition).tolist(),
        "base_stationary": np.asarray(mu.base.stationary).tolist(),
    })
    return 0


def _cmd_gibbs(run: _Run) -> int:
    args = run.args
    phi = run.potential(args.potential)
    rho = args.delta if args.delta is not None else 0.05
    t_grid = args.t_grid or [10.0, 20.0, 30.0]
    mu = equilibrium_state(run.system, phi)
    stats = gibbs_ratio_stats(run.system, mu, phi, rho, t_grid,
                              samples=run.samples(400),
                              seed=run.need_seed())
    print(run.header())
    print(f"Gibbs ratio table  rho = {rho}")
    print("  t     min ratio   max ratio   band")
    rows = []
    for t in t_grid:
        lo, hi = stats["per_t"][t]
        print(f"  {t:<5g} {lo:<11.6f} {hi:<11.6f} {hi / lo:.6f}")
        rows.append((t, lo, hi, hi / lo))
    run.emit("gibbs.csv", [("t", "min_ratio", "max_ratio", "band")] + rows)
    return 0


def _cmd_equidistribute(run: _Run) -> int:
    args = run.args
    phi = run.potential(args.potential, required=False)
    t_grid = args.t_grid or [4.0, 8.0, 12.0]
    cfg = WeakStarConfig()
    mu = equilibrium_state(run.system, phi)
    target = measure_statistics(mu, cfg)
    print(run.header())
    print("weighted periodic-orbit equidistribution: D(nu_t, mu) vs t")
    rows = [("t", "D", "n_orbits")]
    for t in t_grid:
        emp, C, n_orbits = weighted_orbit_measure(run.system, phi, t, cfg)
        D = weak_star_distance(emp, target, cfg)
        print(f"  t = {t:<6g} D = {D:.6f}  ({n_orbits} orbits, "
              f"C(t) = {C:.6g})")
        rows.append((t, D, n_orbits))
    run.emit("equidistribution.csv", rows)
    return 0


def _cmd_ldp(run: _Run) -> int:
    args = run.args
    phi = run.potential(args.potential, required=False)
    if args.psi is None:
        raise UsageError("--psi is required for ldp")
    psi = tfio.load_potential(tfio.read_json(args.psi))
    eps_grid = args.epsilon or [0.05, 0.1, 0.15, 0.2]
    seed = run.need_seed()
    n = run.samples(20000)
    q_leg = rate_function(run.system, phi, psi, eps_grid, method="legendre")
    q_dir = rate_function(run.system, phi, psi, eps_grid, method="direct")
    print(run.header())
    print("rate function q(eps) (two independent methods)")
    print("  eps     q_legendre    q_direct")
    rows = [("eps", "q_legendre", "q_direct")]
    for e in eps_grid:
        print(f"  {e:<7g} {q_leg[e]:<13.6f} {q_dir[e]:<13.6f}")
        rows.append((e, q_leg[e], q_dir[e]))
    run.emit("rate_function.csv", rows)

    t = (args.t_grid or [50.0])[-1]
    mu = equilibrium_state(run.system, phi)
    mc_rows = [("eps", "t", "frequency", "log_rate", "ci_low", "ci_high")]
    print(f"Monte Carlo deviation frequencies at t = {t}, "
          f"n = {n}")
    devs = _deviation_frequencies(run.system, mu, psi, eps_grid, t, n, seed)
    for e, dev in zip(eps_grid, devs):
        note = f"  [{dev.note}]" if dev.note else ""
        print(f"  eps = {e:<6g} freq = {dev.frequency:.6g} "
              f"log-rate = {dev.log_rate:.6f} "
              f"CI [{dev.ci_low:.6f}, {dev.ci_high:.6f}]"
              f" vs -q(eps) = {-q_leg[e]:.6f}{note}")
        mc_rows.append((e, t, dev.frequency, dev.log_rate,
                        dev.ci_low, dev.ci_high))
    run.emit("deviation_mc.csv", mc_rows)
    return 0


def _cmd_entropy_dense(run: _Run) -> int:
    args = run.args
    eta = args.eta
    if eta is None:
        raise UsageError("--eta is required for entropy-dense")
    seed = run.need_seed()
    sft = run.sft
    if sft.n_symbols != 2:
        raise UsageError("entropy-dense supports 2-symbol base shifts")
    rng = np.random.default_rng(seed)
    if all(all(row) for row in sft.transitions):
        # full 2-shift: the standard two-component Bernoulli mixture
        from .thermo import MarkovMeasure
        comps = ((MarkovMeasure([[0.9, 0.1], [0.9, 0.1]]), 0.5),
                 (MarkovMeasure([[0.1, 0.9], [0.1, 0.9]]), 0.5))
    else:
        comps = ((random_markov_measure(sft, rng), 0.5),
                 (random_markov_measure(sft, rng), 0.5))
    target = ApproxTarget(comps, eta)
    report = ergodic_approximation(run.system, target, seed=seed)
    payload = report.to_json()
    print(run.header())
    print(f"eta = {payload['eta']}")
    print(f"D(lambda, nu) = {payload['D']:.6f}")
    print(f"h_mu = {payload['h_mu']:.6f}   h_nu = {payload['h_nu']:.6f}")
    cert = payload["count_certificate"]
    print(f"count certificate: log(#E_m)/(tm) = "
          f"{cert['log_Em_rate']:.6f} > bound {cert['bound']:.6f}: "
          f"{cert['log_Em_rate'] > cert['bound']}")
    print(f"block checks: {len(payload['block_checks'])} recorded")
    run.emit("entropy_dense.json", payload)
    return 0


_DISPATCH = {
    "spec-tau": _cmd_spec_tau,
    "glue": _cmd_glue,
    "pressure": _cmd_pressure,
    "equilibrium": _cmd_equilibrium,
    "gibbs": _cmd_gibbs,
    "equidistribute": _cmd_equidistribute,
    "ldp": _cmd_ldp,
    "entropy-dense": _cmd_entropy_dense,
}


def main(argv=None) -> int:
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 64
    if argv[0] not in SUBCOMMANDS:
        print(_USAGE, end="", file=sys.stderr)
        print(f"error: unknown subcommand {argv[0]!r}", file=sys.stderr)
        return 64
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 64
    try:
        _check_numbers(args)
        run = _Run(args)
        return _DISPATCH[args.subcommand](run)
    except UsageError as e:
        print(_USAGE, end="", file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 64
    except GraphModelError as e:
        print(f"model rejected: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        log.debug("model rejection", exc_info=True)
        print(f"model rejected: {e}", file=sys.stderr)
        return 2
    except NonConvergenceError as e:
        print(f"non-convergence: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
