"""Pass rules: each job's output against an exact reference from
oracles.py, or against the lemma it is an instance of.

`check_all(jobs, results)` returns {job id: failure reason} for every job
that failed: it raised, exited with an unexpected code, missed its
reference tolerance, or reported an error bar that does not cover the
reference (|value - ref| <= error + 1e-9).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

import jobs as joblists
import oracles

COVER_SLACK = 1e-9
VARIATIONAL_TOL = 1e-6  # criterion 6
RATE_TOL = 1e-3  # criterion 9


@lru_cache(maxsize=None)
def _model(model):
    A, roof = joblists.model_data(model)
    return A, tuple(roof)


def _key(pot):
    return (pot["width"], tuple((tuple(w), v) for w, v in pot["table"]))


@lru_cache(maxsize=None)
def _pressure_ref(model, pot_key):
    width, items = pot_key
    table = dict(items)
    if not table:
        closed = {"full2": math.log(2), "rose2": math.log(3),
                  "golden11": math.log(oracles.GOLDEN_RATIO),
                  "golden12": oracles.golden12_pressure(), "cycle2": 0.0}
        if model in closed:
            return closed[model]
    if model == "cycle2":  # rho of [[0, e^a], [e^b, 0]] is e^((a+b)/2)
        return (table[(0,)] + table[(1,)]) / 2
    A, roof = _model(model)
    return oracles.pressure(A, roof, width, table)


def pressure_ref(model, pot):
    return _pressure_ref(model, _key(pot))


def _cover(value, error, ref, what="value"):
    if abs(value - ref) <= error + COVER_SLACK:
        return None
    return f"{what} {value:.9g} +- {error:.3g} does not cover {ref:.9g}"


def _position0(point):
    """(symbol at coordinate 0, height) of a periodic point spec."""
    cyc = point["cycle"]
    return cyc[(-point["phase"]) % len(cyc)], point["height"]


# ----------------------------------------------------------------------
# single-job rules
# ----------------------------------------------------------------------


def check_pressure(job, out):
    return _cover(out["value"], out["error"],
                  pressure_ref(job["model"], job["potential"]), "pressure")


def check_equilibrium(job, out):
    P = pressure_ref(job["model"], job["potential"])
    gap = abs(out["h"] + out["mean"] - P)
    if gap < VARIATIONAL_TOL:
        return None
    return f"variational identity |h + int phi - P| = {gap:.3g}"


def check_rate(job, out):
    q = out["q"]
    if job["model"] == "full2" and not job["potential"]["table"]:
        for eps, val in zip(job["eps"], q):
            ref = oracles.rate_full2_indicator(eps)
            if not abs(val - ref) < RATE_TOL:
                return f"q({eps}) = {val:.6g}, closed form {ref:.6g}"
        return None
    if not all(0.0 <= v < math.inf for v in q):
        return f"rate function values {q} not finite and >= 0"
    return None  # Legendre-direct agreement is checked across the pair


def check_deviation(job, out):
    ref = oracles.deviation_probability(job["t"], job["eps"])
    lo = math.exp(job["t"] * out["ci_low"])
    hi = math.exp(job["t"] * out["ci_high"])
    if lo - COVER_SLACK <= ref <= hi + COVER_SLACK:
        return None
    return f"confidence interval [{lo:.5f}, {hi:.5f}] misses the exact " \
           f"finite-t probability {ref:.5f}"


def _gibbs(model, table, rho, bands):
    A, roof = _model(model)
    bound = oracles.gibbs_band_bound(A, roof, table, rho)
    if max(bands) <= bound * (1 + 1e-9):
        return None
    return f"Gibbs band {max(bands):.4g} above the uniform bound {bound:.4g}"


def check_gibbs(job, out):
    return _gibbs(job["model"], joblists.table_of(job["potential"]),
                  job["rho"], out["bands"])


def check_target(job, out):
    A, roof = _model(job["model"])
    ref = oracles.equilibrium_frequencies(
        A, roof, joblists.table_of(job["potential"]))
    err = float(np.max(np.abs(np.array(out["freq1"]) - ref)))
    return None if err < 1e-8 else \
        f"equilibrium symbol frequencies off by {err:.3g}"


def check_wom(job, out):
    A, roof = _model(job["model"])
    ref = oracles.primitive_orbit_count(A, roof, job["t"])
    if out["n_orbits"] != ref:
        return f"{out['n_orbits']} orbits, Moebius count {ref}"
    if out["D"] is not None and not 0.0 <= out["D"] < math.inf:
        return f"weak* distance {out['D']}"
    return None


def check_dgx(job, out):
    graph = joblists.read_data(job["model"])
    p1, p2 = (_position0(p) for p in job["geodesics"])
    dx = oracles.point_distance(graph, p1, p2)
    # comparison lemma with K = 1/2: d_X <= 2 d_GX, with certified error
    if dx <= 2.0 * (out["value"] + out["error"]) + COVER_SLACK:
        return None
    return f"comparison lemma: d_X = {dx:.6g} > 2 (d_GX + err) = " \
           f"{2 * (out['value'] + out['error']):.6g}"


def check_shadow(job, out):
    if out["screened"] and not out["worst"] < job["eps"]:
        return f"shadowing lemma: d_GX - err = {out['worst']:.4g} >= " \
               f"eps = {job['eps']}"
    return None


def check_glue(job, out):
    bound = oracles.transition_bound(job["A"], job["roof"], job["delta"])
    if not all(out["shadowed"]):
        return f"segments not shadowed: {out['shadowed']}"
    if not all(-COVER_SLACK <= t <= bound + COVER_SLACK
               for t in out["transition_times"]):
        return f"transition times {out['transition_times']} outside " \
               f"[0, {bound}]"
    return None


def check_close(job, out):
    A, roof = _model(job["model"])
    bound = job["duration"] + oracles.transition_bound(A, roof, job["delta"])
    if out["achieved"] < job["delta"] and out["period"] <= bound \
            + COVER_SLACK:
        return None
    return f"closing: distance {out['achieved']:.4g} (delta " \
           f"{job['delta']}), period {out['period']:.4g} (bound {bound:.4g})"


def check_min_gap(job, out):
    ref = oracles.min_gap(job["A"])
    return None if out["tau"] == ref else f"tau {out['tau']}, exact {ref}"


def _box_ref(model, mu, n, eta):
    A, _ = _model(model)
    pi1, p11 = oracles.stationary_2(mu)
    return oracles.box_count(n, pi1, p11, eta / 8.0, allow00=bool(A[0, 0]),
                             allow11=bool(A[1, 1]))


def _mean_roof(model, mu):
    _, roof = _model(model)
    pi1, _ = oracles.stationary_2(mu)
    return (1 - pi1) * roof[0] + pi1 * roof[1]


def check_separated(job, out):
    n = int(math.floor(job["t"] / _mean_roof(job["model"], job["mu"])
                       + 1e-9))
    if out["length"] != n:
        return f"word length {out['length']}, expected {n}"
    ref = _box_ref(job["model"], job["mu"], n, job["eta"])
    if int(out["count"]) != ref:
        return f"count {out['count']}, closed form {ref}"
    # the certificate #Gamma >= e^{t h} is reported, not promised, at
    # small t; it must state the truth
    if out["certificate_ok"] != (math.log(ref) >= job["t"] * job["h"]):
        return f"certificate_ok = {out['certificate_ok']} for log count " \
               f"{math.log(ref):.6g} against t h = {job['t'] * job['h']:.6g}"
    return None


def check_glue_family(job, out):
    for (mu, a), n, count in zip(job["components"], out["lengths"],
                                 out["counts"]):
        want_n = int(math.floor(a * job["t"] / _mean_roof(job["model"], mu)
                                + 1e-9))
        if n != want_n:
            return f"block length {n}, expected {want_n}"
        ref = _box_ref(job["model"], mu, n, job["eta"])
        if int(count) != ref:
            return f"component count {count}, closed form {ref}"
    if not math.isfinite(out["log_Em"]) or out["log_Em"] <= 0:
        return f"log #E_m = {out['log_Em']}"
    return None


def _csv_col(rows, name):
    idx = rows[0].index(name)
    return [float(r[idx]) for r in rows[1:]]


def check_cli(job, out):
    if out["exit"] != job["expect_exit"]:
        return f"exit code {out['exit']}, expected {job['expect_exit']}"
    art = out["artifacts"]
    sub = job["argv"][0]
    d = joblists.DATA + "/"
    if job["expect_exit"] != 0:
        return None
    if sub == "pressure":
        model = "rose2" if d + "rose2.json" in job["argv"] else "golden12"
        ref = pressure_ref(model, joblists.ZERO)
        for method, res in art["pressure.json"].items():
            if isinstance(res, dict):
                bad = _cover(res["value"], res["error"], ref, method)
                if bad:
                    return bad
        return None
    if sub == "equilibrium":
        res = art["equilibrium.json"]
        pot = joblists.read_data("phi_small")
        phi = {"width": 1, "table": [[[int(k)], v]
                                     for k, v in pot["table"].items()]}
        ref = pressure_ref("full2", phi)
        if res["variational_gap"] >= VARIATIONAL_TOL:
            return f"variational gap {res['variational_gap']:.3g}"
        return _cover(res["pressure"], res["pressure_error"], ref,
                      "pressure")
    if sub == "gibbs":
        rows = art["gibbs.csv"]
        pot = joblists.read_data("phi_small")
        table = {(int(k),): v for k, v in pot["table"].items()}
        return _gibbs("golden12", table, 0.05, _csv_col(rows, "band"))
    if sub == "ldp":
        rows = art["rate_function.csv"]
        for col in ("q_legendre", "q_direct"):
            for eps, q in zip(_csv_col(rows, "eps"), _csv_col(rows, col)):
                ref = oracles.rate_full2_indicator(eps)
                if not abs(q - ref) < RATE_TOL:
                    return f"{col}({eps}) = {q:.6g}, closed form {ref:.6g}"
        return None
    if sub == "equidistribute":
        rows = art["equidistribution.csv"]
        A, roof = _model("rose2")
        for t, n in zip(_csv_col(rows, "t"), _csv_col(rows, "n_orbits")):
            ref = oracles.primitive_orbit_count(A, roof, t)
            if int(n) != ref:
                return f"{int(n)} orbits at t = {t}, Moebius count {ref}"
        D = _csv_col(rows, "D")
        if any(a < b for a, b in zip(D, D[1:])):
            return f"weak* distances {D} not non-increasing"
        return None
    if sub == "glue":
        res = art["glue.json"]
        A, roof = _model("golden12")
        bound = oracles.transition_bound(A, roof, res["delta"])
        if not res["shadowing_verified"]:
            return "shadowing not verified"
        if any(t > bound + COVER_SLACK for t in res["transition_times"]):
            return f"transition times {res['transition_times']} > {bound}"
        return None
    if sub == "spec-tau":
        A, _ = _model("rose2")
        tau = art["spec_tau.json"]["tau"]
        return None if tau == oracles.min_gap(A) else f"tau {tau}"
    return f"no headline rule for subcommand {sub!r}"


RULES = {
    "pressure": check_pressure, "equilibrium": check_equilibrium,
    "rate": check_rate, "deviation": check_deviation, "gibbs": check_gibbs,
    "target": check_target, "wom": check_wom, "dgx": check_dgx,
    "shadow": check_shadow, "glue": check_glue, "close": check_close,
    "min_gap": check_min_gap, "separated": check_separated,
    "glue_family": check_glue_family, "cli": check_cli,
}


# ----------------------------------------------------------------------
# rules across jobs
# ----------------------------------------------------------------------


def _rate_pairs(job_list, outs, failures):
    """Legendre and direct rate functions on the same input agree within
    RATE_TOL; checked on both members when both returned."""
    by_input = {}
    for job in job_list:
        if job["kind"] == "rate":
            key = (job["model"], repr(job["potential"]), tuple(job["eps"]))
            by_input.setdefault(key, []).append(job)
    for pair in by_input.values():
        got = [(j, outs.get(j["id"])) for j in pair]
        if len(got) != 2 or any(o is None for _, o in got):
            continue
        (a, qa), (b, qb) = got
        diff = max(abs(x - y) for x, y in zip(qa["q"], qb["q"]))
        if not diff < RATE_TOL:
            for j in (a, b):
                failures.setdefault(
                    j["id"], f"Legendre and direct differ by {diff:.3g}")


def _ladders(job_list, outs, failures):
    """Criterion 7's shape: the weak* distance at the top of each t-ladder
    is below the one at its bottom."""
    rungs = [(j, outs[j["id"]]) for j in job_list
             if j["kind"] == "wom" and j["id"] in outs
             and outs[j["id"]]["D"] is not None]
    bottom = {j["target"]: out["D"] for j, out in rungs if j["bottom"]}
    for job, out in rungs:
        if job["top"] and job["target"] in bottom \
                and not out["D"] < bottom[job["target"]]:
            failures.setdefault(
                job["id"], f"weak* distance {out['D']:.4g} at the top of "
                f"the ladder is not below {bottom[job['target']]:.4g}")


def check_all(job_list, results) -> dict:
    """{job id: reason} for every failed job; `results` maps job id to
    (output or None, error message or None)."""
    failures = {}
    outs = {}
    for job in job_list:
        out, error = results[job["id"]]
        if error is not None:
            failures[job["id"]] = error
            continue
        reason = RULES[job["kind"]](job, out)
        if reason:
            failures[job["id"]] = reason
        else:
            outs[job["id"]] = out
    _rate_pairs(job_list, outs, failures)
    _ladders(job_list, outs, failures)
    return failures
