"""Seeded job lists, one per workload, as plain JSON-able data.

A job is one call a user makes: a paper-level function of thermoflow or
one in-process CLI invocation.  The seed decides every random input
(potentials, beta grids, geodesics, SFTs and roofs, sampler seeds); the
shape of each list (which calls, on which models, at which sizes) is
fixed, so two seeds cost about the same.  The worker turns the data into
library objects; the oracles read the same data without the library.
"""

from __future__ import annotations

import json
import os
import zlib
from collections import deque

import numpy as np

import oracles

WORKLOADS = ("thermo-ldp", "orbits", "geometry", "entropy-density")

DATA = os.path.join("tests", "data")

# SFT models by name: (transition matrix, roof); graphs are read from
# tests/data and coded as their non-backtracking edge shift.
SFT_MODELS = {
    "full2": ([[1, 1], [1, 1]], [1.0, 1.0]),
    "golden11": ([[1, 1], [1, 0]], [1.0, 1.0]),
    "golden12": ([[1, 1], [1, 0]], [1.0, 2.0]),
    "cycle2": ([[0, 1], [1, 0]], [1.0, 1.0]),
}
GRAPHS = ("rose2", "theta")


def read_data(name: str) -> dict:
    with open(os.path.join(DATA, name + ".json")) as f:
        return json.load(f)


def model_data(model: str):
    """(transition matrix, roof values) of a named model."""
    if model in SFT_MODELS:
        A, roof = SFT_MODELS[model]
        return np.array(A), list(roof)
    A, lengths = oracles.edge_shift(read_data(model))
    return A, [float(x) for x in lengths]


def table_of(pot) -> dict:
    """Potential as {word tuple: value} from its JSON-able form."""
    return {tuple(w): v for w, v in pot["table"]}


def _potential(A, width: int, values) -> dict:
    words = oracles.admissible_words(A, width)
    return {"width": width,
            "table": [[list(w), float(v)] for w, v in zip(words, values)]}


def _random_potential(rng, A, width: int, scale: float = 0.5) -> dict:
    n = len(oracles.admissible_words(A, width))
    return _potential(A, width, np.round(rng.uniform(-scale, scale, n), 6))


ZERO = {"width": 1, "table": []}
IND1 = {"width": 1, "table": [[[0], 0.0], [[1], 1.0]]}
PHI_FIXED = {"width": 1, "table": [[[0], 0.1], [[1], -0.2]]}


def _job(jobs, jid, kind, layer, fn, **params):
    jobs.append({"id": jid, "kind": kind, "layer": layer, "fn": fn,
                 **params})


def _sub_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


# ----------------------------------------------------------------------
# thermo-ldp
# ----------------------------------------------------------------------


def thermo_ldp(rng):
    jobs = []
    press = dict(kind="pressure", layer="thermo",
                 fn="thermo.pressure_spectral", method="spectral")
    for m in ("full2", "golden11", "golden12", "rose2", "theta", "cycle2"):
        _job(jobs, f"pressure/{m}/zero", potential=ZERO, model=m, **press)
    for m in ("full2", "golden11", "golden12", "rose2"):
        A, _ = model_data(m)
        for i in range(20):
            _job(jobs, f"pressure/{m}/w1-{i}", model=m,
                 potential=_random_potential(rng, A, 1), **press)
        for i in range(6):
            _job(jobs, f"pressure/{m}/w2-{i}", model=m,
                 potential=_random_potential(rng, A, 2), **press)
    # block-recoded rose2: 324 states at width 5, 972 at width 6.  The
    # width-5 solves are many, so the p90 falls inside them; small
    # potentials keep the power-iteration count about the same per seed.
    A_rose, _ = model_data("rose2")
    for i in range(16):
        _job(jobs, f"pressure/rose2/w5-{i}", model="rose2",
             potential=_random_potential(rng, A_rose, 5, 0.1), **press)
    _job(jobs, "pressure/rose2/w6-0", model="rose2",
         potential=_random_potential(rng, A_rose, 6, 0.05), **press)
    # known failures of the power iteration on periodic shifts
    A_theta, _ = model_data("theta")
    _job(jobs, "pressure/theta/nonconstant", model="theta",
         potential=_random_potential(rng, A_theta, 1), **press)
    _job(jobs, "pressure/cycle2/phi0=0.3", model="cycle2",
         potential={"width": 1, "table": [[[0], 0.3], [[1], 0.0]]}, **press)
    # points of the pressure curve beta -> P(phi + beta psi)
    for m in ("full2", "golden11", "golden12"):
        A, _ = model_data(m)
        phi = _random_potential(rng, A, 1, 0.3)
        for i, beta in enumerate(np.sort(rng.uniform(-2.0, 2.0, 10))):
            vals = [v + beta * (w[0] == 1) for w, v in phi["table"]]
            _job(jobs, f"curve/{m}/{i}", model=m,
                 potential=_potential(A, 1, vals), **press)
    # equilibrium state plus the variational identity
    eq = dict(kind="equilibrium", layer="thermo",
              fn="thermo.equilibrium_state")
    for m in ("full2", "golden11", "golden12", "rose2"):
        A, _ = model_data(m)
        for i, width in enumerate((1, 1, 1, 2)):
            _job(jobs, f"equilibrium/{m}/{i}", model=m,
                 potential=_random_potential(rng, A, width), **eq)
    _job(jobs, "equilibrium/theta/nonconstant", model="theta",
         potential=_random_potential(rng, A_theta, 1), **eq)
    # rate function: closed form on full2, Legendre vs direct on golden12
    rate = dict(kind="rate", layer="ldp", psi=IND1)
    for method in ("legendre", "direct"):
        _job(jobs, f"rate/full2/zero/{method}", model="full2",
             potential=ZERO, eps=[0.1], method=method,
             fn=f"ldp.rate_function_{method}", **rate)
    eps_g = [float(np.round(rng.uniform(0.08, 0.12), 4))]
    for name, phi in (("zero", ZERO), ("phi", PHI_FIXED)):
        for method in ("legendre", "direct"):
            _job(jobs, f"rate/golden12/{name}/{method}", model="golden12",
                 potential=phi, eps=eps_g, method=method,
                 fn=f"ldp.rate_function_{method}", **rate)
    _job(jobs, "deviation/full2/t50/eps0.1", kind="deviation", layer="ldp",
         fn="ldp.deviation_frequency", model="full2", psi=IND1, eps=0.1,
         t=50, samples=100_000, seed=_sub_seed(rng))
    gibbs = dict(kind="gibbs", layer="thermo", fn="thermo.gibbs_ratio_stats",
                 rho=0.05, t_grid=[10.0, 30.0], samples=400)
    _job(jobs, "gibbs/golden12/phi", model="golden12", potential=PHI_FIXED,
         seed=_sub_seed(rng), **gibbs)
    _job(jobs, "gibbs/full2/random", model="full2",
         potential=_random_potential(rng, model_data("full2")[0], 1, 0.3),
         seed=_sub_seed(rng), **gibbs)
    d = DATA + "/"
    cli = [
        ("pressure", ["pressure", "--sft", d + "golden.json", "--roof",
                      d + "golden_roof12.json", "--potential",
                      d + "zero.json"]),
        ("equilibrium", ["equilibrium", "--sft", d + "full2.json",
                         "--potential", d + "phi_small.json"]),
        ("gibbs", ["gibbs", "--sft", d + "golden.json", "--roof",
                   d + "golden_roof12.json", "--potential",
                   d + "phi_small.json", "--seed", str(_sub_seed(rng))]),
        ("ldp", ["ldp", "--sft", d + "full2.json", "--psi",
                 d + "psi_ind1.json", "--epsilon", "0.1", "--samples",
                 "20000", "--seed", str(_sub_seed(rng))]),
    ]
    for sub, argv in cli:
        _job(jobs, f"cli/{sub}", kind="cli", layer="cli", fn=f"cli.{sub}",
             argv=argv, expect_exit=0)
    return jobs


# ----------------------------------------------------------------------
# orbits
# ----------------------------------------------------------------------

# Short passes give more passes per run, and so steadier medians over
# passes: rose2 costs 0.35 s at t = 9, 0.9 s at 10 and 3 s at 11, so its
# ladder stops at 9 (8 for the seeded phi), and its closed-orbit
# pressures use max_period 9.
LADDERS = {"rose2": range(4, 10), "theta": range(4, 15),
           "golden12": range(6, 20), "full2": range(4, 13)}
MAX_PERIOD = {"rose2": 9.0, "theta": 12.0, "golden12": 12.0, "full2": 12.0}


def orbits(rng):
    jobs = []
    for m, ts in LADDERS.items():
        A, _ = model_data(m)
        for pname, phi in (("zero", ZERO),
                           ("phi", _random_potential(rng, A, 1, 0.2))):
            key = f"{m}/{pname}"
            _job(jobs, f"target/{key}", kind="target", layer="thermo",
                 fn="thermo.equilibrium_state", model=m, potential=phi,
                 target=key)
            if m == "rose2" and pname == "phi":
                ts = ts[:-1]
            for t in ts:
                _job(jobs, f"wom/{key}/t{t}", kind="wom", layer="ldp",
                     fn="ldp.weighted_orbit_measure", model=m,
                     potential=phi, t=float(t), target=key,
                     top=t == ts[-1], bottom=t == ts[0])
            for method in ("gurevic", "separated"):
                _job(jobs, f"pressure/{key}/{method}", kind="pressure",
                     layer="thermo", fn=f"thermo.pressure_{method}",
                     model=m, potential=phi, method=method,
                     max_period=MAX_PERIOD[m])
    d = DATA + "/"
    _job(jobs, "cli/equidistribute", kind="cli", layer="cli",
         fn="cli.equidistribute",
         argv=["equidistribute", "--graph", d + "rose2.json", "--t-grid",
               "4,6,8", "--seed", str(_sub_seed(rng))], expect_exit=0)
    _job(jobs, "cli/pressure-all", kind="cli", layer="cli",
         fn="cli.pressure",
         argv=["pressure", "--graph", d + "rose2.json", "--potential",
               d + "zero4.json", "--method", "all", "--max-period", "9"],
         expect_exit=0)
    return jobs


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------


def _walk(rng, A, length: int):
    word = [int(rng.integers(len(A)))]
    while len(word) < length:
        succ = np.flatnonzero(A[word[-1]])
        word.append(int(succ[rng.integers(len(succ))]))
    return word


def _gap(A, a: int, b: int):
    """Shortest u with a u b admissible (breadth-first search)."""
    if A[a, b]:
        return []
    prev = {a: None}
    queue = deque([a])
    while queue:
        s = queue.popleft()
        for nxt in np.flatnonzero(A[s]):
            nxt = int(nxt)
            if nxt in prev:
                continue
            prev[nxt] = s
            if A[nxt, b]:
                path = [nxt]
                while prev[path[-1]] != a:
                    path.append(prev[path[-1]])
                return path[::-1]
            queue.append(nxt)
    raise ValueError("not irreducible")


def _random_point(rng, A, roof, length=None):
    """A periodic point: a random admissible word (of random length 2..6
    unless given) closed into a cycle, a random phase and a random height
    in the fiber at coordinate 0."""
    word = _walk(rng, A, length or int(rng.integers(2, 7)))
    cyc = word + _gap(A, word[-1], word[0])
    phase = int(rng.integers(len(cyc)))
    sym0 = cyc[(-phase) % len(cyc)]
    return {"cycle": cyc, "phase": phase,
            "height": float(rng.random()) * roof[sym0]}


def _random_irreducible(rng, max_symbols=5):
    while True:
        n = int(rng.integers(2, max_symbols + 1))
        A = (rng.random((n, n)) < 0.6).astype(int)
        if A.any(axis=1).all() and A.any(axis=0).all():
            try:
                oracles.min_gap(A)
            except ValueError:
                continue
            return A


def _correlated_pair(rng, A, roof, agree_len=24):
    """Two geodesics whose edge words agree on [0, agree_len) and have
    independently chosen one-symbol tails (the criterion-3 shape)."""
    word = _walk(rng, A, agree_len)
    n = len(A)

    def extend():
        left = int(rng.integers(n))
        while not A[left, word[0]]:
            left = int(rng.integers(n))
        succ = np.flatnonzero(A[word[-1]])
        return [left, int(succ[rng.integers(len(succ))])]

    h = float(rng.random()) * roof[word[0]]
    return {"word": word, "tails": [extend(), extend()], "height": h}


def geometry(rng):
    jobs = []
    for g in GRAPHS:
        A, roof = model_data(g)
        for i in range(60):
            _job(jobs, f"dgx/{g}/{i}", kind="dgx", layer="graph",
                 fn="graph.d_GX", model=g,
                 geodesics=[_random_point(rng, A, roof, 8) for _ in "ab"])
        for i in range(20):
            _job(jobs, f"shadow/{g}/{i}", kind="shadow", layer="graph",
                 fn="graph.lift_distance", model=g,
                 eps=float(rng.choice([0.1, 0.3])),
                 pair=_correlated_pair(rng, A, roof))
    for i in range(40):
        A = _random_irreducible(rng)
        roof = [float(r) for r in np.round(rng.uniform(0.5, 2.0, len(A)), 6)]
        segs = [{"point": _random_point(rng, A, roof),
                 "duration": float(rng.uniform(0.5, 6.0))}
                for _ in range(int(rng.integers(1, 4)))]
        _job(jobs, f"glue/{i}", kind="glue", layer="suspension",
             fn="suspension.glue_segments", A=A.tolist(), roof=roof,
             segments=segs, delta=0.3)
    A12, roof12 = model_data("golden12")
    for i in range(30):
        _job(jobs, f"close/golden12/{i}", kind="close", layer="suspension",
             fn="suspension.close_segment", model="golden12",
             point=_random_point(rng, A12, roof12),
             duration=float(rng.uniform(0.5, 12.0)), delta=0.3)
    for i in range(20):
        _job(jobs, f"min-gap/{i}", kind="min_gap", layer="sft",
             fn="sft.min_gap_bound", A=_random_irreducible(rng).tolist())
    d = DATA + "/"
    _job(jobs, "cli/glue", kind="cli", layer="cli", fn="cli.glue",
         argv=["glue", "--sft", d + "golden.json", "--roof",
               d + "golden_roof12.json", "--delta", "0.3", "--seed",
               str(_sub_seed(rng))], expect_exit=0)
    _job(jobs, "cli/spec-tau", kind="cli", layer="cli", fn="cli.spec-tau",
         argv=["spec-tau", "--graph", d + "rose2.json"], expect_exit=0)
    _job(jobs, "cli/circle-rejected", kind="cli", layer="cli",
         fn="cli.pressure",
         argv=["pressure", "--graph", d + "circle.json", "--potential",
               d + "zero.json"], expect_exit=2)
    return jobs


# ----------------------------------------------------------------------
# entropy-density
# ----------------------------------------------------------------------

BERNOULLI_09 = [[0.1, 0.9], [0.1, 0.9]]


def entropy_density(rng):
    jobs = []
    eta = 0.17  # zeta = eta/8 keeps box edges off the lattice n1/n
    ladders = [("full2", "bernoulli0.9", BERNOULLI_09, range(24, 52, 4))]
    for i, p in enumerate(np.round(rng.uniform(0.55, 0.7, 2), 6)):
        ladders.append(("golden11", f"markov{i}",
                        [[float(p), 1.0 - float(p)], [1.0, 0.0]],
                        range(24, 71)))
    for m, name, mu, ts in ladders:
        for t in ts:
            _job(jobs, f"separated/{m}/{name}/t{t}", kind="separated",
                 layer="entropy_density",
                 fn="entropy_density.separated_generic_set", model=m,
                 mu=mu, t=float(t), eta=eta,
                 h=oracles.markov_flow_entropy(mu, model_data(m)[1])
                 - eta / 2, seed=_sub_seed(rng))
    _job(jobs, "glue-family/full2/t120", kind="glue_family",
         layer="entropy_density", fn="entropy_density.glue_generic_family",
         model="full2", components=[[[[0.9, 0.1], [0.9, 0.1]], 0.5],
                                    [BERNOULLI_09, 0.5]],
         t=120.0, m=3, eta=0.1, seed=_sub_seed(rng))
    return jobs


_BUILDERS = {"thermo-ldp": thermo_ldp, "orbits": orbits,
             "geometry": geometry, "entropy-density": entropy_density}


def make_jobs(workload: str, seed: int):
    """The job list of a workload for a seed (same seed, same list).

    The list is shuffled, so jobs of one kind spread over the whole pass
    and a burst of load on the machine does not fall on one kind only;
    the equilibrium targets of `orbits` stay first because the orbit jobs
    read them."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    jobs = _BUILDERS[workload](rng)
    first = [j for j in jobs if j["kind"] == "target"]
    rest = [j for j in jobs if j["kind"] != "target"]
    return first + [rest[i] for i in rng.permutation(len(rest))]
