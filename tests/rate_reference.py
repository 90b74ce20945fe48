"""The direct rate method before the Newton solve of the concave program:
the oracle for `thermoflow.ldp.rate_function(..., "direct")`.

It maximizes h + int phi over the Markov kernels of a width-1 potential
pair: every kernel of a simplex grid of spacing GRID_STEP and every
deterministic (vertex) kernel is scored as one (K, n, n) stack, and the
best feasible one starts an SLSQP polish on each side of the constraint
|int psi - mbar| >= eps.  It handles at most 3 free kernel parameters
(full2, golden (1, 2)), and the vertex kernels make the ends of the psi
range exact.

`max_cycle_ratio` is the psi range's Dinkelbach search before the
Bellman-Ford cycle search: the best-mean cycle of each round comes from
max-plus powers of the entering-edge weights, an (n, n, n) table per
step.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from thermoflow import entropy_and_mean, equilibrium_state, pressure
from thermoflow.ldp import _psi_range


def kernel_stack(rows, params: np.ndarray) -> np.ndarray:
    """(K, n, n) Markov kernels from (K, dims) parameters: a state with m
    successors gives the next m - 1 parameters to its first m - 1 and the
    rest to its last successor (one successor: forced)."""
    P = np.zeros((len(params), len(rows), len(rows)))
    k = 0
    for i, succ in rows:
        probs = params[:, k: k + len(succ) - 1]
        k += len(succ) - 1
        P[:, i, succ[:-1]] = probs
        P[:, i, succ[-1]] = 1.0 - probs.sum(axis=1)
    return P


def product(blocks) -> np.ndarray:
    """Rows of the Cartesian product of the row sets in blocks, the first
    block varying slowest (the order of itertools.product)."""
    out = np.zeros((1, 0))
    for B in blocks:
        out = np.hstack([np.repeat(out, len(B), axis=0),
                         np.tile(B, (len(out), 1))])
    return out


# spacing of the simplex grid that the direct rate method scores
GRID_STEP = 0.02


def kernel_grid(free, step: float):
    """(params, n_grid): parameter rows of the simplex grid over the free
    kernel rows `free` (successor lists), then of the vertex kernels."""
    def simplex_grid(m):
        ticks = np.arange(step, 1.0, step)[:, None]
        if m == 1:
            return ticks
        pts = product([ticks, simplex_grid(m - 1)])
        return pts[pts[:, 0] + pts[:, 1:].sum(axis=1) < 1.0 - step / 2]

    grid = product([simplex_grid(len(s) - 1) for s in free])
    # deterministic kernels reach the boundary of the psi-range, which the
    # open grid misses; picking a row's last successor sets its params 0
    vertices = product([np.eye(len(s))[:, :-1] for s in free])
    return np.vstack([grid, vertices]), len(grid)


def objective(P: np.ndarray, roofs, phi_v, psi_v):
    """(h + int phi, int psi, ok) for the suspended Markov measures of a
    (K, n, n) kernel stack; phi and psi are width-1 with values phi_v,
    psi_v.  Each kernel is clipped at 0 and renormalized, and again after
    entries below 1e-12 are zeroed.  pi is the min-norm least-squares
    solution of pi (P - I) = 0, sum pi = 1, so (1/2, 1/2) on the identity
    kernel.  ok: rows sum to 1 and pi P = pi, both within 1e-9."""
    P = np.maximum(P, 0.0)
    P = P / P.sum(axis=2, keepdims=True)
    P = np.where(P < 1e-12, 0.0, P)
    P = P / P.sum(axis=2, keepdims=True)
    rs = P.sum(axis=2)
    P = P / rs[..., None]
    n = P.shape[1]
    A = np.concatenate([P.transpose(0, 2, 1) - np.eye(n),
                        np.ones_like(P[:, :1])], axis=1)
    pi = np.linalg.pinv(A, rcond=np.finfo(float).eps * (n + 1))[:, :, -1]
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum(axis=1, keepdims=True)
    pi = pi / pi.sum(axis=1, keepdims=True)
    err = np.abs((pi[:, None] @ P)[:, 0] - pi).max(axis=1)
    ok = (np.abs(rs - 1.0) <= 1e-9).all(axis=1) & (err <= 1e-9)
    H = -(pi[:, :, None] * P * np.log(np.where(P > 0, P, 1.0))).sum(
        axis=(1, 2))
    mean_roof, mphi, mpsi = (pi @ np.stack(
        [roofs, phi_v * roofs, psi_v * roofs], axis=1)).T
    return H / mean_roof + mphi / mean_roof, mpsi / mean_roof, ok


def rate_direct(system, phi, psi, eps_grid) -> dict:
    """Brute maximization of h + int phi over Markov kernels on a simplex
    grid, subject to |int psi - mbar| >= eps, then a constrained polish
    on the active boundary.  The grid and the deterministic vertex kernels
    are scored as one kernel stack."""
    P0 = pressure(system, phi, "spectral", tol=1e-12).value
    mbar = entropy_and_mean(equilibrium_state(system, phi), psi)[1]
    if phi.width != 1 or psi.width != 1:
        raise ValueError("direct method supports width-1 potentials")
    n = system.sft.n_symbols
    rows = [(i, system.sft.successors(i)) for i in range(n)]
    free = [succ for _, succ in rows if len(succ) > 1]
    dims = sum(len(s) - 1 for s in free)
    if dims > 3:
        raise ValueError("direct method limited to <= 3 free kernel "
                         "parameters")
    roofs = system.roof.array
    phi_v, psi_v = (np.array([f.value((s,)) for s in range(n)])
                    for f in (phi, psi))
    params, n_grid = kernel_grid(free, GRID_STEP)
    obj, mpsi, ok = objective(kernel_stack(rows, params), roofs, phi_v,
                               psi_v)

    def polish(eps, sign, start):
        """maximize h + int phi subject to int psi = mbar + sign*eps."""
        target = mbar + sign * eps
        last = {}  # SLSQP asks neg and con at the same points

        def evaluate(x):
            if x.tobytes() not in last:
                P = kernel_stack(rows, np.clip(x, 1e-9, 1 - 1e-9)[None])
                (o,), (m,), (good,) = objective(P, roofs, phi_v, psi_v)
                last.clear()
                last[x.tobytes()] = float(o), float(m), bool(good)
            return last[x.tobytes()]

        def neg(x):
            o, _, good = evaluate(x)
            return -o if good else math.inf

        def con(x):
            _, m, good = evaluate(x)
            # one-sided: push int psi at least eps beyond the mean; the
            # concave objective makes the optimum sit on this boundary
            return sign * (m - target) if good else -1.0

        try:
            res = minimize(neg, np.array(start), method="SLSQP",
                           constraints=[{"type": "ineq", "fun": con}],
                           bounds=[(1e-9, 1 - 1e-9)] * dims,
                           options={"maxiter": 300, "ftol": 1e-12})
            if res.success:
                return -res.fun
        except Exception:
            pass
        return -math.inf

    lo_u, hi_u = _psi_range(system, psi)
    out = {}
    for eps in eps_grid:
        if eps == 0:
            out[eps] = 0.0
            continue
        feasible = ok & (np.abs(mpsi - mbar) >= eps - 1e-12)
        i = int(np.argmax(np.where(feasible, obj, -math.inf)))
        best = float(obj[i]) if feasible[i] else -math.inf
        # polish on each boundary from the best grid point (the optimum
        # of a concave objective over the two-sided constraint set lies
        # on one of the boundaries unless it is a vertex)
        for sign in (+1, -1):
            tgt = mbar + sign * eps
            if tgt < lo_u - 1e-9 or tgt > hi_u + 1e-9:
                continue
            start = params[i] if feasible[i] and i < n_grid \
                else [1.0 / len(s) for s in free for _ in s[:-1]]
            best = max(best, polish(eps, sign, start))
        out[eps] = math.inf if best == -math.inf else max(0.0, P0 - best)
    return out


def max_cycle_ratio(A: np.ndarray, num: np.ndarray,
                    den: np.ndarray) -> float:
    """max over cycles c of num(c) / den(c), den > 0, by Dinkelbach's
    parametric search: while some cycle has sum(num - lam den) > 0, the
    ratio of the cycle of best mean weight is the next lam.  Best-mean
    cycles come from max-plus powers (walks of up to n edges) of the
    entering-edge weights, with argmax predecessors kept."""
    lam = float(np.min(num / den))  # no cycle ratio lies below it
    while True:
        w = np.where(A, (num - lam * den)[None, :], -np.inf)
        walks, preds = [w], []
        for _ in range(len(num) - 1):
            cand = walks[-1][:, :, None] + w[None]
            preds.append(cand.argmax(axis=1))
            walks.append(cand.max(axis=1))
        means = [np.diag(Pk) / (k + 1) for k, Pk in enumerate(walks)]
        k, i = np.unravel_index(np.argmax(means), (len(means), len(num)))
        walk = [i]
        for pred in reversed(preds[:k]):
            walk.append(pred[i, walk[-1]])
        ratio = float(num[walk].sum() / den[walk].sum())
        if not ratio > lam:
            return lam
        lam = ratio
