"""Check every oracle in oracles.py against brute force at small size.

Run from the repository root:  python3 bench/selftest.py
Exits 0 when every check passes, 1 otherwise.  Uses numpy and scipy only.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402

DATA = os.path.join("tests", "data")


def _graph(name):
    with open(os.path.join(DATA, name + ".json")) as f:
        return json.load(f)


def _admissible(A, word):
    return all(A[a][b] for a, b in zip(word, word[1:]))


def check_word_count():
    for allow00, allow11 in ((True, True), (True, False), (False, True)):
        A = [[int(allow00), 1], [1, int(allow11)]]
        for n in range(1, 13):
            seen = {}
            for w in itertools.product((0, 1), repeat=n):
                if _admissible(A, w):
                    key = (sum(w), sum(a == b == 1 for a, b in zip(w, w[1:])))
                    seen[key] = seen.get(key, 0) + 1
            for n1 in range(n + 1):
                for n11 in range(n):
                    got = oracles.word_count(n, n1, n11, allow00, allow11)
                    if got != seen.get((n1, n11), 0):
                        return f"word_count({n}, {n1}, {n11}, {allow00}, " \
                               f"{allow11}) = {got}, brute force " \
                               f"{seen.get((n1, n11), 0)}"
    return None


def _brute_primitive_orbits(A, roof, t):
    """Cyclic words up to rotation, primitive, with total roof <= t."""
    n = len(A)
    max_len = int(math.floor(t / min(roof) + 1e-9))
    count = 0
    for k in range(1, max_len + 1):
        for w in itertools.product(range(n), repeat=k):
            if not (_admissible(A, w) and A[w[-1]][w[0]]):
                continue
            if sum(roof[s] for s in w) > t + 1e-12:
                continue
            rots = [w[i:] + w[:i] for i in range(k)]
            if len(set(rots)) == k and w == min(rots):
                count += 1
    return count


def check_orbit_counts():
    golden = [[1, 1], [1, 0]]
    rose_A, rose_len = oracles.edge_shift(_graph("rose2"))
    theta_A, theta_len = oracles.edge_shift(_graph("theta"))
    cases = [
        ([[1, 1], [1, 1]], [1.0, 1.0], 9.0),
        (golden, [1.0, 2.0], 11.0),
        (rose_A.tolist(), [float(x) for x in rose_len], 6.0),
        (theta_A.tolist(), [float(x) for x in theta_len], 8.0),
    ]
    for A, roof, t in cases:
        for tt in np.arange(1.0, t + 0.25, 0.5):
            got = oracles.primitive_orbit_count(A, roof, float(tt))
            want = _brute_primitive_orbits(A, roof, float(tt))
            if got != want:
                return f"primitive_orbit_count({A}, {roof}, {tt}) = {got}, " \
                       f"brute force {want}"
    return None


def _brute_deviation(t, eps, strict, grid=4000):
    """Enumerate every 0/1 path of t + 1 fibers and integrate over the
    start height on a midpoint grid."""
    hs = (np.arange(grid) + 0.5) / grid
    total = 0.0
    for w in itertools.product((0, 1), repeat=t + 1):
        S = sum(w[1:t])
        integral = S + (1 - hs) * w[0] + hs * w[t]
        dev = np.abs(integral - t / 2)
        hit = dev > t * eps + 1e-12 if strict else dev >= t * eps - 1e-12
        total += hit.mean() / 2 ** (t + 1)
    return total


def check_deviation():
    for t, eps in ((6, 0.2), (8, 0.25), (9, 0.15)):
        for strict in (False, True):
            got = oracles.deviation_probability(t, eps, strict)
            want = _brute_deviation(t, eps, strict)
            if abs(got - want) > 1e-3:
                return f"deviation_probability({t}, {eps}, {strict}) = " \
                       f"{got}, brute force {want}"
    got = (oracles.deviation_probability(50, 0.1),
           oracles.deviation_probability(50, 0.1, strict=True))
    if abs(got[0] - 0.17752) > 5e-6 or abs(got[1] - 0.13566) > 5e-6:
        return f"finite-t values {got} differ from (0.17752, 0.13566)"
    return None


def check_min_gap():
    rng = np.random.default_rng(7)
    tried = 0
    while tried < 40:
        n = int(rng.integers(2, 5))
        A = (rng.random((n, n)) < 0.55).astype(int)
        try:
            want = _brute_gap(A, max_gap=n)
        except ValueError:
            continue
        tried += 1
        if oracles.min_gap(A) != want:
            return f"min_gap({A.tolist()}) = {oracles.min_gap(A)}, " \
                   f"brute force {want}"
    return None


def _brute_gap(A, max_gap):
    n = len(A)
    best = 0
    for a in range(n):
        for b in range(n):
            for k in range(max_gap + 1):
                if any(_admissible(A, (a,) + g + (b,))
                       for g in itertools.product(range(n), repeat=k)):
                    best = max(best, k)
                    break
            else:
                raise ValueError("not irreducible")
    return best


def _brute_pressure(A, roof, table, t_max=14):
    """Growth rate of the weighted count of words by total roof, from
    the last two lattice points of a brute-force partition sum; only a
    coarse check of the eigenvalue root."""
    n = len(A)
    Z = {}
    for k in range(1, t_max + 1):
        for w in itertools.product(range(n), repeat=k):
            if _admissible(A, w):
                T = round(sum(roof[s] for s in w))
                if T <= t_max:
                    Z[T] = Z.get(T, 0.0) + math.exp(
                        sum(table.get((s,), 0.0) * roof[s] for s in w))
    return math.log(Z[t_max] / Z[t_max - 1])


def check_pressure():
    golden = [[1, 1], [1, 0]]
    closed = (
        ([[1, 1], [1, 1]], [1.0, 1.0], {}, math.log(2)),
        (golden, [1.0, 1.0], {}, math.log(oracles.GOLDEN_RATIO)),
        (golden, [1.0, 2.0], {}, oracles.golden12_pressure()),
        ([[0, 1], [1, 0]], [1.0, 1.0], {(0,): 0.3, (1,): 0.0}, 0.15),
    )
    for A, roof, table, want in closed:
        got = oracles.pressure(A, roof, 1, table)
        if abs(got - want) > 1e-12:
            return f"pressure({A}, {roof}, {table}) = {got}, closed form " \
                   f"{want}"
    if abs(oracles.golden12_pressure() - 0.38224) > 1e-5:
        return "golden (1,2) root differs from 0.38224"
    rose_A, _ = oracles.edge_shift(_graph("rose2"))
    if abs(oracles.pressure(rose_A, [1.0] * 4, 1, {}) - math.log(3)) > 1e-12:
        return "rose2 pressure differs from log 3"
    # width-2 potential as a width-1 potential on the 2-block shift
    table2 = {(0, 0): 0.2, (0, 1): -0.1, (1, 0): 0.05, (1, 1): 0.3}
    B, _, _ = oracles.block_system([[1, 1], [1, 1]], [1.0, 1.0], 2, table2)
    words = oracles.admissible_words([[1, 1], [1, 1]], 2)
    flat = {(i,): table2[w] for i, w in enumerate(words)}
    if abs(oracles.pressure([[1, 1], [1, 1]], [1.0, 1.0], 2, table2)
           - oracles.pressure(B, [1.0] * 4, 1, flat)) > 1e-12:
        return "width-2 pressure differs from its block presentation"
    table = {(0,): 0.3, (1,): -0.2}
    got = oracles.pressure(golden, [1.0, 2.0], 1, table)
    want = _brute_pressure(golden, [1.0, 2.0], table, t_max=22)
    if abs(got - want) > 0.02:
        return f"golden (1,2) weighted pressure {got}, partition sums {want}"
    return None


def check_equilibrium():
    # Parry measure of the golden shift: nu(0) = phi^2 / (1 + phi^2)
    f = oracles.equilibrium_frequencies([[1, 1], [1, 0]], [1.0, 1.0], {})
    g = oracles.GOLDEN_RATIO
    want = g * g / (1 + g * g)
    if abs(f[0] - want) > 1e-12:
        return f"golden Parry frequency {f[0]}, closed form {want}"
    return None


def check_point_distance():
    theta = _graph("theta")
    # two points on the same directed edge, and across the two vertices
    if abs(oracles.point_distance(theta, (0, 0.2), (0, 0.7)) - 0.5) > 1e-12:
        return "same-edge distance"
    if abs(oracles.point_distance(theta, (0, 0.2), (1, 0.2)) - 0.6) > 1e-12:
        return "reversed-edge distance"
    if abs(oracles.point_distance(theta, (0, 0.0), (2, 0.0)) - 0.0) > 1e-12:
        return "shared-tail distance"
    if abs(oracles.point_distance(theta, (0, 0.5), (2, 0.75)) - 1.25) > 1e-12:
        return "cross-edge distance"
    return None


CHECKS = (check_word_count, check_orbit_counts, check_deviation,
          check_min_gap, check_pressure, check_equilibrium,
          check_point_distance)


def main() -> int:
    bad = 0
    for check in CHECKS:
        msg = check()
        print(f"{'FAIL' if msg else 'ok  '} {check.__name__}"
              + (f": {msg}" if msg else ""))
        bad += msg is not None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
