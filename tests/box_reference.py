"""Reference box counts and box sampler for `thermoflow.entropy_density`.

A dynamic programme over (last symbol, #1, #11) counts the admissible words
of a 2-symbol SFT one symbol at a time, in exact integer arithmetic.  It is
slow (quadratic states per layer) but obviously right, so the tests use it
as the oracle for the run-structure closed form.

`sample_from_box` draws box words one at a time: a cell by one big-integer
rejection draw, then each run split by `Generator.choice` cuts.  It has the
same law as the batched sampler of the library (another random stream), so
the law tests run on both.
"""


def pair_stat_counts(sft, n_max: int) -> dict:
    """{n: {(n1, n11): number of admissible length-n words}} for
    n = 1..n_max."""
    layer = {(s, s, 0): 1 for s in range(2)}
    out = {}
    for n in range(1, n_max + 1):
        if n > 1:
            nxt = {}
            for (last, n1, n11), c in layer.items():
                for b in range(2):
                    if sft.allowed(last, b):
                        key = (b, n1 + b, n11 + (last & b))
                        nxt[key] = nxt.get(key, 0) + c
            layer = nxt
        counts = {}
        for (_, n1, n11), c in layer.items():
            counts[(n1, n11)] = counts.get((n1, n11), 0) + c
        out[n] = counts
    return out


# ----------------------------------------------------------------------
# the per-word box sampler, kept as the reference for the batched one
# ----------------------------------------------------------------------


def randrange_big(rng, total: int) -> int:
    """Uniform integer in [0, total) for arbitrary-precision totals
    (rejection sampling on bit blocks; acceptance probability >= 1/2)."""
    bits = total.bit_length()
    words = (bits + 61) // 62
    while True:
        r = 0
        for _ in range(words):
            r = (r << 62) | int(rng.integers(0, 1 << 62))
        r &= (1 << bits) - 1
        if r < total:
            return r


def random_composition(rng, m: int, k: int) -> list:
    """Uniform composition of m into k positive parts (uniform cut points);
    the parts are the gaps of the sorted cuts, in plain Python."""
    if k == 0:
        return []
    cuts = sorted(rng.choice(m - 1, k - 1, replace=False).tolist())
    bounds = [0, *(c + 1 for c in cuts), m]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def sample_from_box(cells, n: int, rng, k: int):
    """k uniform samples from the length-n words of a box given by its
    cells: pick a cell by weight, split its ones and zeros into runs by
    uniform compositions, and interleave the runs, one word at a time."""
    total = sum(c[0] for c in cells)
    words = []
    for _ in range(k):
        r = randrange_big(rng, total)
        for weight, n1, n11, z, first in cells:
            if r < weight:
                break
            r -= weight
        runs = {1: iter(random_composition(rng, n1, n1 - n11)),
                0: iter(random_composition(rng, n - n1, z))}
        word = []
        sym = first
        while len(word) < n:
            word.extend([sym] * next(runs[sym]))
            sym = 1 - sym
        words.append(tuple(word))
    return words
