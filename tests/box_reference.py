"""Reference box counts for the closed form in `thermoflow.entropy_density`.

A dynamic programme over (last symbol, #1, #11) counts the admissible words
of a 2-symbol SFT one symbol at a time, in exact integer arithmetic.  It is
slow (quadratic states per layer) but obviously right, so the tests use it
as the oracle for the run-structure closed form.
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
