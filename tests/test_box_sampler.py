"""The box sampler of separated generic sets: the batched draw keeps the
exact law of the per-word reference sampler (every box word has
probability 1/#box), every draw is an admissible box word, and the
separated set reports its sampling diagnostics."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

import box_reference as ref

from thermoflow import (MarkovMeasure, Roof, Sft, Suspension,
                        entropy_density, separated_generic_set)
from thermoflow.entropy_density import (_box_cells, _box_words,
                                        _randrange_big)
from thermoflow.sft import is_admissible_word

IRREDUCIBLE_2 = {
    "full2": [[1, 1], [1, 1]],
    "golden": [[1, 1], [1, 0]],
    "no00": [[0, 1], [1, 1]],
    "cycle2": [[0, 1], [1, 0]],
}

ETA = 0.17  # the entropy-density benchmark's eta: zeta = eta / 8


def _markov_box(P):
    """The box of separated_generic_set around the Markov kernel P."""
    mu = MarkovMeasure(P)
    pi1 = float(mu.stationary[1])
    return {"pi1": pi1, "p11": float(pi1 * mu.transition[1, 1]),
            "zeta": ETA / 8.0}


# full2 with the benchmark's Bernoulli(0.9) box at n = 48, and golden
# (no 11) with a Markov box at n = 70
LAW_CASES = {
    "full2": ([[1, 1], [1, 1]], [[0.1, 0.9], [0.1, 0.9]], 48),
    "golden": ([[1, 1], [1, 0]], [[0.6, 0.4], [1.0, 0.0]], 70),
}

SAMPLERS = {"batched": lambda *args: _box_words(*args)[0],
            "reference": ref.sample_from_box}


def _runs(w):
    """[(symbol, length), ...] of the runs of w, in order."""
    out = []
    for s in w:
        if out and out[-1][0] == s:
            out[-1][1] += 1
        else:
            out.append([s, 1])
    return [tuple(r) for r in out]


def _cell_of(w):
    """(n1, n11, z, first) of a word: the key of its cell."""
    runs = _runs(w)
    n1 = sum(w)
    n11 = sum(a & b for a, b in zip(w, w[1:]))
    return n1, n11, sum(1 for s, _ in runs if s == 0), w[0]


def _draw(sampler, cells, n, seed, total, batch=20):
    rng = np.random.default_rng(seed)
    words = []
    while len(words) < total:
        words += sampler(cells, n, rng, batch)
    return words


def _pooled_chisquare(observed, expected):
    """Chi-square p-value with the bins whose expected count is below 5
    pooled into one."""
    observed, expected = np.asarray(observed), np.asarray(expected, float)
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    expected *= observed.sum() / expected.sum()  # float rounding only
    return chisquare(observed, expected).pvalue


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_drawn_cell_follows_the_cell_weights(case, sampler):
    """The cell of each draw has probability weight / #box."""
    A, P, n = LAW_CASES[case]
    cells = _box_cells(Sft(A), n, _markov_box(P))
    assert len(cells) > 3
    count = sum(c[0] for c in cells)
    words = _draw(SAMPLERS[sampler], cells, n, seed=11, total=4000)
    seen = Counter(_cell_of(w) for w in words)
    keys = [c[1:] for c in cells]
    assert set(seen) <= set(keys)
    expected = [len(words) * c[0] / count for c in cells]
    assert _pooled_chisquare([seen[k] for k in keys], expected) > 1e-3


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_first_run_length_in_one_cell(case, sampler):
    """In one cell, the first run of the symbol s (ones on full2; zeros on
    golden, whose ones all stand alone) has length L with probability
    C(m - L - 1, q - 2) / C(m - 1, q - 1), m the count of s and q its
    runs."""
    A, P, n = LAW_CASES[case]
    s = 1 if case == "full2" else 0
    cells = _box_cells(Sft(A), n, _markov_box(P))
    weight, n1, n11, z, first = max(cells)  # the heaviest cell
    m, q = (n1, n1 - n11) if s else (n - n1, z)
    assert q >= 3
    words = _draw(SAMPLERS[sampler], [(weight, n1, n11, z, first)], n,
                  seed=12, total=4000)
    assert all(_cell_of(w) == (n1, n11, z, first) for w in words)
    lengths = Counter(next(L for sym, L in _runs(w) if sym == s)
                      for w in words)
    Ls = range(1, m - q + 2)
    law = [math.comb(m - L - 1, q - 2) / math.comb(m - 1, q - 1) for L in Ls]
    assert abs(sum(law) - 1.0) < 1e-12
    assert set(lengths) <= set(Ls)
    p = _pooled_chisquare([lengths[L] for L in Ls],
                          [len(words) * x for x in law])
    assert p > 1e-3


def _in_box(w, box):
    n = len(w)
    n11 = sum(a & b for a, b in zip(w, w[1:]))
    return (abs(sum(w) / n - box["pi1"]) <= box["zeta"]
            and abs(n11 / (n - 1) - box["p11"]) <= box["zeta"])


@pytest.mark.parametrize("k", [1, 20])
@pytest.mark.parametrize("name", sorted(IRREDUCIBLE_2))
def test_draws_are_admissible_box_words(name, k):
    """On every irreducible 2-symbol shift, each draw is admissible, lies
    in the box and in one of its cells, for narrow and whole boxes."""
    sft = Sft(IRREDUCIBLE_2[name])
    rng = np.random.default_rng(5)
    for n, box in [(30, {"pi1": 0.5, "p11": 0.2, "zeta": 0.25}),
                   (48, {"pi1": 0.6, "p11": 0.3, "zeta": 0.35}),
                   (17, {"pi1": 0.5, "p11": 0.5, "zeta": 1.0})]:
        cells = _box_cells(sft, n, box)
        assert cells
        keys = {c[1:] for c in cells}
        for _ in range(5):
            words = _box_words(cells, n, rng, k)[0]
            assert len(words) == k
            for w in words:
                assert len(w) == n and set(w) <= {0, 1}
                assert is_admissible_word(sft, w)
                assert _in_box(w, box)
                assert _cell_of(w) in keys


@pytest.mark.parametrize("name, n, cell", [
    ("no00", 12, (8, 4, 4, 0)),     # n0 = z: every zero stands alone
    ("golden", 12, (4, 0, 4, 1)),   # n11 = 0: every one stands alone
    ("full2", 20, (20, 19, 0, 1)),  # n1 = n, z = 0: the all-ones word
    ("full2", 20, (0, 0, 1, 0)),    # n1 = 0: the all-zeros word
    ("cycle2", 20, (10, 0, 10, 0)),  # n0 = z and n11 = 0: 0101...
    ("full2", 9, (5, 2, 3, 1)),     # z = r: starts with 1, ends with 0
    ("full2", 9, (5, 2, 2, 1)),     # z = r - 1: starts and ends with 1
    ("full2", 9, (4, 1, 4, 0)),     # z = r + 1: starts and ends with 0
])
@pytest.mark.parametrize("k", [1, 20])
def test_edge_cells(name, n, cell, k):
    """A cell at the edge of the run structure: every draw from it alone
    is an admissible word of exactly that cell, and every word of the
    cell shows up."""
    sft = Sft(IRREDUCIBLE_2[name])
    whole = {"pi1": 0.5, "p11": 0.5, "zeta": 1.0}
    cells = [c for c in _box_cells(sft, n, whole) if c[1:] == cell]
    assert len(cells) == 1 and cells[0][0] <= 35
    rng = np.random.default_rng(6)
    seen = set()
    for _ in range(max(1, 20 * cells[0][0] // k)):
        for w in _box_words(cells, n, rng, k)[0]:
            assert is_admissible_word(sft, w)
            assert _cell_of(w) == cell
            seen.add(w)
    assert len(seen) == cells[0][0]


def test_randrange_big_is_uniform_below_a_bigint_total():
    """Draws below a total of 130 bits reach the top of the range, stay
    below it, and fall evenly into eight equal bands; the discarded
    draws are counted."""
    total = 3 * 2 ** 128 + 12345
    draws, discarded = _randrange_big(np.random.default_rng(7), total,
                                      4000)
    assert len(draws) == 4000 and discarded >= 0
    assert all(isinstance(r, int) and 0 <= r < total for r in draws)
    assert max(draws) > total * 0.99
    bands = Counter(8 * r // total for r in draws)
    assert chisquare([bands[b] for b in range(8)]).pvalue > 1e-3
    low = Counter(r % 6 for r in draws)  # the low block counts too
    assert chisquare([low[b] for b in range(6)]).pvalue > 1e-3


def test_draws_pick_cells_on_the_cumulative_weights(monkeypatch):
    """Draw r picks the cell whose cumulative weights bracket it: the
    first and the last integer of each cell's range land in that cell."""
    n = 30
    cells = _box_cells(Sft(IRREDUCIBLE_2["full2"]), n,
                       {"pi1": 0.5, "p11": 0.25, "zeta": 0.1})
    assert len(cells) > 3
    edges = np.cumsum([0] + [c[0] for c in cells], dtype=object).tolist()
    draws = [r for a, b in zip(edges, edges[1:]) for r in (a, b - 1)]
    monkeypatch.setattr(entropy_density, "_randrange_big",
                        lambda rng, total, k: (draws[:k], 0))
    words, _ = _box_words(cells, n, np.random.default_rng(8), len(draws))
    assert [_cell_of(w) for w in words] == [c[1:] for c in cells
                                            for _ in range(2)]


def test_separated_set_diagnostics():
    """The separated set reports its box cells, the members it sampled and
    the draws its big-integer rejection discarded, at the seed's draw."""
    system = Suspension(Sft([[1, 1], [1, 0]]), Roof([1.0, 2.0]))
    mu = MarkovMeasure([[0.6, 0.4], [1.0, 0.0]])
    g = separated_generic_set(system, mu, h=0.2, t=60.0, eta=ETA, seed=3)
    d = g.diagnostics
    assert d["cells"] == len(_box_cells(system.sft, g.length, g.box))
    assert d["sampled"] == len(g.sampled_D) == 20
    assert d["rejected"] == _randrange_big(np.random.default_rng(3),
                                           g.count, 20)[1]
