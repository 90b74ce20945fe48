"""Core SFT layer: admissibility, irreducibility, gap bounds, gap words,
and the canonical bi-infinite word form."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermoflow import (
    BiWord,
    Sft,
    WeakSpecificationError,
    glue_words,
    is_admissible_word,
    is_irreducible,
    min_gap_bound,
)


def random_irreducible_sft(rng, max_symbols=6):
    """Rejection-sample an irreducible SFT with no stranded symbols."""
    while True:
        n = int(rng.integers(2, max_symbols + 1))
        m = (rng.random((n, n)) < 0.6).astype(int)
        try:
            sft = Sft(m.tolist())
        except ValueError:
            continue
        if is_irreducible(sft):
            return sft


# --- construction -----------------------------------------------------------

def test_stranded_symbols_rejected():
    with pytest.raises(ValueError):
        Sft([[1, 1], [0, 0]])  # symbol 1 has no successor
    with pytest.raises(ValueError):
        Sft([[1, 0], [1, 0]])  # symbol 1 has no predecessor


@pytest.mark.parametrize("edges, message", [
    ((0, [], []), "need at least one symbol"),
    ((2, [0, 0, 1], [0, 1, 0]), None),
    ((2, [0, 0], [0, 1]), "some symbol has no successor"),
    ((2, [0, 1], [0, 0]), "some symbol has no predecessor"),
])
def test_from_edges_checks_like_the_constructor(edges, message):
    """from_edges rejects what Sft rejects for the same transitions, with
    the same message."""
    n, src, dst = edges
    A = np.zeros((n, n), dtype=int)
    A[src, dst] = 1
    if message is None:
        assert Sft.from_edges(*edges) == Sft(A)
        return
    for build in (lambda: Sft.from_edges(*edges), lambda: Sft(A)):
        with pytest.raises(ValueError, match=message):
            build()


def test_transitions_boolean():
    sft = Sft([[1, 1], [1, 0]])
    assert all(v in (0, 1) or isinstance(v, bool)
               for row in sft.transitions for v in row)


# --- irreducibility ---------------------------------------------------------

def test_is_irreducible_examples():
    assert is_irreducible(Sft([[1, 1], [1, 1]]))
    assert not is_irreducible(Sft([[1, 0], [0, 1]]))
    assert is_irreducible(Sft([[1, 1], [1, 0]]))


# --- min_gap_bound ----------------------------------------------------------

def brute_force_gap_bound(sft, max_gap=3):
    """Oracle: smallest tau such that every symbol pair has a gap word of
    length <= tau, by exhaustive search over gap words up to max_gap."""
    n = sft.n_symbols
    best = 0
    for a in range(n):
        for b in range(n):
            found = None
            for k in range(max_gap + 1):
                for gap in itertools.product(range(n), repeat=k):
                    if is_admissible_word(sft, (a,) + gap + (b,)):
                        found = k
                        break
                if found is not None:
                    break
            assert found is not None, "oracle window too small"
            best = max(best, found)
    return best


def test_min_gap_bound_golden_values(rose2):
    from thermoflow import build_edge_sft
    full2 = Sft([[1, 1], [1, 1]])
    golden = Sft([[1, 1], [1, 0]])
    rose_sft, _ = build_edge_sft(rose2)
    for sft, expect in ((full2, 0), (golden, 1), (rose_sft, 1)):
        assert min_gap_bound(sft) == expect
        assert brute_force_gap_bound(sft) == expect


def test_min_gap_bound_rejects_reducible():
    with pytest.raises(WeakSpecificationError, match="weak specification"):
        min_gap_bound(Sft([[1, 0], [0, 1]]))


def test_min_gap_bound_symbol_permutation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sft = random_irreducible_sft(rng)
        n = sft.n_symbols
        perm = rng.permutation(n)
        m = np.array(sft.transitions, dtype=int)
        pm = m[np.ix_(perm, perm)]
        assert min_gap_bound(Sft(pm.tolist())) == min_gap_bound(sft)


# --- glue_words -------------------------------------------------------------

def test_glue_words_examples():
    golden = Sft([[1, 1], [1, 0]])
    assert glue_words(golden, (1,), (1,)) == (0,)
    full2 = Sft([[1, 1], [1, 1]])
    assert glue_words(full2, (0, 1), (1, 0)) == ()


def test_glue_words_rose_reversal(rose2):
    from thermoflow import build_edge_sft
    sft, _ = build_edge_sft(rose2)
    # v ends at edge 0, w starts at its reversal 1: the gap must be a
    # single edge e with e != 1 (no backtrack from 0) and e != 0 (w's first
    # edge is the reversal of 0); lexicographic pick is edge 2.
    gap = glue_words(sft, (0,), (1,))
    assert gap == (2,)


def test_glue_words_contract_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sft = random_irreducible_sft(rng)
        tau = min_gap_bound(sft)
        for _ in range(10):
            v = _random_word(sft, rng)
            w = _random_word(sft, rng)
            u = glue_words(sft, v, w)
            assert len(u) <= tau
            assert is_admissible_word(sft, v + u + w)


def _random_word(sft, rng, max_len=4):
    word = [int(rng.integers(sft.n_symbols))]
    for _ in range(int(rng.integers(0, max_len))):
        succ = sft.successors(word[-1])
        word.append(int(succ[rng.integers(len(succ))]))
    return tuple(word)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WeakSpecificationError as err:
        return WeakSpecificationError, str(err)


def test_gap_table_matches_boolean_powers(rose2, theta):
    """is_irreducible, min_gap_bound and glue_words read one shortest-path
    table; they equal the boolean-power reference on 400 seeded SFTs of
    1-8 symbols (reducible ones included) and the edge shifts: the same
    value or the same error, every ordered symbol pair, random words.  The
    table itself is the least k with (A^k)[s, b], n where there is none."""
    import gap_reference as ref
    from thermoflow import build_edge_sft
    rng = np.random.default_rng(15)
    corpus = [build_edge_sft(g)[0] for g in (rose2, theta)]
    while len(corpus) < 402:
        n = int(rng.integers(1, 9))
        m = rng.random((n, n)) < rng.uniform(0.15, 0.7)
        try:
            corpus.append(Sft(m.astype(int).tolist()))
        except ValueError:
            continue
    reducible = 0
    for sft in corpus:
        irreducible = ref.is_irreducible(sft)
        reducible += not irreducible
        assert is_irreducible(sft) == irreducible
        n = sft.n_symbols
        table = np.full((n, n), n)
        for k, power in reversed(list(enumerate(ref.bool_powers(sft)[:n]))):
            table[power] = k
        assert np.array_equal(sft._distances, table)
        assert _outcome(min_gap_bound, sft) == _outcome(ref.min_gap_bound,
                                                         sft)
        pairs = [((a,), (b,)) for a in range(n) for b in range(n)]
        pairs += [(_random_word(sft, rng), _random_word(sft, rng))
                  for _ in range(5)]
        for v, w in pairs:
            assert _outcome(glue_words, sft, v, w) == \
                _outcome(ref.glue_words, sft, v, w)
    assert 50 < reducible < 350


# --- BiWord canonical form --------------------------------------------------

def test_biword_canonicalization():
    # periodic word written redundantly collapses to primitive tails
    a = BiWord((0, 1, 0, 1), (), (0, 1, 0, 1), 0)
    b = BiWord((0, 1), (), (0, 1), 0)
    assert a == b
    assert hash(a) == hash(b)


def _least_rotation_reference(w: tuple) -> int:
    """The rule Booth's algorithm replaced: the least r whose rotation
    w[r:] + w[:r] is lexicographically least, by comparing all rotations
    (O(n^2))."""
    return min(range(len(w)), key=lambda r: w[r:] + w[:r])


def test_biword_canonical_forms_match_reference_rotation(monkeypatch):
    """Booth's least rotation picks the rotation of the all-rotations rule
    and leaves every canonical form as it was, on 3000 periodic words
    (primitive or powers, any phase) and 600 eventually periodic ones."""
    from thermoflow import sft as sft_mod
    rng = np.random.default_rng(13)
    inputs = []
    for _ in range(3000):
        n_sym = int(rng.integers(1, 5))
        w = tuple(rng.integers(n_sym, size=int(rng.integers(1, 40))).tolist())
        inputs.append(((w * int(rng.integers(1, 4)),), {
            "phase": int(rng.integers(-50, 50))}))
    for _ in range(600):
        lt, mid, other = (
            tuple(rng.integers(2, size=int(rng.integers(1, 6))).tolist())
            for _ in range(3))
        core = mid if rng.random() < 0.5 else ()
        rt = lt if rng.random() < 0.5 else other
        inputs.append(((lt, core, rt, int(rng.integers(-9, 9))), {}))

    def forms():
        out = []
        for args, kw in inputs:
            x = BiWord.periodic(*args, **kw) if kw else BiWord(*args)
            out.append((x.left_tail, x.core, x.right_tail, x.core_start))
        return out

    words = [args[0] for args, kw in inputs if kw]
    assert [sft_mod._least_rotation(w) for w in words] == \
        [_least_rotation_reference(w) for w in words]
    booth = forms()
    monkeypatch.setattr(sft_mod, "_least_rotation", _least_rotation_reference)
    assert forms() == booth


def test_biword_symbol_at_phases():
    w = BiWord.periodic((0, 1, 1), phase=0)
    got = [w.symbol_at(k) for k in range(-3, 6)]
    assert got == [0, 1, 1, 0, 1, 1, 0, 1, 1]


def test_biword_window_matches_symbol_at():
    """The sliced window equals symbol_at read coordinate by coordinate, on
    random words (tails of 1-4 symbols, cores of 0-6, core_start -10..10),
    for ranges that start and end in every region and for the empty ranges
    a = b and b < a."""
    rng = np.random.default_rng(21)
    for _ in range(400):
        lt, core, rt = (tuple(rng.integers(3, size=int(rng.integers(*n)))
                              .tolist()) for n in ((1, 5), (0, 7), (1, 5)))
        x = BiWord(lt, core, rt, int(rng.integers(-10, 11)))
        cs, ce = x.core_start, x.core_start + len(x.core)
        # a point deep in the left tail, on each boundary and in the core,
        # and deep in the right tail
        marks = sorted({cs - 9, cs - 1, cs, (cs + ce) // 2, ce - 1, ce,
                        ce + 9})
        for a in marks:
            for b in marks + [m + 17 for m in marks] + [a, a - 1, a - 3]:
                assert x.window(a, b) == tuple(
                    x.symbol_at(k) for k in range(a, b)), (x, a, b)


def test_biword_core_absorption():
    # core symbols matching the tails get absorbed
    x = BiWord((0,), (0, 1), (1,), 0)
    assert x.core == ()
    assert [x.symbol_at(k) for k in range(-2, 4)] == [0, 0, 0, 1, 1, 1]


def test_biword_json_roundtrip():
    x = BiWord((0,), (1, 0, 1), (1,), -1)
    d = x.to_json()
    assert set(d) == {"left_tail", "core", "right_tail", "origin"}
    assert BiWord.from_json(d) == x


# --- hypothesis property tests ---------------------------------------------

@st.composite
def sft_and_words(draw):
    n = draw(st.integers(2, 5))
    rows = draw(st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        min_size=n, max_size=n))
    m = np.array(rows)
    if not (m.sum(axis=0).all() and m.sum(axis=1).all()):
        # patch stranded symbols rather than reject, to keep shrinking sane
        for i in range(n):
            if not m[i].any():
                m[i, draw(st.integers(0, n - 1))] = 1
        for j in range(n):
            if not m[:, j].any():
                m[draw(st.integers(0, n - 1)), j] = 1
    sft = Sft(m.tolist())
    if not is_irreducible(sft):
        # make irreducible by adding a cycle through all symbols
        for i in range(n):
            m[i, (i + 1) % n] = 1
        sft = Sft(m.tolist())
    seeds = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                           st.integers(1, 4), st.integers(1, 4)))
    return sft, seeds


@given(sft_and_words())
@settings(max_examples=60, deadline=None)
def test_gap_word_property(data):
    sft, (a, b, la, lb) = data
    rngless_v = _extend(sft, a, la)
    rngless_w = _extend(sft, b, lb)
    tau = min_gap_bound(sft)
    u = glue_words(sft, rngless_v, rngless_w)
    assert len(u) <= tau
    assert is_admissible_word(sft, rngless_v + u + rngless_w)


def _extend(sft, start, length):
    word = [start]
    for _ in range(length - 1):
        word.append(sft.successors(word[-1])[0])
    return tuple(word)
