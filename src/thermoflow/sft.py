"""Subshifts of finite type: admissibility, irreducibility, gap constants,
gluing words, primitive cycle enumeration, and a finite representation of
eventually-periodic bi-infinite sequences (BiWord).

Conventions
-----------
Symbols are integers 0..n-1.  A word is a tuple of symbols; word ``w`` is
admissible when every adjacent pair (w[i], w[i+1]) is an allowed transition.
A BiWord represents a bi-infinite sequence

    ... L L L | core | R R R ...

where L (left_tail) repeats to the left, R (right_tail) repeats to the
right, and ``core_start`` is the coordinate of the first core symbol (the
left tail occupies coordinates < core_start).  Canonical form: both tails
primitive, core absorbed into the tails as far as possible, and for fully
periodic sequences the tail word is the lexicographically-minimal rotation.
Equality and hashing are on the canonical form, so two representations of
the same sequence compare equal.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Sft",
    "WeakSpecificationError",
    "is_irreducible",
    "min_gap_bound",
    "glue_words",
    "enumerate_primitive_cycles",
    "BiWord",
    "is_admissible_word",
]


class WeakSpecificationError(ValueError):
    """Raised when an SFT is not irreducible, so no uniform gap bound exists."""


class Sft:
    """An SFT given by a boolean transition matrix.

    transitions[i][j] truthy means the word "ij" is allowed.  SFTs with
    stranded symbols (no successor or no predecessor) are rejected at
    construction.
    """

    def __init__(self, transitions):
        A = np.asarray(transitions)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all((A == 0) | (A == 1)):
            raise ValueError("transition matrix must be boolean (0/1 entries)")
        A = A.astype(bool)
        if A.shape[0] < 1:
            raise ValueError("need at least one symbol")
        if not A.any(axis=1).all():
            raise ValueError("stranded symbol: some symbol has no successor")
        if not A.any(axis=0).all():
            raise ValueError("stranded symbol: some symbol has no predecessor")
        self._A = A
        self._A.setflags(write=False)
        self.n_symbols = A.shape[0]

    @property
    def transitions(self) -> np.ndarray:
        return self._A

    def allowed(self, i: int, j: int) -> bool:
        return bool(self._A[i, j])

    def successors(self, i: int):
        return np.flatnonzero(self._A[i])

    def __eq__(self, other):
        return isinstance(other, Sft) and np.array_equal(self._A, other._A)

    def __hash__(self):
        return hash(self._A.tobytes())

    def __repr__(self):
        return f"Sft(n={self.n_symbols})"

    # --- path existence by exact length -------------------------------

    def _bool_powers(self, max_k: int):
        """List [A^0, A^1, ..., A^max_k] over the boolean semiring.
        (A^k)[i, j] iff a path i -> j with exactly k transitions exists."""
        cached = getattr(self, "_pow_cache", None)
        if cached is None:
            cached = [np.eye(self.n_symbols, dtype=bool)]
            self._pow_cache = cached
        while len(cached) <= max_k:
            cached.append((cached[-1] @ self._A).astype(bool))
        return cached[: max_k + 1]


def is_admissible_word(sft: Sft, word) -> bool:
    w = tuple(word)
    if any(not (0 <= s < sft.n_symbols) for s in w):
        return False
    return all(sft.allowed(a, b) for a, b in zip(w, w[1:]))


def is_irreducible(sft: Sft) -> bool:
    """True iff for every ordered pair (i, j) some admissible path i -> j
    (of length >= 1) exists."""
    A = sft.transitions
    n = sft.n_symbols
    reach = A.copy()
    frontier = A.copy()
    for _ in range(n):
        frontier = (frontier @ A) & ~reach
        if not frontier.any():
            break
        reach |= frontier
    return bool(reach.all())


def _pair_gap_length(sft: Sft, a: int, b: int) -> int:
    """Length of the shortest gap word u with a u b admissible (u may be
    empty).  Returns -1 when no such u exists."""
    # a u b with |u| = k is a path a -> b with exactly k + 1 transitions.
    n = sft.n_symbols
    powers = sft._bool_powers(2 * n + 1)
    for k in range(2 * n):
        if powers[k + 1][a, b]:
            return k
    return -1


def min_gap_bound(sft: Sft) -> int:
    """Least tau such that every ordered pair of admissible words can be
    joined by a gap word of length <= tau."""
    if not is_irreducible(sft):
        raise WeakSpecificationError("weak specification fails")
    gaps = [
        _pair_gap_length(sft, a, b)
        for a in range(sft.n_symbols)
        for b in range(sft.n_symbols)
    ]
    return max(gaps)


def glue_words(sft: Sft, v, w) -> tuple:
    """Shortest gap word u with v u w admissible; ties broken by
    lexicographic order on symbol indices."""
    v = tuple(v)
    w = tuple(w)
    if not v or not w:
        raise ValueError("v and w must be nonempty admissible words")
    if not (is_admissible_word(sft, v) and is_admissible_word(sft, w)):
        raise ValueError("v and w must be admissible")
    if not is_irreducible(sft):
        raise WeakSpecificationError("weak specification fails")
    a, b = v[-1], w[0]
    L = _pair_gap_length(sft, a, b)
    if L == 0:
        return ()
    powers = sft._bool_powers(L + 1)
    # Greedy lexicographic construction: at each position pick the smallest
    # admissible symbol from which b is reachable in exactly the remaining
    # number of transitions.
    u = []
    cur = a
    for pos in range(L):
        rem = L - pos  # transitions still needed from the next symbol to b
        for s in range(sft.n_symbols):
            if sft.allowed(cur, s) and powers[rem][s, b]:
                u.append(s)
                cur = s
                break
        else:  # pragma: no cover - cannot happen when L is consistent
            raise RuntimeError("gap construction failed")
    return tuple(u)


def _primitive_root(word: tuple) -> tuple:
    """Shortest word whose repetition gives `word`."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _min_rotation(word: tuple) -> tuple:
    return min(word[i:] + word[:i] for i in range(len(word)))


def enumerate_primitive_cycles(sft: Sft, max_len: int):
    """All primitive cyclically-admissible words of length <= max_len, one
    representative per rotation class (the lexicographically minimal
    rotation).  Verifies internally that the number of n-periodic sequences
    matches trace(A^n)."""
    if max_len < 1:
        raise ValueError("max_len >= 1 required")
    n_sym = sft.n_symbols
    A = sft.transitions
    cycles = []

    def dfs(start, path):
        cur = path[-1]
        if len(path) <= max_len and sft.allowed(cur, start) and len(path) >= 1:
            word = tuple(path)
            # keep one representative per rotation class: the minimal
            # rotation must equal `word` itself, and `word` primitive.
            if word == _min_rotation(word) and _primitive_root(word) == word:
                cycles.append(word)
        if len(path) == max_len:
            return
        for s in range(start, n_sym):  # symbols < start can't be in a
            # cycle whose minimal rotation starts at `start`
            if sft.allowed(cur, s):
                path.append(s)
                dfs(start, path)
                path.pop()

    for start in range(n_sym):
        dfs(start, [start])

    # internal consistency: fixed points of sigma^n vs trace(A^n)
    by_len = {}
    for c in cycles:
        by_len.setdefault(len(c), []).append(c)
    M = np.eye(n_sym, dtype=object)
    Aobj = A.astype(object)
    for n in range(1, max_len + 1):
        M = M @ Aobj
        trace = int(np.trace(M))
        count = sum(
            d * len(by_len.get(d, ())) for d in range(1, n + 1) if n % d == 0
        )
        if count != trace:  # pragma: no cover - internal invariant
            raise AssertionError(
                f"periodic point count mismatch at n={n}: {count} != {trace}"
            )
    cycles.sort(key=lambda w: (len(w), w))
    return cycles


def _rot_left(w: tuple) -> tuple:
    return w[1:] + w[:1]


def _rot_right(w: tuple) -> tuple:
    return w[-1:] + w[:-1]


def _rotate(w: tuple, r: int) -> tuple:
    r %= len(w)
    return w[r:] + w[:r]


class BiWord:
    """Canonical finite representation of an eventually-periodic bi-infinite
    sequence.  See module docstring for the layout."""

    __slots__ = ("left_tail", "core", "right_tail", "core_start", "_hash")

    def __init__(self, left_tail, core=(), right_tail=None, core_start=0):
        if right_tail is None:
            right_tail = left_tail
        lt = _primitive_root(tuple(left_tail))
        rt = _primitive_root(tuple(right_tail))
        co = tuple(core)
        cs = int(core_start)
        if not lt or not rt:
            raise ValueError("tails must be nonempty")
        # absorb core symbols into the tails
        while co and co[0] == lt[0]:
            co = co[1:]
            lt = _rot_left(lt)
            cs += 1
        while co and co[-1] == rt[-1]:
            co = co[:-1]
            rt = _rot_right(rt)
        if not co:
            # boundary between the two tail regions sits at cs; slide it
            # left while the two regions agree on the boundary symbol.
            if lt != rt:
                guard = math.lcm(len(lt), len(rt))
                steps = 0
                while rt[-1] == lt[-1] and steps < guard:
                    cs -= 1
                    lt = _rot_right(lt)
                    rt = _rot_right(rt)
                    steps += 1
            if lt == rt:
                # fully periodic sequence: x_k = w[(k - cs) mod n]; pick the
                # lexicographically minimal rotation and fold the phase.
                w = lt
                n = len(w)
                best_r = min(range(n), key=lambda r: _rotate(w, r))
                w2 = _rotate(w, best_r)
                cs2 = (cs + best_r) % n
                lt = rt = w2
                cs = cs2
        self.left_tail = lt
        self.core = co
        self.right_tail = rt
        self.core_start = cs
        self._hash = hash((lt, co, rt, cs))

    # --- constructors --------------------------------------------------

    @classmethod
    def periodic(cls, word, phase: int = 0) -> "BiWord":
        """The periodic point with x_k = word[(k - phase) mod len(word)]
        (i.e. word[0] occupies coordinate `phase`)."""
        w = tuple(word)
        return cls(w, (), w, phase)

    @classmethod
    def constant(cls, symbol: int) -> "BiWord":
        return cls.periodic((symbol,))

    # --- core API --------------------------------------------------------

    def symbol_at(self, k: int) -> int:
        cs = self.core_start
        if k < cs:
            return self.left_tail[(k - cs) % len(self.left_tail)]
        k2 = k - cs
        if k2 < len(self.core):
            return self.core[k2]
        return self.right_tail[(k2 - len(self.core)) % len(self.right_tail)]

    def window(self, a: int, b: int) -> tuple:
        """Symbols at coordinates a..b-1."""
        return tuple(self.symbol_at(k) for k in range(a, b))

    def shift(self, m: int) -> "BiWord":
        """sigma^m: (sigma^m x)_k = x_{k+m}."""
        return BiWord(self.left_tail, self.core, self.right_tail,
                      self.core_start - m)

    def validate(self, sft: Sft) -> bool:
        """Check full admissibility: tail self-seams, seams with the core,
        and the core itself."""
        lt, co, rt = self.left_tail, self.core, self.right_tail
        chains = [lt + lt, rt + rt]
        if co:
            chains.append((lt[-1],) + co + (rt[0],))
        else:
            chains.append((lt[-1], rt[0]))
        return all(is_admissible_word(sft, c) for c in chains)

    def __eq__(self, other):
        return (
            isinstance(other, BiWord)
            and self.left_tail == other.left_tail
            and self.core == other.core
            and self.right_tail == other.right_tail
            and self.core_start == other.core_start
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"BiWord(L={self.left_tail}, core={self.core}, "
            f"R={self.right_tail}, start={self.core_start})"
        )

    def to_json(self) -> dict:
        return {
            "left_tail": list(self.left_tail),
            "core": list(self.core),
            "right_tail": list(self.right_tail),
            "origin": -self.core_start,
        }

    @classmethod
    def from_json(cls, d) -> "BiWord":
        return cls(
            tuple(d["left_tail"]),
            tuple(d.get("core", ())),
            tuple(d["right_tail"]),
            -int(d.get("origin", 0)),
        )
