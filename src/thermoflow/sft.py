"""Subshifts of finite type: admissibility, irreducibility, gap constants,
gluing words, and a finite representation of eventually-periodic
bi-infinite sequences (BiWord).

`_shortest_paths` is the library's one path search: Floyd-Warshall in
(min, +) over an edge list, exact on ints and on Fractions.  Irreducibility,
the gap bound tau and every gap word read one cached table per Sft,
`Sft._distances`, of the least number of transitions between two symbols;
`graph` reads vertex distances, connectivity and the systole, and `ldp`
the critical graph at an end of the psi-range, from the same kernel.
`_glue_blocks` is the one loop that joins a sequence of blocks with gap
words.

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

import functools
import math

import numpy as np

__all__ = [
    "Sft",
    "WeakSpecificationError",
    "is_irreducible",
    "min_gap_bound",
    "glue_words",
    "BiWord",
    "is_admissible_word",
]


class WeakSpecificationError(ValueError):
    """Raised when an SFT is not irreducible, so no uniform gap bound exists."""


class Sft:
    """An SFT on the symbols 0..n_symbols-1, stored as one edge list,
    `_edges` = (src, dst), of its allowed words "ij" in row-major order;
    `transitions` is its dense read-only bool view, built on first read.
    `Sft(matrix)` takes a square 0/1 matrix; it and `Sft.from_edges` (a
    block recoding builds one) reject an empty alphabet and stranded
    symbols (no successor or no predecessor).
    """

    def __init__(self, transitions):
        A = np.asarray(transitions)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("transition matrix must be square")
        if not np.all((A == 0) | (A == 1)):
            raise ValueError("transition matrix must be boolean (0/1 entries)")
        self._set(A.shape[0], *np.nonzero(A))

    @classmethod
    def from_edges(cls, n: int, src, dst) -> "Sft":
        """The SFT of the transitions src[e] -> dst[e] on the symbols
        0..n-1, given in row-major order."""
        sft = cls.__new__(cls)
        sft._set(n, src, dst)
        return sft

    def _set(self, n, src, dst):
        if n < 1:
            raise ValueError("need at least one symbol")
        src, dst = (np.asarray(a, dtype=np.intp) for a in (src, dst))
        if np.bincount(src, minlength=n).min() == 0:
            raise ValueError("stranded symbol: some symbol has no successor")
        if np.bincount(dst, minlength=n).min() == 0:
            raise ValueError("stranded symbol: some symbol has no predecessor")
        self.n_symbols = n
        self._edges = src, dst

    @functools.cached_property
    def transitions(self) -> np.ndarray:
        A = np.zeros((self.n_symbols,) * 2, dtype=bool)
        A[self._edges] = True
        A.setflags(write=False)
        return A

    def allowed(self, i: int, j: int) -> bool:
        return bool(self.transitions[i, j])

    def successors(self, i: int):
        return np.flatnonzero(self.transitions[i])

    def __eq__(self, other):
        return (isinstance(other, Sft) and self.n_symbols == other.n_symbols
                and all(map(np.array_equal, self._edges, other._edges)))

    def __hash__(self):
        return hash((self.n_symbols, *(a.tobytes() for a in self._edges)))

    def __repr__(self):
        return f"Sft(n={self.n_symbols})"

    @functools.cached_property
    def _distances(self) -> np.ndarray:
        """d[s, b]: the least number of transitions s -> b; 0 on the
        diagonal, n_symbols where b cannot be reached from s."""
        n = self.n_symbols
        src, dst = self._edges
        d = _shortest_paths(n, src, dst, np.ones(len(src), dtype=int))
        d = np.where(d < math.inf, d, n).astype(int)
        d.setflags(write=False)
        return d


def _shortest_paths(n: int, src, dst, weight) -> np.ndarray:
    """D[i, j]: the least weight of a path i -> j over the edges src[e] ->
    dst[e] of the array weight[e] on states 0..n-1; 0 on the diagonal (the empty
    path), inf where j cannot be reached from i.  Floyd-Warshall in (min,
    +), so a negative cycle only drives its entries down.  Int weights give
    exact float sums below 2^53, and Fractions in an object array stay
    exact, as np.minimum and + act on the objects themselves."""
    D = np.full((n, n), math.inf, dtype=np.result_type(weight, float))
    np.minimum.at(D, (src, dst), weight)
    np.fill_diagonal(D, 0)
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[k], out=D)
    return D


def is_admissible_word(sft: Sft, word) -> bool:
    w = tuple(word)
    if any(not (0 <= s < sft.n_symbols) for s in w):
        return False
    return all(sft.allowed(a, b) for a, b in zip(w, w[1:]))


def _words(edges, w: int, prob=None, start=None):
    """The words of length w along the edges (src, dst) in row-major order
    on states 0..n-1, every state with an out-edge, as the rows of an int
    array in lexicographic order: each step repeats a row once for each
    successor of its last state, read from a table of each state's
    successors padded with -1.

    Given per-edge probabilities prob and start weights start, returns
    (words, nu) with nu(p) = start(p_0) prob(p_0 p_1) ... prob(p_-2 p_-1),
    multiplied in that order."""
    src, dst = edges
    degree = np.bincount(src)
    slot = np.arange(len(src)) - (np.cumsum(degree) - degree)[src]
    succ = np.full((len(degree), degree.max()), -1, dtype=np.int64)
    succ[src, slot] = dst
    W = np.arange(len(degree))[:, None]
    if prob is not None:
        step = np.zeros(succ.shape)
        step[src, slot] = prob
        nu = np.array(start, dtype=float)
    for _ in range(w - 1):
        last = W[:, -1]
        nxt, k = succ.take(last, axis=0), degree.take(last)
        keep = nxt >= 0
        W = np.column_stack([W.repeat(k, axis=0), nxt[keep]])
        if prob is not None:
            nu = nu.repeat(k) * step.take(last, axis=0)[keep]
    return W if prob is None else (W, nu)


def is_irreducible(sft: Sft) -> bool:
    """True iff for every ordered pair (i, j) some admissible path i -> j
    (of length >= 1) exists.  Every symbol has a successor, so paths of
    length >= 0 to every symbol suffice."""
    return bool((sft._distances < sft.n_symbols).all())


def min_gap_bound(sft: Sft) -> int:
    """Least tau such that every ordered pair of admissible words can be
    joined by a gap word of length <= tau.  The shortest gap word u with
    a u b admissible has length min d[s, b] over the successors s of a."""
    if not is_irreducible(sft):
        raise WeakSpecificationError("weak specification fails")
    d = sft._distances
    return max(int(d[row].min(axis=0).max()) for row in sft.transitions)


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
    cur, b = v[-1], w[0]
    A, to_b = sft.transitions, sft._distances[:, b]
    # Each next symbol is the least successor from which b lies exactly
    # the remaining number of transitions away; none lies closer, or a
    # shorter gap would exist.
    u = []
    for rem in range(int(to_b[A[cur]].min()), 0, -1):
        cur = int(np.flatnonzero(A[cur] & (to_b == rem))[0])
        u.append(cur)
    return tuple(u)


def _glue_blocks(sft: Sft, blocks):
    """(word, starts): the blocks in order, consecutive ones joined by
    their glue_words gap; block j begins at word[starts[j]]."""
    word, starts = [], []
    for block in blocks:
        if word:
            word.extend(glue_words(sft, (word[-1],), (block[0],)))
        starts.append(len(word))
        word.extend(block)
    return tuple(word), starts


def _close_word(sft: Sft, w) -> tuple:
    """w followed by the glue_words gap that closes it into a cycle; w
    itself when w[-1] -> w[0] is allowed, also on a reducible shift, where
    glue_words raises."""
    w = tuple(w)
    if sft.allowed(w[-1], w[0]):
        return w
    return w + glue_words(sft, (w[-1],), (w[0],))


def _primitive_root(word: tuple) -> tuple:
    """Shortest word whose repetition gives `word`."""
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def _rotate(w: tuple, r: int) -> tuple:
    r %= len(w)
    return w[r:] + w[:r]


def _repeat(w: tuple, start: int, n: int) -> tuple:
    """w[(start + i) mod len(w)] for 0 <= i < n; () when n <= 0."""
    if n <= 0:
        return ()
    r = start % len(w)
    return (w * ((r + n) // len(w) + 1))[r:r + n]


def _least_rotation(w: tuple) -> int:
    """Booth's algorithm: the least r with _rotate(w, r) lexicographically
    least, in O(len(w)); f is the failure function of s = w + w from k."""
    s = w + w
    f = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        c = s[j]
        i = f[j - k - 1]
        while i != -1 and c != s[k + i + 1]:
            if c < s[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if c != s[k + i + 1]:  # here i == -1
            if c < s[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


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
            lt = _rotate(lt, 1)
            cs += 1
        while co and co[-1] == rt[-1]:
            co = co[:-1]
            rt = _rotate(rt, -1)
        if not co:
            # boundary between the two tail regions sits at cs; slide it
            # left while the two regions agree on the boundary symbol.
            if lt != rt:
                guard = math.lcm(len(lt), len(rt))
                steps = 0
                while rt[-1] == lt[-1] and steps < guard:
                    cs -= 1
                    lt = _rotate(lt, -1)
                    rt = _rotate(rt, -1)
                    steps += 1
            if lt == rt:
                # fully periodic sequence: x_k = w[(k - cs) mod n]; pick the
                # lexicographically minimal rotation and fold the phase.
                w = lt
                n = len(w)
                best_r = _least_rotation(w)
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
        """Symbols at coordinates a..b-1: a slice of the left tail's
        repetition, of the core and of the right tail's, in that order."""
        cs = self.core_start
        ce = cs + len(self.core)
        lo, hi = max(a, cs), min(b, ce)
        return (_repeat(self.left_tail, a - cs, min(b, cs) - a)
                + self.core[lo - cs:max(lo, hi) - cs]
                + _repeat(self.right_tail, max(a, ce) - ce, b - max(a, ce)))

    def shift(self, m: int) -> "BiWord":
        """sigma^m: (sigma^m x)_k = x_{k+m}."""
        return BiWord(self.left_tail, self.core, self.right_tail,
                      self.core_start - m)

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
