"""Reference gap constants by boolean matrix powers: irreducibility by a
frontier of boolean products, the shortest gap of each symbol pair as the
least k with a path of exactly k + 1 transitions, and gap words built
greedily from the powers.  Slower than the shortest-path table of
`thermoflow.sft`, and independent of it."""

import functools

import numpy as np

from thermoflow.sft import WeakSpecificationError, is_admissible_word


@functools.lru_cache(maxsize=None)
def bool_powers(sft):
    """[A^0, ..., A^(2n+1)] over the boolean semiring: (A^k)[i, j] iff a
    path i -> j with exactly k transitions exists."""
    powers = [np.eye(sft.n_symbols, dtype=bool)]
    while len(powers) <= 2 * sft.n_symbols + 1:
        powers.append((powers[-1] @ sft.transitions).astype(bool))
    return powers


def is_irreducible(sft) -> bool:
    A = sft.transitions
    reach = A.copy()
    frontier = A.copy()
    for _ in range(sft.n_symbols):
        frontier = (frontier @ A) & ~reach
        if not frontier.any():
            break
        reach |= frontier
    return bool(reach.all())


def pair_gap_length(sft, a: int, b: int) -> int:
    """Length of the shortest gap word u with a u b admissible, or -1."""
    n = sft.n_symbols
    powers = bool_powers(sft)
    for k in range(2 * n):
        if powers[k + 1][a, b]:
            return k
    return -1


def min_gap_bound(sft) -> int:
    if not is_irreducible(sft):
        raise WeakSpecificationError("weak specification fails")
    return max(pair_gap_length(sft, a, b)
               for a in range(sft.n_symbols) for b in range(sft.n_symbols))


def glue_words(sft, v, w) -> tuple:
    v, w = tuple(v), tuple(w)
    if not v or not w:
        raise ValueError("v and w must be nonempty admissible words")
    if not (is_admissible_word(sft, v) and is_admissible_word(sft, w)):
        raise ValueError("v and w must be admissible")
    if not is_irreducible(sft):
        raise WeakSpecificationError("weak specification fails")
    a, b = v[-1], w[0]
    L = pair_gap_length(sft, a, b)
    powers = bool_powers(sft)
    # at each position the least successor from which b is reachable in
    # exactly the remaining number of transitions
    u = []
    cur = a
    for pos in range(L):
        rem = L - pos
        cur = next(s for s in range(sft.n_symbols)
                   if sft.allowed(cur, s) and powers[rem][s, b])
        u.append(cur)
    return tuple(u)
