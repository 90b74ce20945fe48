"""Entropy density of ergodic measures: separated generic sets, gluing of
generic blocks with counting certificates, and an end-to-end ergodic
approximation of a finite convex combination of Markov measures.

The approximating ergodic measure is realized as an explicit finite-state
block Markov chain (states = (component, position-in-block, symbol), plus
deterministic glue states), so its ergodicity and entropy are exactly
computable rather than abstract limits.  Separated generic sets are
counted exactly in closed form over pair statistics (irreducible 2-symbol
base shifts: a word is fixed by its runs, so each (#1, #11) cell is a sum
of products of two binomials), giving integer-arithmetic #Gamma >= e^{t h}
certificates; members are sampled uniformly from the same cells, and
weak* closeness of members is verified on seeded samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ldp import (EmpiricalMeasure, WeakStarConfig, empirical_measure,
                  weak_star_distance)
from .sft import (BiWord, Sft, WeakSpecificationError, glue_words,
                  is_irreducible, min_gap_bound)
from .suspension import (OrbitSegment, Roof, SuspPoint, Suspension,
                         _fiber_times, _locate)
from .thermo import MarkovMeasure, SuspendedMeasure

__all__ = [
    "ApproxTarget",
    "SeparatedSet",
    "GluedFamily",
    "empirical_measure",
    "separated_generic_set",
    "glue_generic_family",
    "ergodic_approximation",
    "glue_countable",
    "mixture_statistics",
    "chain_statistics",
]

# separation scale: two orbits are 3*eps-separated when their words differ
# within the symbolic window, with eps = 1/16 (a coordinate disagreement
# costs at least 2^-2 = 4*eps > 3*eps in the BW metric at the aligned time)
EPS_SEP = 1.0 / 16.0


@dataclass(frozen=True)
class ApproxTarget:
    """lambda = sum a_i mu_i with mu_i ergodic Markov measures."""

    components: tuple  # ((MarkovMeasure, weight), ...)
    eta: float

    def __post_init__(self):
        comps = tuple((m, float(a)) for m, a in self.components)
        object.__setattr__(self, "components", comps)
        s = sum(a for _, a in comps)
        if abs(s - 1.0) > 1e-9 or any(not (0 < a < 1) for _, a in comps) \
                and len(comps) > 1:
            raise ValueError("weights must lie in (0,1) and sum to 1")
        if not (self.eta > 0):
            raise ValueError("eta must be positive")


@dataclass(frozen=True)
class SeparatedSet:
    """A (t, 3 eps)-separated set of generic words, held as a statistics
    box counted exactly in closed form, plus sampled members."""

    length: int
    count: int  # exact number of words in the box
    log_count: float
    h_target: float
    t: float
    box: dict
    sampled_D: tuple  # weak* distances of sampled members to the target

    @property
    def certificate_ok(self) -> bool:
        return self.log_count >= self.t * self.h_target


def _compositions(m: int, k: int) -> int:
    """Number of ways to write m as an ordered sum of k positive parts."""
    return math.comb(m - 1, k - 1) if m >= k >= 1 else int(m == k == 0)


def _box_cells(sft: Sft, n: int, box: dict):
    """The admissible length-n words in the statistics box, grouped into
    cells (weight, n1, n11, z, first symbol) by their run structure.

    On an irreducible 2-symbol SFT a word is fixed by its runs: its n1 ones
    form r = n1 - n11 runs, its zeros fill z in {r-1, r, r+1} runs, which
    alternate starting from the first symbol.  A cell holds
    weight = C(n1-1, r-1) C(n0-1, z-1) words.  A forbidden 00 keeps only
    zero runs of length 1 (n0 = z); a forbidden 11 keeps only n11 = 0.
    An irreducible 2-symbol SFT never forbids 01 or 10."""
    pi1, p11, zeta = box["pi1"], box["p11"], box["zeta"]
    allow00, allow11 = sft.allowed(0, 0), sft.allowed(1, 1)
    cells = []
    for n1 in range(n + 1):
        if abs(n1 / n - pi1) > zeta:
            continue
        n0 = n - n1
        for n11 in range(max(0, n1 - 1) + 1):
            if abs(n11 / (n - 1) - p11) > zeta or (n11 and not allow11):
                continue
            r = n1 - n11
            for z, first in ((r - 1, 1), (r, 0), (r, 1), (r + 1, 0)):
                if z < 0 or (z != n0 and not allow00):
                    continue
                weight = _compositions(n1, r) * _compositions(n0, z)
                if weight:
                    cells.append((weight, n1, n11, z, first))
    return cells


def _randrange_big(rng, total: int) -> int:
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


def _random_composition(rng, m: int, k: int) -> list:
    """Uniform composition of m into k positive parts (uniform cut points)."""
    if k == 0:
        return []
    cuts = np.sort(rng.choice(m - 1, k - 1, replace=False)) + 1
    return np.diff(cuts, prepend=0, append=m).tolist()


def _sample_from_box(cells, n: int, rng, k: int):
    """k uniform samples from the length-n words of a box given by its
    cells: pick a cell by weight, split its ones and zeros into runs by
    uniform compositions, and interleave the runs."""
    total = sum(c[0] for c in cells)
    words = []
    for _ in range(k):
        r = _randrange_big(rng, total)
        for weight, n1, n11, z, first in cells:
            if r < weight:
                break
            r -= weight
        runs = {1: iter(_random_composition(rng, n1, n1 - n11)),
                0: iter(_random_composition(rng, n - n1, z))}
        word = []
        sym = first
        while len(word) < n:
            word.extend([sym] * next(runs[sym]))
            sym = 1 - sym
        words.append(tuple(word))
    return words


def separated_generic_set(system: Suspension, mu: MarkovMeasure,
                          h: float, t: float, eta: float, seed: int,
                          cfg: WeakStarConfig = WeakStarConfig()
                          ) -> SeparatedSet:
    """Gamma: a (t, 3*EPS_SEP)-separated set of length-n words whose
    empirical statistics lie in a box around mu's pair statistics, with
    exact count >= e^{t h}.  Irreducible 2-symbol base shifts only: the
    box is counted and sampled in closed form from the words' runs, as
    (#1, #11) determines all pair counts."""
    if system.sft.n_symbols != 2:
        raise NotImplementedError(
            "exact box counting implemented for 2-symbol alphabets")
    if not is_irreducible(system.sft):
        raise WeakSpecificationError(
            "exact box counting needs an irreducible base shift")
    if not (h < _flow_entropy(mu, system.roof)):
        raise ValueError("h must be strictly below the measure's entropy")
    mean_roof = float(np.dot(mu.stationary,
                             [system.roof[i] for i in range(2)]))
    n = int(math.floor(t / mean_roof + 1e-9))
    if n < max(16, int(4.0 / eta)):
        raise ValueError("increase t")
    pi1 = float(mu.stationary[1])
    box = {"pi1": pi1, "p11": float(pi1 * mu.transition[1, 1]),
           "zeta": eta / 8.0}
    cells = _box_cells(system.sft, n, box)
    count = sum(c[0] for c in cells)
    if count == 0:
        raise ValueError("increase t")
    log_count = math.log(count)  # math.log takes ints of any size
    rng = np.random.default_rng(seed)
    sample = _sample_from_box(cells, n, rng, k=min(20, count))
    dists = []
    target = _markov_statistics(mu, system.roof, cfg)
    for w in sample:
        x = SuspPoint(BiWord.periodic(_close_word(system.sft, w)), 0.0)
        e = empirical_measure(system, x, float(t), cfg)
        dists.append(weak_star_distance(e, target, cfg))
    return SeparatedSet(n, count, log_count, h, t, box, tuple(dists))


def _close_word(sft: Sft, w):
    w = tuple(w)
    if sft.allowed(w[-1], w[0]):
        return w
    return w + glue_words(sft, (w[-1],), (w[0],))


def _flow_entropy(mu: MarkovMeasure, roof: Roof) -> float:
    mean = float(np.dot(mu.stationary,
                        [roof[i] for i in range(len(roof))]))
    return mu.entropy() / mean


def _markov_statistics(mu: MarkovMeasure, roof: Roof,
                       cfg: WeakStarConfig) -> EmpiricalMeasure:
    from .ldp import measure_statistics
    return measure_statistics(SuspendedMeasure(mu, roof), cfg)


def mixture_statistics(target: ApproxTarget, roof: Roof,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Statistics of lambda = sum a_i mu_i at the flow level (time-average
    mixture weights are the a_i)."""
    stats = [(a, _markov_statistics(m, roof, cfg))
             for m, a in target.components]
    freqs = {k: {} for k in range(1, cfg.depth + 1)}
    hist = None
    for a, st in stats:
        for k in freqs:
            for w, f in st.freqs[k].items():
                freqs[k][w] = freqs[k].get(w, 0.0) + a * f
        hist = a * st.heights if hist is None else hist + a * st.heights
    n_sym = stats[0][1].n_symbols
    return EmpiricalMeasure(freqs, hist, n_sym)


def mixture_entropy(target: ApproxTarget, roof: Roof) -> float:
    """Flow entropy of the mixture (affine in the measure)."""
    return sum(a * _flow_entropy(m, roof) for m, a in target.components)


# ----------------------------------------------------------------------
# gluing generic families
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GluedFamily:
    t: float
    m: int
    block_lengths: tuple
    gammas: tuple  # SeparatedSet per component
    k_partition: int
    C: float  # k^p
    log_Em: float  # certified lower bound on log #E_m
    block_starts: tuple
    c: float  # glued block time
    sample_block_D: tuple  # D(E_c(f_{b_k} y), lambda) on sampled blocks
    sample_separations: tuple  # BW distances of sampled pairs
    eps_half: float


def glue_generic_family(system: Suspension, target: ApproxTarget,
                        t: float, m: int, seed: int,
                        cfg: WeakStarConfig = WeakStarConfig()
                        ) -> GluedFamily:
    """E_m: glue m rounds of one generic block per component, with the
    C^{-m} Pi (#Gamma_i)^m counting certificate (C = k^p, k the
    transition-time partition count) and sampled 5*eta block checks."""
    comps = target.components
    p = len(comps)
    if p < 2:
        raise ValueError("need at least 2 components")
    eta = target.eta
    tau = min_gap_bound(system.sft)
    maxr = system.roof.max
    M_diam = 2.0 * sum(2.0 ** (-k) for k in range(1, cfg.depth + 1)) \
        + 2.0 * 2.0 ** (-(cfg.depth + 1))
    overhead = p * (tau + 1) * maxr
    if overhead / t >= eta / M_diam:
        raise ValueError(
            f"regime violation: p*(tau+1)*max_r/t = {overhead / t:.4f} "
            f">= eta/M = {eta / M_diam:.4f}; increase t")
    rng = np.random.default_rng(seed)
    gammas = []
    lengths = []
    for i, (mu, a) in enumerate(comps):
        t_i = a * t
        h_i = _flow_entropy(mu, system.roof) - eta / 2.0
        g = separated_generic_set(system, mu, max(h_i, 0.0), t_i, eta,
                                  seed + i, cfg)
        gammas.append(g)
        lengths.append(g.length)
    zeta = (EPS_SEP / 2.0) * system.roof.min
    k_part = max(1, math.ceil(tau * maxr / zeta))
    C = float(k_part) ** p
    log_Em = m * (sum(g.log_count for g in gammas) - math.log(C))

    # sample members of E_m: pick one word per (round, component), glue
    cells = [_box_cells(system.sft, g.length, g.box) for g in gammas]

    def sample_member():
        word = []
        starts = []
        for _ in range(m):
            for g, c in zip(gammas, cells):
                w = _sample_from_box(c, g.length, rng, 1)[0]
                if word:
                    gap = glue_words(system.sft, (word[-1],), (w[0],))
                    word.extend(gap)
                starts.append(len(word))
                word.extend(w)
        word = tuple(word)
        times = _fiber_times(word.__getitem__, system.roof.values, 0,
                             len(word))
        return word, starts, times

    lam_stats = mixture_statistics(target, system.roof, cfg)
    block_D = []
    members = []
    for _ in range(3):
        word, starts, times = sample_member()
        members.append((word, starts, times))
        x = SuspPoint(BiWord.periodic(_close_word(system.sft, word)), 0.0)
        # c: duration of one glued round (all p blocks and gaps)
        round_end = starts[p - 1] + gammas[p - 1].length \
            if p > 1 else len(word)
        c_time = times[round_end]
        for kk in range(min(m, 2)):
            b_time = times[starts[kk * p]]
            e = empirical_measure(system, system.flow(x, b_time),
                                  c_time, cfg)
            block_D.append(weak_star_distance(e, lam_stats, cfg))
    # sampled separation: distinct members differ somewhere; verify the
    # BW distance at the divergence time exceeds eps/2
    seps = []
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            wa, _, ta = members[a]
            wb, _, tb = members[b]
            j = next((i for i in range(min(len(wa), len(wb)))
                      if wa[i] != wb[i]), None)
            if j is None:
                continue
            xa = SuspPoint(BiWord.periodic(_close_word(system.sft, wa)), 0.0)
            xb = SuspPoint(BiWord.periodic(_close_word(system.sft, wb)), 0.0)
            d = system.bw_distance(system.flow(xa, ta[j]),
                                   system.flow(xb, tb[j]))
            seps.append(d)
    _, starts0, times0 = members[0]
    b_times = [times0[starts0[kk * p]] for kk in range(m)]
    c_time = times0[starts0[p - 1] + gammas[p - 1].length]
    return GluedFamily(t, m, tuple(lengths), tuple(gammas), k_part, C,
                       log_Em, tuple(b_times), c_time,
                       tuple(block_D), tuple(seps), EPS_SEP / 2.0)


# ----------------------------------------------------------------------
# ergodic approximation
# ----------------------------------------------------------------------


def _build_block_chain(system: Suspension, target: ApproxTarget, L: int):
    """Block Markov chain: component i runs ceil(a_i L) positions of its
    kernel, then a deterministic glue path leads to the next component's
    fixed start symbol.  Returns (MarkovMeasure on chain states,
    emission array, roof array)."""
    sft = system.sft
    comps = target.components
    p = len(comps)
    starts = []
    for mu, _ in comps:
        starts.append(int(np.argmax(mu.stationary)))
    states = []  # (kind, i, pos, symbol) kind 0 = block, 1 = glue
    index = {}

    def add(st):
        if st not in index:
            index[st] = len(states)
            states.append(st)
        return index[st]

    n_sym = sft.n_symbols
    lengths = [max(2, int(round(a * L))) for _, a in comps]
    for i, (mu, a) in enumerate(comps):
        for j in range(lengths[i]):
            for s in range(n_sym):
                if j == 0 and s != starts[i]:
                    continue
                add((0, i, j, s))
    # transitions
    trans = {}

    def set_p(a_st, b_st, pr):
        ia, ib = add(a_st), add(b_st)
        trans.setdefault(ia, {})[ib] = trans.get(ia, {}).get(ib, 0.0) + pr

    for i, (mu, a) in enumerate(comps):
        Li = lengths[i]
        nxt = (i + 1) % p
        for j in range(Li):
            for s in range(n_sym):
                st = (0, i, j, s)
                if st not in index:
                    continue
                if j < Li - 1:
                    for s2 in range(n_sym):
                        pr = mu.transition[s, s2]
                        if pr > 0:
                            set_p(st, (0, i, j + 1, s2), pr)
                else:
                    # deterministic glue to the next component's start
                    tgt = starts[nxt]
                    if sft.allowed(s, tgt):
                        gap = ()
                    else:
                        gap = glue_words(sft, (s,), (tgt,))
                    if gap:
                        prev = st
                        for gpos, gs in enumerate(gap):
                            gst = (1, i, (j, gpos, s), gs)
                            set_p(prev, gst, 1.0)
                            prev = gst
                        set_p(prev, (0, nxt, 0, tgt), 1.0)
                    else:
                        set_p(st, (0, nxt, 0, tgt), 1.0)
    n = len(states)
    P = np.zeros((n, n))
    for ia, row in trans.items():
        for ib, pr in row.items():
            P[ia, ib] = pr
    emit = np.array([st[3] for st in states])
    roofs = np.array([system.roof[int(e)] for e in emit])
    # the chain is periodic (deterministic position cycling), so the
    # stationary vector comes from a direct linear solve, not iteration
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # pragma: no cover
        pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    chain = MarkovMeasure(P, pi, words=[(int(e),) for e in emit])
    return chain, emit, roofs


def chain_statistics(chain: MarkovMeasure, roofs: np.ndarray,
                     cfg: WeakStarConfig = WeakStarConfig()
                     ) -> EmpiricalMeasure:
    """Residence-weighted symbol-word frequencies of a hidden-Markov
    emission chain (exact transfer-operator computation)."""
    P = chain.transition
    pi = chain.stationary
    emit = np.array([w[0] for w in chain.words])
    mean_roof = float(np.dot(pi, roofs))
    n_sym = int(emit.max()) + 1
    freqs = {}
    # vectors nu_w over states: probability of seeing word w starting in
    # each state, weighted by pi * roof at the first state
    base = {(): pi * roofs / mean_roof}
    for k in range(1, cfg.depth + 1):
        layer = {}
        for w, vec in base.items():
            for s in range(n_sym):
                mask = (emit == s).astype(float)
                if len(w) == 0:
                    nv = vec * mask
                else:
                    nv = (vec @ P) * mask
                if nv.sum() > 1e-300:
                    layer[w + (s,)] = nv
        freqs[k] = {w: float(v.sum()) for w, v in layer.items()}
        base = layer
    hist = np.full(cfg.height_bins, 1.0 / cfg.height_bins)
    return EmpiricalMeasure(freqs, hist, n_sym)


@dataclass(frozen=True)
class ApproximationReport:
    nu: MarkovMeasure
    roofs: np.ndarray
    eta: float
    D: float
    h_mu: float
    h_nu: float
    L: int
    count_certificate: dict
    block_checks: tuple

    def to_json(self) -> dict:
        return {
            "eta": self.eta,
            "D": self.D,
            "h_mu": self.h_mu,
            "h_nu": self.h_nu,
            "count_certificate": self.count_certificate,
            "block_checks": list(self.block_checks),
        }


def ergodic_approximation(system: Suspension, target: ApproxTarget,
                          cfg: WeakStarConfig = WeakStarConfig(),
                          seed: int = 0) -> ApproximationReport:
    """An ergodic Markov measure nu (block chain) with D(lambda, nu) < eta
    and |h_nu - h_lambda| < eta, plus the gluing count certificate."""
    eta = target.eta
    comps = target.components
    lam_stats = mixture_statistics(target, system.roof, cfg)
    h_mu = mixture_entropy(target, system.roof)
    if len(comps) == 1:
        mu = comps[0][0]
        roofs = np.array([system.roof[i]
                          for i in range(system.sft.n_symbols)])
        return ApproximationReport(
            mu, roofs, eta, 0.0, h_mu, h_mu, 0,
            {"log_Em_rate": h_mu, "bound": h_mu, "note": "single ergodic "
             "component: target returned unchanged"}, ())
    tau = min_gap_bound(system.sft)
    overhead = len(comps) * (tau + 1) * system.roof.max
    best = None
    for L in (100, 200, 400, 800):
        chain, emit, roofs = _build_block_chain(system, target, L)
        stats = chain_statistics(chain, roofs, cfg)
        D = weak_star_distance(stats, lam_stats, cfg)
        h_nu = chain.entropy() / float(np.dot(chain.stationary, roofs))
        if best is None or D < best[1]:
            best = (L, D, h_nu, chain, roofs)
        if D < eta and abs(h_nu - h_mu) < eta:
            break
    L, D, h_nu, chain, roofs = best
    if not (D < eta and abs(h_nu - h_mu) < eta):
        min_eta = max(D, abs(h_nu - h_mu)) * 1.05
        raise ValueError(
            f"infeasible eta: switching overhead {overhead}/L limits the "
            f"achievable tolerance; minimal achievable eta ~ {min_eta:.4f}")
    # counting certificate from the glued family at a t in the valid regime
    M_diam = 2.0 * sum(2.0 ** (-k) for k in range(1, cfg.depth + 1)) \
        + 2.0 * 2.0 ** (-(cfg.depth + 1))
    t_glue = max(400.0, 2.0 * overhead * M_diam / eta)
    fam = glue_generic_family(system, target, t_glue, m=3, seed=seed,
                              cfg=cfg)
    rate = fam.log_Em / (fam.t * fam.m)
    bound = h_mu - eta - (sum(_flow_entropy(m_, system.roof)
                              for m_, _ in comps)
                          + math.log(fam.C)) / fam.t
    return ApproximationReport(
        chain, roofs, eta, D, h_mu, h_nu, L,
        {"log_Em_rate": rate, "bound": bound, "k": fam.k_partition,
         "C": fam.C, "t": fam.t, "m": fam.m},
        tuple(fam.sample_block_D))


# ----------------------------------------------------------------------
# countable gluing
# ----------------------------------------------------------------------


def glue_countable(system: Suspension, segs, delta: float, depth: int):
    """Glue the first `depth` segments of a stream so that deepening never
    changes already-emitted coordinates; returns (SuspPoint, emitted_end)
    where coordinates < emitted_end are final for all larger depths."""
    import itertools
    head = list(itertools.islice(iter(segs), depth))
    if len(head) < depth:
        raise ValueError("stream exhausted before requested depth")
    res = system.glue_segments(head, delta)
    point = res.point
    # emitted coordinates run through the end of the last segment's
    # window: locate the last block's starting coordinate from its flow
    # start time (s_{d-1} - t_{d-1}), then add its window length
    m = system.margin(delta)
    last = head[-1]
    roof = system.roof.values
    c, _ = _locate(last.start.base.symbol_at, roof,
                   last.start.height + last.duration)
    start_time = res.block_starts[-1] - last.duration
    shift, _ = _locate(point.base.symbol_at, roof,
                       point.height + start_time)
    emitted_end = shift + c + m + 1
    return point, emitted_end
