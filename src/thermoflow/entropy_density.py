"""Entropy density of ergodic measures: separated generic sets, gluing of
generic blocks with counting certificates, and an end-to-end ergodic
approximation of a finite convex combination of Markov measures.

The approximating ergodic measure is realized as an explicit finite-state
block Markov chain (states = (component, position-in-block, symbol), plus
deterministic glue states), held as a `SuspendedMeasure` like every other
Markov measure of the library, so its statistics and entropy come exactly
from the one state-path table of `thermo` rather than as abstract limits.
Separated generic sets are counted exactly in closed form over pair
statistics (irreducible 2-symbol base shifts: a word is fixed by its runs,
so each (#1, #11) cell is a sum of products of two binomials), giving
integer-arithmetic #Gamma >= e^{t h} certificates.  Seeded members are
drawn uniformly from the same cells as one array batch, and their closed
words go as gathered windows straight to the array walk `_pieces` (no
BiWord per member), meeting the target in one signed weak* pass.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .ldp import (EmpiricalMeasure, WeakStarConfig, _segment_distances,
                  measure_statistics, weak_star_distance)
from .sft import (Sft, WeakSpecificationError, _close_word, _glue_blocks,
                  glue_words, is_irreducible, min_gap_bound)
from .suspension import (_BW_MAX_SHIFT, Roof, Suspension, _bw_distances,
                         _fiber_times, _locate)
from .thermo import (MarkovMeasure, NonConvergenceError, SuspendedMeasure,
                     _check_support, entropy_and_mean)

__all__ = [
    "ApproxTarget",
    "SeparatedSet",
    "GluedFamily",
    "ApproximationReport",
    "separated_generic_set",
    "glue_generic_family",
    "ergodic_approximation",
    "glue_countable",
    "mixture_statistics",
    "mixture_entropy",
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
    diagnostics: dict  # box cells, members sampled, draws discarded
    # the cells of `_box_cells`, kept for sampling more members
    cells: list = field(default_factory=list, compare=False, repr=False)

    @property
    def certificate_ok(self) -> bool:
        return self.log_count >= self.t * self.h_target


def _weak_star_diameter(cfg: WeakStarConfig) -> float:
    """The largest weak* distance, 2 sum_k 2^-k + 2 2^-(depth+1) =
    2 - 2^-depth: each frequency table has total variation at most 2."""
    return 2.0 - 2.0 ** -cfg.depth


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


def _randrange_big(rng, total: int, k: int) -> tuple:
    """(k uniform integers in [0, total), the draws discarded): a draw joins
    62-bit blocks masked to the bits of total and is kept when below total,
    with probability > 1/2, so each round draws twice the number missing."""
    bits, draws, drawn = total.bit_length(), [], 0
    while m := 2 * (k - len(draws)):
        blocks = rng.integers(0, 1 << 62, ((bits + 61) // 62, m))
        r = sum(b << 62 * i for i, b in enumerate(blocks.astype(object)))
        r &= (1 << bits) - 1
        draws += r[r < total][:k - len(draws)].tolist()
        drawn += m
    return draws, drawn - k


def _box_words(cells, n: int, rng, k: int) -> tuple:
    """(k uniform length-n words of the box given by its cells, the draws
    `_randrange_big` discarded): the draws pick cells on the cumulative
    weights.  In a row, column c < n is the c-th one and n + c the c-th
    zero, each with the gap after it.  One argsort of uniform keys cuts a
    uniform r - 1 (z - 1) of the ones' (zeros') gaps, r = n1 - n11; the
    runs alternate from the first symbol, so one stable argsort of
    2 * run + parity lays them out."""
    cum = list(itertools.accumulate(c[0] for c in cells))
    draws, rejected = _randrange_big(rng, cum[-1], k)
    n1, n11, z, first = np.array([cells[bisect.bisect_right(cum, r)][1:]
                                  for r in draws]).reshape(-1, 4).T[:, :, None]
    col = np.arange(2 * n)
    zero = col >= n
    size = np.where(zero, n - n1, n1)
    keys = np.where(col % n < size - 1, rng.random((k, 2 * n)) + 2 * zero, 4.0)
    rank = np.empty((k, 2 * n), dtype=np.int64)
    rank[np.arange(k)[:, None], np.argsort(keys, axis=1)] = col
    cut = (rank < np.where(zero, np.maximum(n1 - 1, 0) + z - 1,
                           n1 - n11 - 1)).reshape(k, 2, n)
    run = (np.cumsum(cut, axis=2) - cut).reshape(k, 2 * n)
    order = np.argsort(np.where(col % n < size, 2 * run + (zero == first),
                                2 * n), axis=1, kind="stable")
    return list(map(tuple, (order[:, :n] < n).astype(int).tolist())), rejected


def _min_block_length(eta: float) -> int:
    """The fewest symbols a separated generic set's words may have."""
    return max(16, int(4.0 / eta))


def separated_generic_set(system: Suspension, mu: MarkovMeasure,
                          h: float, t: float, eta: float, seed: int,
                          cfg: WeakStarConfig = WeakStarConfig()
                          ) -> SeparatedSet:
    """Gamma: a (t, 3*EPS_SEP)-separated set of length-n words whose
    empirical statistics lie in a box around mu's pair statistics, with
    exact count >= e^{t h}.  Irreducible 2-symbol base shifts only: the
    box is counted and sampled in closed form from the words' runs, as
    (#1, #11) determines all pair counts."""
    for name, x in (("t", t), ("eta", eta)):
        if not 0 < x < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {x}")
    if system.sft.n_symbols != 2:
        raise NotImplementedError(
            "exact box counting implemented for 2-symbol alphabets")
    if not is_irreducible(system.sft):
        raise WeakSpecificationError(
            "exact box counting needs an irreducible base shift")
    _check_support(system.sft, mu)
    flow_mu = SuspendedMeasure(mu, system.roof)
    if not (h < entropy_and_mean(flow_mu, None)[0]):
        raise ValueError("h must be strictly below the measure's entropy")
    n = int(math.floor(t / flow_mu.mean_roof + 1e-9))
    if n < _min_block_length(eta):
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
    sample, rejected = _box_words(cells, n, rng, min(20, count))
    dists = _segment_distances(
        system, [_close_word(system.sft, w) for w in sample],
        [0] * len(sample), float(t), measure_statistics(flow_mu, cfg), cfg)
    return SeparatedSet(n, count, log_count, h, t, box, tuple(dists.tolist()),
                        dict(cells=len(cells), sampled=len(sample),
                             rejected=rejected), cells)


def _flow_entropy(mu: MarkovMeasure, roof: Roof) -> float:
    return entropy_and_mean(SuspendedMeasure(mu, roof), None)[0]


def mixture_statistics(target: ApproxTarget, roof: Roof,
                       cfg: WeakStarConfig = WeakStarConfig()
                       ) -> EmpiricalMeasure:
    """Statistics of lambda = sum a_i mu_i at the flow level (time-average
    mixture weights are the a_i)."""
    stats = [(a, measure_statistics(SuspendedMeasure(m, roof), cfg))
             for m, a in target.components]
    return EmpiricalMeasure(np.concatenate([st.words for _, st in stats]),
                            np.concatenate([a * st.weights
                                            for a, st in stats]),
                            sum(a * st.heights for a, st in stats))


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
    M_diam = _weak_star_diameter(cfg)
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

    # sample 3 members of E_m: one batch of 3m words per component;
    # member r glues blocks r m .. r m + m - 1 of each, round by round
    blocks = [_box_words(g.cells, g.length, rng, 3 * m)[0] for g in gammas]
    members = []
    for r in range(3):
        word, starts = _glue_blocks(system.sft, [
            b[r * m + kk] for kk in range(m) for b in blocks])
        members.append((word, starts, _fiber_times(
            word.__getitem__, system.roof, 0, len(word))))
    closed = [_close_word(system.sft, w) for w, _, _ in members]
    # D(E_c(f_{b_k} y), lambda) on the first two rounds of each member:
    # the walk starts at the floor of the round's first block and lasts c,
    # the duration of one glued round (all p blocks and gaps)
    blocks, c_times = [], []
    for (_, starts, times), w in zip(members, closed):
        for kk in range(min(m, 2)):
            blocks.append((w, starts[kk * p]))
            c_times.append(times[starts[p - 1] + gammas[p - 1].length])
    block_D = _segment_distances(
        system, *zip(*blocks), c_times,
        mixture_statistics(target, system.roof, cfg), cfg)
    # sampled separation: distinct members differ somewhere; the BW
    # distance at the floor of the first fiber where their words differ,
    # read from windows of the closed words, must exceed eps/2
    window = np.arange(-_BW_MAX_SHIFT, 32 + _BW_MAX_SHIFT)
    pairs = []
    for (a, ca), (b, cb) in itertools.combinations(zip(members, closed), 2):
        j = next((i for i, (x, y) in enumerate(zip(a[0], b[0])) if x != y),
                 None)
        if j is not None:
            pairs.append([np.take(c, j + window, mode="wrap")
                          for c in (ca, cb)])
    words = np.array(pairs, dtype=int).reshape(-1, 2, len(window))
    zero = np.zeros(len(pairs))
    seps = _bw_distances(words, np.arange(len(pairs)), zero, zero,
                         32).tolist()
    _, starts0, times0 = members[0]
    b_times = [times0[starts0[kk * p]] for kk in range(m)]
    return GluedFamily(t, m, tuple(lengths), tuple(gammas), k_part, C,
                       log_Em, tuple(b_times), c_times[0],
                       tuple(block_D.tolist()), tuple(seps), EPS_SEP / 2.0)


# ----------------------------------------------------------------------
# ergodic approximation
# ----------------------------------------------------------------------


def _build_block_chain(system: Suspension, target: ApproxTarget,
                       L: int) -> SuspendedMeasure:
    """Block chain: component i runs L_i = max(2, round(a_i L)) positions
    of its kernel from its likeliest symbol, then a glue word leads on to
    the next component's.  Block state (i, j, s) sits at
    first[i] + (j and 1 + (j-1) n + s), the glue states after all of them;
    each state shows and lasts one symbol.  The stationary vector is the
    visit frequencies of one cycle, so no n x n solve is made."""
    n, comps = system.sft.n_symbols, target.components
    starts = [int(np.argmax(mu.stationary)) for mu, _ in comps]
    lengths = [max(2, int(round(a * L))) for _, a in comps]
    first = np.cumsum([0] + [1 + (Li - 1) * n for Li in lengths]).tolist()
    emit = [s for st, Li in zip(starts, lengths)
            for s in [st] + list(range(n)) * (Li - 1)]
    src, dst, prob, pi, glue_pi = [], [], [], [], []
    for i, ((mu, _), Li) in enumerate(zip(comps, lengths)):
        # visit frequencies: position j holds the law of the walk j steps
        # from the start, each glue state the mass of the symbol it leaves
        law = np.eye(n)[starts[i]]
        pi.append([1.0])
        for _ in range(Li - 1):
            law = np.bincount(mu.dst, law[mu.src] * mu.prob, n)
            pi.append(law)
        # kernel steps (j, a) -> (j + 1, b) for j < L_i - 1
        j = np.repeat(np.arange(Li - 1), len(mu.src))
        a, b, p = (np.tile(x, Li - 1) for x in (mu.src, mu.dst, mu.prob))
        keep = (j > 0) | (a == starts[i])
        j, a, b = j[keep], a[keep], b[keep]
        src.append(first[i] + np.where(j > 0, 1 + (j - 1) * n + a, 0))
        dst.append(first[i] + 1 + j * n + b)
        prob.append(p[keep])
        # from each last symbol along its glue word to the next start
        nxt = (i + 1) % len(comps)
        for last in range(n):
            path = [first[i] + 1 + (Li - 2) * n + last]
            for g in glue_words(system.sft, (last,), (starts[nxt],)):
                path.append(len(emit))
                emit.append(g)
                glue_pi.append(law[last])
            path.append(first[nxt])
            src.append(path[:-1])
            dst.append(path[1:])
            prob.append(np.ones(len(path) - 1))
    chain = MarkovMeasure.from_edges(
        len(emit), *map(np.concatenate, (src, dst, prob)),
        np.concatenate(pi + [glue_pi]), words=[(s,) for s in emit])
    return SuspendedMeasure(chain, system.roof.take(emit))


@dataclass(frozen=True)
class ApproximationReport:
    nu: SuspendedMeasure
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
    """An ergodic flow measure nu (the block chain) with D(lambda, nu) < eta
    and |h_nu - h_lambda| < eta, plus the gluing count certificate
    (NonConvergenceError where no gluing time it tries passes it)."""
    eta = target.eta
    comps = target.components
    lam_stats = mixture_statistics(target, system.roof, cfg)
    h_mu = mixture_entropy(target, system.roof)
    if len(comps) == 1:
        return ApproximationReport(
            SuspendedMeasure(comps[0][0], system.roof), eta, 0.0, h_mu,
            h_mu, 0, {"log_Em_rate": h_mu, "bound": h_mu, "note": "single "
                      "ergodic component: target returned unchanged"}, ())
    tau = min_gap_bound(system.sft)
    overhead = len(comps) * (tau + 1) * system.roof.max
    best = None
    for L in (100, 200, 400, 800):
        nu = _build_block_chain(system, target, L)
        D = weak_star_distance(measure_statistics(nu, cfg), lam_stats, cfg)
        h_nu = entropy_and_mean(nu, None)[0]
        if best is None or D < best[1]:
            best = (L, D, h_nu, nu)
        if D < eta and abs(h_nu - h_mu) < eta:
            break
    L, D, h_nu, nu = best
    if not (D < eta and abs(h_nu - h_mu) < eta):
        min_eta = max(D, abs(h_nu - h_mu)) * 1.05
        raise ValueError(
            f"infeasible eta: switching overhead {overhead}/L limits the "
            f"achievable tolerance; minimal achievable eta ~ {min_eta:.4f}")
    # counting certificate from the glued family at a t in the valid regime,
    # long enough that each component's share holds _min_block_length
    # words; t doubles while the count rate is not above its bound
    M_diam = _weak_star_diameter(cfg)
    t_glue = max(400.0, 2.0 * overhead * M_diam / eta,
                 *(_min_block_length(eta)
                   * SuspendedMeasure(m_, system.roof).mean_roof / a
                   for m_, a in comps))
    for doubling in (1, 2, 4, 8):
        fam = glue_generic_family(system, target, doubling * t_glue, m=3,
                                  seed=seed, cfg=cfg)
        rate = fam.log_Em / (fam.t * fam.m)
        bound = h_mu - eta - (sum(_flow_entropy(m_, system.roof)
                                  for m_, _ in comps)
                              + math.log(fam.C)) / fam.t
        if rate > bound:
            break
    else:
        raise NonConvergenceError(
            f"count certificate fails up to t = {fam.t:g}: log(#E_m)/(tm) "
            f"= {rate:.6f} is not above the bound {bound:.6f}")
    return ApproximationReport(
        nu, eta, D, h_mu, h_nu, L,
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
    c, _ = _locate(last.start.base.symbol_at, system.roof,
                   last.start.height + last.duration)
    start_time = res.block_starts[-1] - last.duration
    shift, _ = _locate(point.base.symbol_at, system.roof,
                       point.height + start_time)
    emitted_end = shift + c + m + 1
    return point, emitted_end
