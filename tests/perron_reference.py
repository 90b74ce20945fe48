"""The Perron solve before the eigenvector seed and the edge-list input:
the oracle for `thermoflow.thermo._perron`.

A shifted power iteration on a dense matrix from the uniform vector (or
v0), stopped by the same Collatz-Wielandt certificate.  Every step is a
dense matrix-vector product, so the library's two regimes on one edge
list with a weight per edge (an `np.linalg.eig` seed on the dense matrix
it scatters into, up to _EIG_MAX_N states, and `np.add.reduceat` over
the edges above) are checked against one plain computation.
"""

import math

import numpy as np

TOL = 1e-13
MAX_ITER = 100_000


def perron(M: np.ndarray, v0=None) -> tuple:
    """(Perron root, right Perron vector summing to 1) of an irreducible
    non-negative M by power iteration on M + lam I, lam = sum(M v) the
    running estimate.  The ratios (M v)_i / v_i bracket both lam and the
    root, so the relative width of their range bounds the relative error
    of lam."""
    n = M.shape[0]
    v = np.full(n, 1.0 / n) if v0 is None else v0 / v0.sum()
    for _ in range(MAX_ITER):
        w = M @ v
        lam = w.sum()
        r = w / v
        res = (r.max() - r.min()) / lam
        if res <= TOL:
            return float(lam), v
        if not math.isfinite(res):
            break
        v = 0.5 * (w / lam + v)
    raise RuntimeError(f"reference Perron iteration on a {n}x{n} matrix "
                       f"did not converge (residual {res:.3e})")
