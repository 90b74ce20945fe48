"""Reference row walk for `suspension._column_integrals`.

The whole (n, length) array of sampled states is held at once, with the
start heights given: one pass over its columns keeps running sums of the
roof values and of the fiber integrals, holds them at the last fiber
ending by h0 + t, and counts those fibers.  The library walk takes the
columns one at a time, the normalized heights u with h0 = u r(s_0), and
keeps the state of the fiber occupied at h0 + t as it goes instead of
indexing the array afterwards; it adds the same numbers in the same
order, so the tests require the two to agree bit for bit.
"""

import numpy as np


def row_integrals(rows, values, roof, h0, t):
    """int_0^t of the fiber-constant `values` along each row of states
    started at height h0 of its first fiber, and the index of the fiber
    occupied at h0 + t, compared on `roof.array` only.  The rows must
    reach past h0 + t."""
    n = len(rows)
    total = h0 + t
    table = np.stack([roof.array, values * roof.array])
    acc, held = np.zeros((2, n)), np.zeros((2, n))
    k = np.zeros(n, dtype=np.int64)
    for col in rows.T:
        acc += table.take(col, axis=1)
        done = acc[0] <= total
        np.copyto(held, acc, where=done)
        k += done
    end, full = held
    first = h0 * values.take(rows[:, 0])
    last = (total - end) * values.take(rows[np.arange(n), k])
    return full - first + last, k
