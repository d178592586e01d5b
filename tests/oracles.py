"""Reference routes that the package once ran and the tests keep as oracles.

Each one computes the same quantity as a faster route in ``hillbands`` by the
direct formula: xi as a Fraction sum over the vector, the potential summed
over the unfolded coefficients, and the dual matrix gathered row by row.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from hillbands.operators import DualMatrix, order_domain


def xi_raw(omega, vec) -> Fraction:
    """xi(vec) = sum_j vec_j * effective_j, exactly."""
    return sum((Fraction(int(v)) * c for v, c in zip(vec, omega.effective)),
               Fraction(0))


def eval_potential_raw(x: float, c, omega) -> float:
    """Unfolded evaluation sum_n c(n) e^{2 pi i xi(n) x}."""
    total = 0.0 + 0.0j
    for n, v in c.entries.items():
        total += v * cmath.exp(2j * math.pi * float(xi_raw(omega, n)) * x)
    return total.real


def gathered_assemble(domain, spec, folded, lat) -> DualMatrix:
    """The dual matrix by one clipped gather per row from a table of eps*c
    over the offsets |d| <= span, and its t-order bandwidth by one
    searchsorted per nonzero offset; no decay check."""
    dom = order_domain(domain)
    n = len(dom)
    t = np.array([e.t for e in dom], dtype=np.int64)
    eps = spec.epsilon
    # table[span + 1 + d] = eps*c(d) for |d| <= span, with a zero at both
    # ends that the clipped gather returns for every farther offset
    span = int(t.max() - t.min())
    span = min(span, max((abs(e.t) for e in folded.entries), default=0))
    table = np.zeros(2 * span + 3, dtype=np.complex128)
    offsets = []
    for e, c in folded.entries.items():
        if e.t != 0 and abs(e.t) <= span:
            val = eps * c
            table[span + 1 + e.t] = val
            if val != 0:
                offsets.append(e.t)
    H = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        np.take(table, t[i] - t + (span + 1), out=H[i], mode="clip")
    zero_mode = eps * folded.value(lat.identity)
    H[np.diag_indices(n)] = [spec.diagonal(float(a.xi)) + zero_mode
                             for a in dom]
    ts = np.sort(t)
    ranks = np.arange(n)
    width = 0
    for d in offsets:
        pos = np.searchsorted(ts, ts + d)
        hit = pos < n
        hit[hit] = ts[pos[hit]] == ts[hit] + d
        if hit.any():
            width = max(width, int(np.max(np.abs(pos[hit] - ranks[hit]))))
    return DualMatrix(domain=dom, values=H, spec=spec,
                      index={e: i for i, e in enumerate(dom)},
                      norm_inf=float(np.linalg.norm(H, np.inf)),
                      bandwidth=width)
