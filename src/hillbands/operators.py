"""Assembly of the dual Hermitian matrices on finite domains.

Raw form: diagonal (2 pi)^2 (xi(n)+k)^2 + eps*c(0), off-diagonal H[row n,
col m] = eps*c(n-m) -- the orientation under which y(x) = sum phi(n)
e^{2 pi i (xi(n)+k) x} solves the Hill equation exactly (for real coefficient
data the two orientations coincide; for complex data only this one keeps the
duality).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .lattice import GroupElement, QuotientLattice
from .potential import FoldedCoefficients

TWO_PI_SQ = (2.0 * math.pi) ** 2


def gamma_for(k: float) -> float:
    """Smallest admissible gamma >= 1 with gamma - 1 <= |k| <= gamma."""
    return max(1.0, float(math.ceil(abs(k) - 1e-15)))


@dataclass(frozen=True)
class OperatorSpec:
    """Coupling and quasi-momentum of one dual matrix."""

    epsilon: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and math.isfinite(self.k)):
            raise ValueError(f"epsilon and k must be finite, got "
                             f"epsilon={self.epsilon!r}, k={self.k!r}")

    def diagonal(self, xi: float) -> float:
        return TWO_PI_SQ * (xi + self.k) ** 2


@dataclass(frozen=True, eq=False)
class DualMatrix:
    """Hermitian dual matrix over an ordered domain, stored by its nonzeros.

    H = diag(diagonal), plus the scalar value at (rows[i], cols[i]) for each
    entry (rows, cols, value) of ``offsets``: ``assemble`` stores one entry
    per offset d that the domain realizes, with the pairs t_i - t_j = d and
    the value eps*c(d). The rows of one entry are distinct, so ``matvec``
    adds each entry in one step.
    The dense n x n ``values`` is built only where a dense routine reads it.
    Equality and hashing are by identity.
    """

    domain: tuple[GroupElement, ...]
    spec: OperatorSpec
    index: dict = field(repr=False)
    diagonal: np.ndarray = field(repr=False)
    offsets: tuple[tuple[np.ndarray, np.ndarray, complex], ...] = field(
        repr=False)
    # the Gershgorin radii, each row's sum of |entries| off the diagonal,
    # summed by assemble as it stores them
    radii: np.ndarray = field(repr=False)
    # largest rank distance, in the domain sorted by t, between two points
    # coupled by a nonzero entry
    bandwidth: int

    @property
    def size(self) -> int:
        return len(self.domain)

    def row_of(self, e: GroupElement) -> int:
        return self.index[e]

    def norm_bound(self) -> float:
        """||H||_inf, the largest row sum of |entries|."""
        return float(np.max(self.radii + np.abs(self.diagonal)))

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense H, built on first access and kept."""
        n = self.size
        H = np.zeros((n, n), dtype=np.complex128)
        for rows, cols, value in self.offsets:
            H[rows, cols] = value
        H[np.diag_indices(n)] = self.diagonal
        return H

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """H x from the stored nonzeros."""
        y = self.diagonal * x
        for rows, cols, value in self.offsets:
            y[rows] += value * x[cols]
        return y


def order_domain(domain) -> tuple[GroupElement, ...]:
    """Deterministic layout: sort by (norm, lexicographic rep)."""
    return tuple(sorted(set(domain), key=GroupElement.key))


def assemble(domain: Sequence[GroupElement], spec: OperatorSpec,
             folded: FoldedCoefficients, lat: QuotientLattice) -> DualMatrix:
    """Assemble the matrix offset by offset over the coordinate t.

    H[i, j] = eps*c(t_i - t_j) off the diagonal: each offset d of the folded
    support finds its pairs t_i - t_j = d by one searchsorted on the sorted
    t, and the matrix stores them with eps*c(d); every other entry is zero.
    The diagonal adds eps*c(0), the folded zero mode that the Floquet
    potential carries too. ``fold`` stores c(-n) as exactly conj(c(n)), so
    the matrix is Hermitian bit for bit. The same pairs give the bandwidth,
    the largest rank distance in sorted t between two points coupled by a
    nonzero entry, and the Gershgorin radii: each offset adds |eps*c(d)| to
    the radii of its rows. No n x n array is made. The entries need no
    decay check here: ``fold`` checks the bound on every coset.
    """
    dom = order_domain(domain)
    if not dom:
        raise ValueError("domain must be nonempty")
    n = len(dom)
    t = np.array([e.t for e in dom], dtype=np.int64)
    eps = spec.epsilon
    order = np.argsort(t)
    ts = t[order]
    ranks = np.arange(n)
    span = int(ts[-1] - ts[0])
    radii = np.zeros(n)
    offsets = []
    bandwidth = 0
    for e, c in folded.entries.items():
        d = e.t
        if d == 0 or abs(d) > span:
            continue
        # ranks i, pos[i] in sorted t with ts[i] - ts[pos[i]] = d
        pos = np.searchsorted(ts, ts - d)
        hit = pos < n
        hit[hit] = ts[pos[hit]] == ts[hit] - d
        if not hit.any():
            continue
        val = eps * c
        rows = order[hit]
        offsets.append((rows, order[pos[hit]], val))
        radii[rows] += abs(val)
        if val != 0:
            bandwidth = max(bandwidth, int(np.max(np.abs(pos[hit]
                                                         - ranks[hit]))))
    zero_mode = eps * folded.value(lat.identity)
    diagonal = np.array([spec.diagonal(a.xi_float) + zero_mode for a in dom])
    return DualMatrix(domain=dom, spec=spec,
                      index={e: i for i, e in enumerate(dom)},
                      diagonal=diagonal, offsets=tuple(offsets), radii=radii,
                      bandwidth=bandwidth)

