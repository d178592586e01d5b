"""Assembly of the dual Hermitian matrices on finite domains.

Raw form: diagonal (2 pi)^2 (xi(n)+k)^2 + eps*c(0), off-diagonal H[row n,
col m] = eps*c(n-m) -- the orientation under which y(x) = sum phi(n)
e^{2 pi i (xi(n)+k) x} solves the Hill equation exactly (for real coefficient
data the two orientations coincide; for complex data only this one keeps the
duality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import OffDiagonalDecayError
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

    def diagonal(self, xi: Fraction) -> float:
        return TWO_PI_SQ * (float(xi) + self.k) ** 2


@dataclass(frozen=True)
class DualMatrix:
    """Hermitian dual matrix over an ordered domain."""

    domain: tuple[GroupElement, ...]
    values: np.ndarray
    spec: OperatorSpec
    index: dict = field(compare=False, repr=False)
    # largest rank distance, in the domain sorted by t, between two points
    # coupled by a nonzero entry; None (unknown) means treat as dense
    bandwidth: int | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.domain)

    def row_of(self, e: GroupElement) -> int:
        return self.index[e]

    def norm_bound(self) -> float:
        return float(np.linalg.norm(self.values, ord=np.inf))


def order_domain(domain) -> tuple[GroupElement, ...]:
    """Deterministic layout: sort by (norm, lexicographic rep)."""
    return tuple(sorted(set(domain), key=GroupElement.key))


def assemble(domain: Sequence[GroupElement], spec: OperatorSpec,
             folded: FoldedCoefficients, lat: QuotientLattice,
             check_decay: bool = True) -> DualMatrix:
    """Assemble the matrix by one gather per row over the coordinate t.

    H[i, j] = eps*c(t_i - t_j) off the diagonal, read from a table of
    eps*c over the offsets that can occur; the diagonal adds eps*c(0), the
    folded zero mode that the Floquet potential carries too. ``fold`` stores
    c(-n) as exactly conj(c(n)), so the gathered matrix is Hermitian bit for
    bit.
    """
    dom = order_domain(domain)
    if not dom:
        raise ValueError("domain must be nonempty")
    n = len(dom)
    t = np.array([e.t for e in dom], dtype=np.int64)
    eps = spec.epsilon
    # table[span + 1 + d] = eps*c(d) for |d| <= span, with a zero at both
    # ends that the clipped gather returns for every farther offset
    span = int(t.max() - t.min())
    span = min(span, max((abs(e.t) for e in folded.entries), default=0))
    table = np.zeros(2 * span + 3, dtype=np.complex128)
    entries = {}
    for e, c in folded.entries.items():
        if e.t != 0 and abs(e.t) <= span:
            val = eps * c
            table[span + 1 + e.t] = val
            entries[e.t] = (e.norm, abs(val))
    H = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        np.take(table, t[i] - t + (span + 1), out=H[i], mode="clip")
    zero_mode = eps * folded.value(lat.identity)
    H[np.diag_indices(n)] = [spec.diagonal(a.xi) + zero_mode for a in dom]
    if check_decay:
        _check_decay(H, dom, t, entries, spec, folded)
    return DualMatrix(domain=dom, values=H, spec=spec,
                      index={e: i for i, e in enumerate(dom)},
                      bandwidth=_t_order_bandwidth(t, entries))


def _t_order_bandwidth(t, entries) -> int:
    """Largest rank distance between t and t + d in sorted t, over the
    nonzero offsets d that occur in the domain; O(#offsets n log n)."""
    ts = np.sort(t)
    ranks = np.arange(len(ts))
    width = 0
    for d, (_, v) in entries.items():
        if v == 0:
            continue
        pos = np.searchsorted(ts, ts + d)
        hit = pos < len(ts)
        hit[hit] = ts[pos[hit]] == ts[hit] + d
        if hit.any():
            width = max(width, int(np.max(np.abs(pos[hit] - ranks[hit]))))
    return width


def _check_decay(H, dom, t, entries, spec, folded) -> None:
    """Raise on an entry above eps*exp(-kappa0 |m-n|^alpha0).

    The bound depends only on the offset d = t_i - t_j, whose norm is that of
    its folded key, so each distinct offset is checked once and counts only
    when some pair of the domain realizes it.
    """
    eps = abs(spec.epsilon)
    bounds = {}
    for d, (norm, v) in entries.items():
        if v == 0:
            continue
        bound = eps * math.exp(-folded.kappa0 * norm**folded.alpha0)
        if v > bound * (1 + 1e-12) and np.isin(t + d, t).any():
            bounds[d] = bound
    if not bounds:
        return
    bad = np.array(list(bounds))
    for i in range(len(dom)):
        hits = np.flatnonzero(np.isin(t[i] - t[i + 1:], bad))
        if hits.size:
            j = i + 1 + int(hits[0])
            raise OffDiagonalDecayError(
                f"|H({dom[i]},{dom[j]})| = {abs(H[i, j]):.3e} > "
                f"{bounds[int(t[i] - t[j])]:.3e} "
                f"(eps*exp(-kappa0 |m-n|^alpha0))"
            )


def translated_domain(domain: Sequence[GroupElement], m: GroupElement,
                      lat: QuotientLattice) -> tuple[GroupElement, ...]:
    return order_domain([lat.add(m, e) for e in domain])


def negated_domain(domain: Sequence[GroupElement], lat: QuotientLattice):
    return order_domain([lat.neg(e) for e in domain])


@dataclass(frozen=True)
class ConjugationReport:
    max_eig_difference: float
    passed: bool


def _compare_spectra(left: DualMatrix, right: DualMatrix) -> ConjugationReport:
    """The two spectra agree to 1e-10."""
    diff = float(np.max(np.abs(np.linalg.eigvalsh(left.values)
                               - np.linalg.eigvalsh(right.values))))
    return ConjugationReport(max_eig_difference=diff, passed=diff <= 1e-10)


def translation_conjugation_check(domain: Sequence[GroupElement], m: GroupElement,
                                  spec: OperatorSpec, folded: FoldedCoefficients,
                                  lat: QuotientLattice) -> ConjugationReport:
    """Spectra of H_{m+Lambda, eps, k} and H_{Lambda, eps, k+xi(m)} must agree."""
    left = assemble(translated_domain(domain, m, lat), spec, folded, lat)
    shifted = OperatorSpec(epsilon=spec.epsilon, k=spec.k + float(m.xi))
    return _compare_spectra(left, assemble(order_domain(domain), shifted,
                                           folded, lat))


def symmetry_conjugation_check(domain: Sequence[GroupElement], spec: OperatorSpec,
                               folded: FoldedCoefficients,
                               lat: QuotientLattice) -> ConjugationReport:
    """Spectra of H_{Lambda, eps, k} and H_{-Lambda, eps, -k} must agree."""
    left = assemble(order_domain(domain), spec, folded, lat)
    flipped = OperatorSpec(epsilon=spec.epsilon, k=-spec.k)
    return _compare_spectra(left, assemble(negated_domain(domain, lat),
                                           flipped, folded, lat))
