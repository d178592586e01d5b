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

    def diagonal(self, xi: float) -> float:
        return TWO_PI_SQ * (xi + self.k) ** 2


@dataclass(frozen=True)
class DualMatrix:
    """Hermitian dual matrix over an ordered domain."""

    domain: tuple[GroupElement, ...]
    values: np.ndarray
    spec: OperatorSpec
    index: dict = field(compare=False, repr=False)
    # ||values||_inf, the largest row sum of |entries|, summed by assemble
    # as it writes them
    norm_inf: float = field(compare=False)
    # largest rank distance, in the domain sorted by t, between two points
    # coupled by a nonzero entry; None (unknown) means treat as dense
    bandwidth: int | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return len(self.domain)

    def row_of(self, e: GroupElement) -> int:
        return self.index[e]

    def norm_bound(self) -> float:
        return self.norm_inf


def order_domain(domain) -> tuple[GroupElement, ...]:
    """Deterministic layout: sort by (norm, lexicographic rep)."""
    return tuple(sorted(set(domain), key=GroupElement.key))


def assemble(domain: Sequence[GroupElement], spec: OperatorSpec,
             folded: FoldedCoefficients, lat: QuotientLattice,
             check_decay: bool = True) -> DualMatrix:
    """Assemble the matrix offset by offset over the coordinate t.

    H[i, j] = eps*c(t_i - t_j) off the diagonal: each offset d of the folded
    support finds its pairs t_i - t_j = d by one searchsorted on the sorted
    t and writes eps*c(d) there in one step; every other entry is zero. The
    diagonal adds eps*c(0), the folded zero mode that the Floquet potential
    carries too. ``fold`` stores c(-n) as exactly conj(c(n)), so the matrix
    is Hermitian bit for bit. The same pairs give the bandwidth, the largest
    rank distance in sorted t between two points coupled by a nonzero entry,
    and ||H||_inf: each offset adds |eps*c(d)| to the row sums of its rows,
    so no n x n pass over |H| is made.
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
    H = np.zeros((n, n), dtype=np.complex128)
    row_sums = np.zeros(n)
    entries = {}
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
        H[rows, order[pos[hit]]] = val
        row_sums[rows] += abs(val)
        entries[d] = (e.norm, abs(val))
        if val != 0:
            bandwidth = max(bandwidth, int(np.max(np.abs(pos[hit]
                                                         - ranks[hit]))))
    zero_mode = eps * folded.value(lat.identity)
    diagonal = np.array([spec.diagonal(a.xi_float) + zero_mode for a in dom])
    H[np.diag_indices(n)] = diagonal
    row_sums += np.abs(diagonal)
    if check_decay:
        _check_decay(H, dom, t, entries, spec, folded)
    return DualMatrix(domain=dom, values=H, spec=spec,
                      index={e: i for i, e in enumerate(dom)},
                      norm_inf=float(np.max(row_sums)), bandwidth=bandwidth)


def _check_decay(H, dom, t, entries, spec, folded) -> None:
    """Raise on an entry above eps*exp(-kappa0 |m-n|^alpha0).

    The bound depends only on the offset d = t_i - t_j, whose norm is that of
    its folded key, so each offset that some pair of the domain realizes (the
    keys of ``entries``) is checked once.
    """
    eps = abs(spec.epsilon)
    bounds = {}
    for d, (norm, v) in entries.items():
        if v == 0:
            continue
        bound = eps * math.exp(-folded.kappa0 * norm**folded.alpha0)
        if v > bound * (1 + 1e-12):
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
    shifted = OperatorSpec(epsilon=spec.epsilon, k=spec.k + m.xi_float)
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
