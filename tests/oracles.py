"""Reference routes that the package once ran and the tests keep as oracles.

Each one computes the same quantity as a faster route in ``hillbands`` by the
direct formula: xi as a Fraction sum over the vector, the potential summed
over the unfolded coefficients and, one coset at a time, over the folded
ones, the dual matrix gathered row by row, and the tridiagonal eigensolve by
one dstevd call on the whole matrix, and a coset's least representative by
a search over the translates by the null lattice N(omega). The spectral
conjugation checks compare dense spectra of assembled matrices, and
``dense_dual_matrix`` wraps a dense H, built by a test, as a DualMatrix.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from hillbands.eigensolve import _stevd
from hillbands.errors import NonRealValue
from hillbands.operators import DualMatrix, OperatorSpec, assemble, order_domain


def xi_raw(omega, vec) -> Fraction:
    """xi(vec) = sum_j vec_j * effective_j, exactly."""
    return sum((Fraction(int(v)) * c for v, c in zip(vec, omega.effective)),
               Fraction(0))


@dataclass(frozen=True)
class NullLattice:
    """Integer basis of N(omega) = { m : m.omega = 0 }, saturated by construction.

    ``unit`` is an integer vector u with u.w = gcd(w) for the integer form w:
    a vector of coordinate t = 1, so t * u is a vector of coordinate t.
    ``pinv`` holds the rows of the pseudo-inverse of the basis (rank x nu).
    """

    basis: tuple[tuple[int, ...], ...]
    rank: int
    unit: tuple[int, ...]
    pinv: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        assert self.rank == len(self.basis)


def null_lattice(omega) -> NullLattice:
    """Kernel of m -> m.omega by unimodular row reduction on the integer form."""
    w = list(omega.integer_form)
    nu = len(w)
    rows = [[1 if i == j else 0 for j in range(nu)] for i in range(nu)]
    g = list(w)
    while True:
        nz = [i for i in range(nu) if g[i] != 0]
        if len(nz) <= 1:
            break
        pivot = min(nz, key=lambda i: abs(g[i]))
        for j in nz:
            if j == pivot:
                continue
            q = g[j] // g[pivot]
            if q:
                g[j] -= q * g[pivot]
                rows[j] = [a - q * b for a, b in zip(rows[j], rows[pivot])]
    basis = [tuple(rows[i]) for i in range(nu) if g[i] == 0]
    basis = [_sign_normalize(b) for b in basis]
    basis.sort()
    # the rows stay unimodular, so the one row left with g != 0 has
    # row.w = +-gcd(w)
    (last,) = nz
    unit = tuple(a if g[last] > 0 else -a for a in rows[last])
    pinv = ()
    if basis:
        B = np.array(basis, dtype=float).T  # nu x rank
        pinv = tuple(tuple(float(x) for x in row) for row in np.linalg.pinv(B))
    return NullLattice(basis=tuple(basis), rank=len(basis), unit=unit,
                       pinv=pinv)


def _sign_normalize(vec: tuple[int, ...]) -> tuple[int, ...]:
    for v in vec:
        if v != 0:
            return vec if v > 0 else tuple(-x for x in vec)
    return vec


@functools.lru_cache(maxsize=64)
def null_points_in_box(null, radius):
    """All p in N(omega) with |p|_inf <= radius, one per row: the
    coefficients of p are bounded by the pseudo-inverse rows' absolute sums
    times radius."""
    if null.rank == 0:
        return np.zeros((1, len(null.unit)), dtype=np.int64)
    bounds = np.array([int(math.floor(sum(abs(x) for x in row) * radius)) + 1
                       for row in null.pinv])
    coeffs = np.indices(2 * bounds + 1).reshape(null.rank, -1).T - bounds
    pts = coeffs @ np.array(null.basis, dtype=np.int64)
    return pts[np.abs(pts).max(axis=1) <= radius]


def null_translate_rep(null, vec):
    """(rep, norm): the least (|v - p|_inf, v - p) over the null translates
    p with |p| <= 2|v|. A least representative v - p has |v - p| <= |v|, so
    every one lies in that box."""
    v = tuple(int(x) for x in vec)
    cand = np.array(v, dtype=np.int64) - null_points_in_box(
        null, 2 * max(abs(x) for x in v))
    norms = np.abs(cand).max(axis=1)
    # lexsort's last key is the primary one: norm, then v_0, v_1, ...
    best = np.lexsort(tuple(cand.T[::-1]) + (norms,))[0]
    return tuple(cand[best].tolist()), int(norms[best])


def preimage(null, t):
    """A vector of coordinate t: t * unit, shortened by the nearest integer
    combination of the null basis, since the raw preimage grows like
    |t| * |unit| and would widen the search of ``null_translate_rep``."""
    v = [t * a for a in null.unit]
    coeffs = [round(sum(p * a for p, a in zip(row, v))) for row in null.pinv]
    for c, b in zip(coeffs, null.basis):
        v = [a - c * x for a, x in zip(v, b)]
    return v


def eval_potential_raw(x: float, c, omega) -> float:
    """Unfolded evaluation sum_n c(n) e^{2 pi i xi(n) x}."""
    total = 0.0 + 0.0j
    for n, v in c.entries.items():
        total += v * cmath.exp(2j * math.pi * float(xi_raw(omega, n)) * x)
    return total.real


def eval_potential(x: float, folded) -> float:
    """V~(x) = sum over cosets of c(n_bar) e^{2 pi i xi(n_bar) x} (real by
    symmetry); NonRealValue when the imaginary residue exceeds
    1e-12 * max(1, sum |c|)."""
    total = 0.0 + 0.0j
    for e, v in folded.entries.items():
        total += v * cmath.exp(2j * math.pi * e.xi_float * x)
    scale = max(1.0, sum(abs(v) for v in folded.entries.values()))
    if abs(total.imag) > 1e-12 * scale:
        raise NonRealValue(
            f"imaginary residue {total.imag:.3e} at x={x} exceeds tolerance"
        )
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
    return dense_dual_matrix(dom, spec, H, width)


def dense_dual_matrix(domain, spec, H, bandwidth) -> DualMatrix:
    """A DualMatrix whose dense view is H bit for bit, over a domain already
    in ``order_domain`` order, with the Gershgorin radii summed by numpy.

    The entries off the diagonal are stored by index diagonal j - i and by
    value, compared bit for bit, so the rows of one entry are distinct and
    a -0.0 stays apart from +0; every entry whose bits are not those of +0
    is kept. A bandwidth above 1, such as the matrix size, sends the matrix
    to the dense (zhetrd) path of the resolvent.
    """
    n = len(domain)
    diagonal = H.diagonal().copy()
    off = np.abs(H)
    off[np.diag_indices(n)] = 0.0
    offsets = []
    for shift in range(1 - n, n):
        if shift == 0:
            continue
        rows = np.arange(max(0, -shift), min(n, n - shift))
        values = H[rows, rows + shift]
        bits = values.view(np.uint64).reshape(-1, 2)
        keys, group = np.unique(bits, axis=0, return_inverse=True)
        for k, key in enumerate(keys):
            if key.any():
                same = group.ravel() == k
                offsets.append((rows[same], rows[same] + shift,
                                values[same][0]))
    return DualMatrix(domain=tuple(domain), spec=spec,
                      index={e: i for i, e in enumerate(domain)},
                      diagonal=diagonal, offsets=tuple(offsets),
                      radii=off.sum(axis=1), bandwidth=bandwidth)


def whole_dstevd(d, e):
    """w ascending and Z with T = Z diag(w) Z^T, for T real symmetric
    tridiagonal with diagonal d and subdiagonal e, by one LAPACK dstevd call
    on the whole of T; a NaN or inf in d or e raises ValueError. The chain
    split of ``eigensolve._eigh_chains`` reproduces it."""
    return _stevd(np.asarray_chkfinite(d), np.asarray_chkfinite(e))


def translated_domain(domain, m, lat):
    return order_domain([lat.add(m, e) for e in domain])


def negated_domain(domain, lat):
    return order_domain([lat.neg(e) for e in domain])


@dataclass(frozen=True)
class ConjugationReport:
    max_eig_difference: float
    passed: bool


def _compare_spectra(left, right) -> ConjugationReport:
    """The two spectra agree to 1e-10."""
    diff = float(np.max(np.abs(np.linalg.eigvalsh(left.values)
                               - np.linalg.eigvalsh(right.values))))
    return ConjugationReport(max_eig_difference=diff, passed=diff <= 1e-10)


def translation_conjugation_check(domain, m, spec, folded,
                                  lat) -> ConjugationReport:
    """Spectra of H_{m+Lambda, eps, k} and H_{Lambda, eps, k+xi(m)} must
    agree."""
    left = assemble(translated_domain(domain, m, lat), spec, folded, lat)
    shifted = OperatorSpec(epsilon=spec.epsilon, k=spec.k + m.xi_float)
    return _compare_spectra(left, assemble(order_domain(domain), shifted,
                                           folded, lat))


def symmetry_conjugation_check(domain, spec, folded, lat) -> ConjugationReport:
    """Spectra of H_{Lambda, eps, k} and H_{-Lambda, eps, -k} must agree."""
    left = assemble(order_domain(domain), spec, folded, lat)
    flipped = OperatorSpec(epsilon=spec.epsilon, k=-spec.k)
    return _compare_spectra(left, assemble(negated_domain(domain, lat),
                                           flipped, folded, lat))
