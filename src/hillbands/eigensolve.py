"""Eigenvalue extraction: simple root, pair-resonance branches, CFF machinery.

The simple route solves E = v(m0) + Q(m0; E) by Brent's method on a bracket
that holds the root and no pole, and reads the eigenvector off the punctured
resolvent. The pair route locates the two roots of the 2x2 Schur determinant
chi and assembles both branch eigenvectors.
The continued-fraction-function (CFF) layer builds the level-1 pair of two
leaves and tracks its branches through the regularized companion
chi^{(f)} = mu^{(f)} f, which stays smooth where f itself blows up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._lapack import flapack
from .errors import (AdmissibilityFailed, HypothesisFailed, NoConvergence,
                     OrderingFailed, PreconditionFailed, RootCountMismatch,
                     SingularBlock)
from .lattice import GroupElement
from .operators import DualMatrix
from .oracle import refine_root

# width at which the simple root and the sign-change roots stop
ROOT_TOL = 1e-12
# central-difference step of cff_branch_solve: near eps^(1/3), where the
# O(h^2) truncation and O(eps/h) cancellation errors of a first difference
# balance
CFF_FD_STEP = 1e-5
# sign-change scan of cff_branch_solve over the whole u window
CFF_SCAN_POINTS = 513
# the cut points inside each bracket of PuncturedResolvent.eigenvalues, as
# fractions of its width
_SECTIONS = np.arange(1, 8) / 8.0


class PuncturedResolvent:
    """Resolvent of the punctured block through real tridiagonal
    eigendecompositions, one per chain.

    H_punctured = U T U^H with T real symmetric tridiagonal and U unitary.
    U is never formed: a matrix that is tridiagonal in t order (bandwidth
    <= 1) stays tridiagonal once principal rows are removed, and U is its
    t-order permutation times the phases cumprod(b/|b|) of its subdiagonal
    b; every other block is reduced by the Householder reflectors of LAPACK
    zhetrd, which zunmqr applies (Golub & Van Loan, Matrix Computations,
    sec. 8.3). The coupling columns h(., p) and the principals' own entries
    are read off the matrix's stored nonzeros, and so is T in t order: there
    the dense view of H is never built. T splits into independent chains
    wherever its subdiagonal is exactly zero: in t order at each removed
    principal and at each hole of the domain in t. Each chain is
    diagonalized by its own LAPACK dstevd call, T = Z diag(w) Z^T with Z
    block diagonal (``_eigh_chains``); only the chain blocks of Z are kept.
    Afterwards Q(p, E), G(p, q, E) and the tail (E - H_punctured)^{-1} x
    cost O(n) per E from the projections Z^T U^H h(., p), for a scalar E or
    an array of them; the dense-solve route in q_g_functions stays the
    independent cross-check. With two principals the same weights count the
    eigenvalues of the whole matrix H below any x (count_below), which
    brackets them by a search on those counts without a dense eigensolve.
    """

    def __init__(self, matrix: DualMatrix, principal):
        self.principal = tuple(int(p) for p in principal)
        self.others = [i for i in range(matrix.size)
                       if i not in self.principal]
        if not self.others:
            raise ValueError("puncturing removed the whole domain")
        if matrix.bandwidth <= 1:
            form = _TOrderPhases(matrix, self.others)
        else:
            form = _Householder(
                matrix.values[np.ix_(self.others, self.others)])
        self._form = form
        self.w, self._order, self._chains = _eigh_chains(form.d, form.e)
        # the principals' columns H e_p: the coupling columns h(., p), their
        # projections, and the entries H[q, p] between two principals
        unit = np.zeros(matrix.size, dtype=np.complex128)
        columns = {}
        for p in self.principal:
            unit[p] = 1.0
            columns[p] = matrix.matvec(unit)
            unit[p] = 0.0
        self.proj = dict(zip(self.principal, self.project(np.stack(
            [columns[p][self.others] for p in self.principal], axis=1)).T))
        self._between = {(q, p): columns[p][q] for p in self.principal
                         for q in self.principal}
        self._v = {p: float(matrix.diagonal[p].real) for p in self.principal}
        self.matrix = matrix

    def project(self, x: np.ndarray) -> np.ndarray:
        """Z^T U^H x for a vector x in ``others`` order, or for each column
        of x: the input that ``tail`` takes."""
        x = np.asarray(x)
        columns = self._form.to_tridiagonal(x.reshape(len(x), -1))
        y = np.empty(columns.shape, dtype=np.complex128)
        for start, Z in self._chains:
            rows = slice(start, start + len(Z))
            _real_times(Z.T, columns[rows], y[rows])
        return y[self._order].reshape(x.shape)

    def _weights(self, E) -> np.ndarray:
        """1/(E - w) over the last axis, for a scalar E or an array."""
        d = np.asarray(E, dtype=float)[..., None] - self.w
        if np.min(np.abs(d)) < 1e-300:
            # min|E - w| is exactly 1/||(E - H_punctured)^-1||_2
            raise SingularBlock("punctured block at E",
                                float(np.min(np.abs(d))), "2")
        return 1.0 / d

    def Q(self, p: int, E):
        q = np.sum(np.abs(self.proj[p]) ** 2 * self._weights(E), axis=-1)
        return float(q) if q.ndim == 0 else q

    def G(self, p: int, q: int, E):
        s = np.sum(np.conj(self.proj[p]) * self.proj[q] * self._weights(E),
                   axis=-1)
        g = self._between[p, q] + s
        return complex(g) if g.ndim == 0 else g

    def chi(self, E):
        """The 2x2 Schur determinant (E - v_p - Q_p)(E - v_q - Q_q) - |G_pq|^2
        of the two principals (p, q), for a scalar E or an array."""
        p, q = self.principal
        vp, vq = self._v[p], self._v[q]
        return ((E - vp - self.Q(p, E)) * (E - vq - self.Q(q, E))
                - np.abs(self.G(p, q, E)) ** 2)

    def tail(self, E: float, rhs_proj: np.ndarray) -> np.ndarray:
        """(E - H_punctured)^{-1} applied to a vector given in projections,
        U Z (rhs_proj / (E - w)), in ``others`` order."""
        x = np.empty_like(rhs_proj, dtype=np.complex128)
        x[self._order] = self._weights(E) * rhs_proj
        y = np.empty(len(x), dtype=np.complex128)
        for start, Z in self._chains:
            rows = slice(start, start + len(Z))
            _real_times(Z, x[rows], y[rows])
        return self._form.from_tridiagonal(y[:, None])[:, 0]

    def gap(self, E: float) -> float:
        """min |E - w|, the distance from E to the spectrum of the
        punctured block."""
        return float(np.min(np.abs(E - self.w)))

    @functools.cached_property
    def _schur_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The x-independent parts of S(x) for the principals (p, q) and
        their projections a, b: T(x) = (s_p, s_q, Re G_pq, Im G_pq) is
        x (1, 1, 0, 0) + base - W(x) @ columns, with W(x) the weights
        1/(x - w); ``lemma`` holds (|b|^2, |a|^2, 2 Re, 2 Im of conj(a) b),
        so that v^H adj(S') v = lemma . T for the rank-one term of one w."""
        p, q = self.principal
        a, b = self.proj[p], self.proj[q]
        g = np.conj(a) * b
        columns = np.stack([np.abs(a) ** 2, np.abs(b) ** 2, -g.real, -g.imag],
                           axis=-1)
        h = self._between[p, q]
        base = np.array([-self._v[p], -self._v[q], h.real, h.imag])
        lemma = np.stack([columns[:, 1], columns[:, 0], 2.0 * g.real,
                          2.0 * g.imag], axis=-1)
        return columns, base, lemma

    def count_below(self, x) -> np.ndarray:
        """#{eigenvalues of H below x} for each x of an array, for two
        principals (p, q).

        By Haynsworth inertia additivity (Lin. Alg. Appl. 1, 1968),
        In(x - H) = In(x - H_punctured) + In(S(x)), where S(x) =
        [[x - v_p - Q_p, -G_pq], [-conj G_pq, x - v_q - Q_q]] is the Schur
        complement of the punctured block. The first term counts the w below
        x; S(x) adds 1 positive eigenvalue when det S < 0, else 2 when
        det S > 0 and x - v_p - Q_p > 0; when det S = 0 (an eigenvalue of H
        at x), it adds 1 if its trace is positive. The weights 1/(x - w) are
        formed once per x. An x that lies exactly on a w is counted at the
        next float above it that is no w.

        The term of the w nearest x is the rank-one W v v^H, and it enters
        det S by the determinant lemma, det S' - W v^H adj(S') v, where S'
        leaves it out: with x a few ulps from w, W^2 |v|^4 would otherwise
        be formed twice and cancel, and drown det S in its rounding.
        """
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).ravel()
        d = x[:, None] - self.w
        while not d.all():
            x = np.where((d == 0).any(axis=1), np.nextafter(x, np.inf), x)
            d = x[:, None] - self.w
        rows = np.arange(len(x))
        near = np.abs(d).argmin(axis=1)
        weights = 1.0 / d
        pole = weights[rows, near]
        weights[rows, near] = 0.0
        columns, base, lemma = self._schur_terms
        t = base - weights @ columns
        t[:, :2] += x[:, None]
        det = (t[:, 0] * t[:, 1] - t[:, 2] ** 2 - t[:, 3] ** 2
               - pole * np.einsum("ij,ij->i", lemma[near], t))
        s_p = t[:, 0] - pole * columns[near, 0]
        s_q = t[:, 1] - pole * columns[near, 1]
        # det S = 0: eigenvalues 0 (an eigenvalue of H at x) and tr S
        positive = np.where(det < 0, 1, np.where(det > 0, 2 * (s_p > 0),
                                                 s_p + s_q > 0))
        counts = np.searchsorted(self.w, x) + positive
        return counts.reshape(shape)

    def eigenvalues(self, indices) -> np.ndarray:
        """The eigenvalues of H of the given indices (ascending order), all
        narrowed at once by counts below seven cut points of each bracket,
        which shrink it eightfold per count_below call: on small matrices a
        call costs little more for 28 points than for 4, and this takes a
        third of the calls of a bisection.

        Cauchy interlacing gives lambda_j in [w_{j-2}, w_j]; past the ends
        of w the Gershgorin discs of H bound the spectrum, with the radii
        that assemble stores. The search stops
        when every bracket is no wider than 4 eps max(1, ||H||_inf):
        rounding decides the count below that width, and two neighbouring
        floats in the brackets lie closer, so every step makes progress.
        """
        j = np.asarray(indices)
        diagonal, radii = self.matrix.diagonal.real, self.matrix.radii
        low = np.min(diagonal - radii)
        high = np.max(diagonal + radii)
        ends = np.concatenate(([low, low], self.w, [high, high]))
        lo, hi = ends[j], ends[j + 2]
        width = 4.0 * _EPS * max(1.0, self.matrix.norm_bound())
        rows = np.arange(len(j))
        while np.any(hi - lo > width):
            cuts = lo[:, None] + (hi - lo)[:, None] * _SECTIONS
            cuts = np.concatenate([lo[:, None], cuts, hi[:, None]], axis=1)
            passed = np.sum(self.count_below(cuts[:, 1:-1]) <= j[:, None],
                            axis=1)
            lo, hi = cuts[rows, passed], cuts[rows, passed + 1]
        return 0.5 * (lo + hi)

    def eigenvalues_around(self, target: float) -> np.ndarray:
        """The eigenvalues of H of index k-2 ... k+1, where k eigenvalues lie
        below target: they include the two nearest target."""
        k = int(self.count_below(target))
        return self.eigenvalues(np.arange(max(k - 2, 0),
                                          min(k + 2, self.matrix.size)))


class _TOrderPhases:
    """U = P^T D for a block tridiagonal in t order: P sorts ``others`` by t
    and D = diag(cumprod(b/|b|)) turns the Hermitian subdiagonal b into |b|
    (Golub & Van Loan, Matrix Computations, sec. 8.4)."""

    def __init__(self, matrix: DualMatrix, others: list[int]):
        t = np.array([matrix.domain[i].t for i in others], dtype=np.int64)
        self.order = np.argsort(t)
        self.inverse = np.argsort(self.order)
        rows = np.asarray(others)[self.order]
        self.d = matrix.diagonal[rows].real
        # the subdiagonal H[rows[r + 1], rows[r]], read off the stored
        # entries whose row follows their column in this order
        rank = np.full(matrix.size, -1)
        rank[rows] = np.arange(len(rows))
        sub = np.zeros(len(rows) - 1, dtype=np.complex128)
        for r, c, value in matrix.offsets:
            col = rank[c]
            sub[col[(col >= 0) & (rank[r] == col + 1)]] = value
        self.e = np.abs(sub)
        unit = np.ones_like(sub)
        np.divide(sub, self.e, out=unit, where=self.e != 0)
        self.phase = np.concatenate(([1.0 + 0j], np.cumprod(unit)))

    def to_tridiagonal(self, x: np.ndarray) -> np.ndarray:
        """U^H x for the columns of x."""
        return self.phase.conj()[:, None] * x[self.order]

    def from_tridiagonal(self, y: np.ndarray) -> np.ndarray:
        """U y for the columns of y."""
        return (self.phase[:, None] * y)[self.inverse]


class _Householder:
    """U = H(1) ... H(n-1), the reflectors of zhetrd('L'), kept as zhetrd
    leaves them and applied by zunmqr to rows 1: as LAPACK's zunmtr does."""

    def __init__(self, block: np.ndarray):
        n = block.shape[0]
        lwork = int(flapack.zhetrd_lwork(n, lower=1)[0].real)
        c, self.d, self.e, self.tau, info = flapack.zhetrd(block, lower=1,
                                                           lwork=lwork)
        if info != 0:
            raise np.linalg.LinAlgError(f"zhetrd info {info}")
        # contiguous once, so that zunmqr does not copy the view per call
        self.reflectors = np.asfortranarray(c[1:, :-1])

    def _apply(self, trans: bytes, x: np.ndarray) -> np.ndarray:
        out = np.array(x, dtype=np.complex128)
        if self.tau.size:
            out[1:], _, info = flapack.zunmqr(b"L", trans, self.reflectors,
                                              self.tau, out[1:],
                                              max(1, out.shape[1]))
            if info != 0:
                raise np.linalg.LinAlgError(f"zunmqr info {info}")
        return out

    def to_tridiagonal(self, x: np.ndarray) -> np.ndarray:
        """U^H x for the columns of x."""
        return self._apply(b"C", x)

    def from_tridiagonal(self, y: np.ndarray) -> np.ndarray:
        """U y for the columns of y."""
        return self._apply(b"N", y)


def _real_times(A: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    """out = A @ x for a real matrix A and a complex x, as two real
    products: A @ x itself would first copy A to complex, 16 bytes per
    entry."""
    out.real = A @ np.ascontiguousarray(x.real)
    out.imag = A @ np.ascontiguousarray(x.imag)


def _stevd(d: np.ndarray, e: np.ndarray):
    """w ascending and Z with T = Z diag(w) Z^T, for T real symmetric
    tridiagonal with finite diagonal d and subdiagonal e, by one LAPACK
    dstevd call: what scipy.linalg.eigh_tridiagonal(d, e,
    lapack_driver="stevd") computes. The 1x1 case is returned as is."""
    if len(d) == 1:
        return d.copy(), np.ones((1, 1))
    w, Z, info = flapack.dstevd(d, e, compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd info {info}")
    return w, Z


def _eigh_chains(d: np.ndarray, e: np.ndarray):
    """T = Z diag(w) Z^T chain by chain: (w, order, chains).

    T splits into independent chains at every exact zero of e, and each
    chain gets its own dstevd call; ``chains`` lists (first row, Z block),
    the blocks of the block-diagonal Z. w is the stable sort of the chains'
    eigenvalues, taken in chain order by ``order`` (the identity for one
    chain, whose w dstevd already sorts). dstevd's divide and conquer splits
    at these zeros too, and solves the chains one by one (LAPACK dstedc), so
    w is bit for bit that of one dstevd call on all of T, and so is Z up to
    the column order of equal eigenvalues of different chains. The
    finiteness check runs once on d and e (ValueError).
    """
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    starts = [0, *(np.flatnonzero(e == 0) + 1).tolist()]
    stops = [*starts[1:], len(d)]
    parts = [_stevd(d[a:b], e[a:b - 1]) for a, b in zip(starts, stops)]
    w = np.concatenate([w for w, _ in parts])
    order = np.argsort(w, kind="stable")
    return w[order], order, [(a, Z) for a, (_, Z) in zip(starts, parts)]


@dataclass(frozen=True)
class EigenPair:
    E: float
    phi: np.ndarray             # over the matrix's domain ordering, phi(m0) = 1
    residual: float             # ||H phi - E phi||_inf
    punctured_gap: float        # min |E - w| over the punctured block
    iterations: int


@dataclass(frozen=True)
class PairBranches:
    E_minus: float
    E_plus: float
    phi_minus: np.ndarray
    phi_plus: np.ndarray
    beta_minus: complex
    beta_plus: complex
    tau0: float                 # ordering margin observed on the bracket grid
    residual_minus: float
    residual_plus: float


def _residual(matrix: DualMatrix, phi: np.ndarray, E: float) -> float:
    return float(np.max(np.abs(matrix.matvec(phi) - E * phi)))


def solve_simple(matrix: DualMatrix, m0: GroupElement) -> EigenPair:
    """The root of f(E) = E - v(m0) - Q(m0; E) by refine_root; eigenvector
    phi = -F. ``iterations`` counts the evaluations of f.

    Between the punctured eigenvalues w, f' = 1 + sum |p|^2/(E - w)^2 >= 1,
    so the root lies within |Q(v)| of v = v(m0), on the side of Q(v):
    [v, v + 2 Q(v)], each end pushed out by one ulp, holds it with a margin
    of |Q(v)| in f at the far end. A w inside that bracket is a pole of f,
    onto which Brent would converge: HypothesisFailed.
    """
    i0 = matrix.row_of(m0)
    v0 = float(matrix.diagonal[i0].real)
    punctured = PuncturedResolvent(matrix, [i0])
    evaluations = 0

    def f(E: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return E - v0 - punctured.Q(i0, E)

    # f(v) = -Q(v)
    lo, hi = sorted((v0, v0 - 2.0 * f(v0)))
    lo, hi = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
    poles = punctured.w[(punctured.w >= lo) & (punctured.w <= hi)]
    if poles.size:
        raise HypothesisFailed(
            "simple bracket", f"punctured eigenvalue {float(poles[0])!r} inside "
            f"[{lo!r}, {hi!r}]")
    E = refine_root(f, lo, hi, ROOT_TOL)
    phi = np.zeros(matrix.size, dtype=np.complex128)
    phi[i0] = 1.0
    # phi restricted off m0 solves (E - H_punctured) phi = h(., m0), i.e. +F;
    # the 2x2 closed form pins this sign.
    phi[punctured.others] = punctured.tail(E, punctured.proj[i0])
    return EigenPair(E=E, phi=phi, residual=_residual(matrix, phi, E),
                     punctured_gap=punctured.gap(E), iterations=evaluations)


def _sign_change_roots(f: Callable, lo: float, hi: float,
                       grid_points: int) -> list[float]:
    """All roots of f located by sign changes on a grid, each refined by
    refine_root to ROOT_TOL.

    f maps the whole grid array in one call and a scalar in each refinement
    step. A grid value that is not finite raises NoConvergence (residual
    NaN): a sign change next to it could not be seen.
    """
    xs = np.linspace(lo, hi, grid_points)
    vals = np.asarray(f(xs), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NoConvergence(0, math.nan)
    roots = []
    for i in np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0)):
        a, b = float(xs[i]), float(xs[i + 1])
        roots.append(a if vals[i] == 0.0 else refine_root(f, a, b, ROOT_TOL))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def solve_pair(punctured: PuncturedResolvent, m_plus: GroupElement,
               m_minus: GroupElement, bracket: tuple[float, float], *,
               tau0_required: float) -> PairBranches:
    """Both roots of chi = 0 inside the bracket, with branch eigenvectors,
    on the resolvent of the matrix punctured at the pair (m+, m-).

    Verifies the Schur-complement ordering v+ + Q+ >= v- + Q- + tau0 on a
    33-point bracket grid (OrderingFailed), demands exactly two sign changes
    on a 257-point grid (RootCountMismatch) and audits |beta+-| <= 1.
    """
    matrix = punctured.matrix
    ip, im = matrix.row_of(m_plus), matrix.row_of(m_minus)
    if sorted(punctured.principal) != sorted((ip, im)):
        raise ValueError("the resolvent is not punctured at (m+, m-)")
    vp, vm = float(matrix.diagonal[ip].real), float(matrix.diagonal[im].real)

    grid = np.linspace(bracket[0], bracket[1], 33)
    tau_seen = float(np.min((vp + punctured.Q(ip, grid))
                            - (vm + punctured.Q(im, grid))))
    # roundoff floor: at an exactly symmetric resonance the true margin is 0
    noise = 64.0 * np.finfo(float).eps * matrix.norm_bound()
    if tau_seen < tau0_required - noise:
        raise OrderingFailed(
            f"ordering margin {tau_seen:.3e} below required {tau0_required:.3e}"
        )

    roots = _sign_change_roots(punctured.chi, bracket[0], bracket[1], 257)
    if len(roots) != 2:
        raise RootCountMismatch(2, len(roots), roots)
    e_minus, e_plus = sorted(roots)
    if not e_minus < e_plus:
        raise RootCountMismatch(2, 1, roots)

    phis = {}
    betas = {}
    residuals = {}
    for sign, E_val in (("+", e_plus), ("-", e_minus)):
        own = ip if sign == "+" else im
        other = im if sign == "+" else ip
        denom = (E_val - float(matrix.diagonal[other].real)
                 - punctured.Q(other, E_val))
        beta = punctured.G(other, own, E_val) / denom
        phi = np.zeros(matrix.size, dtype=np.complex128)
        phi[own] = 1.0
        phi[other] = beta
        # rows off the pair: (E - H_punctured) phi = h(., own) + h(., other) beta
        phi[punctured.others] = punctured.tail(
            E_val, punctured.proj[own] + punctured.proj[other] * beta)
        phis[sign] = phi
        betas[sign] = complex(beta)
        residuals[sign] = _residual(matrix, phi, E_val)
        if abs(beta) > 1.0 + 1e-9:
            raise HypothesisFailed("beta bound", f"|beta{sign}| = {abs(beta):.3e} > 1")
    return PairBranches(
        E_minus=e_minus, E_plus=e_plus,
        phi_minus=phis["-"], phi_plus=phis["+"],
        beta_minus=betas["-"], beta_plus=betas["+"],
        tau0=tau_seen,
        residual_minus=residuals["-"], residual_plus=residuals["+"],
    )


# --- quadratic dichotomy ---

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DichotomyResult:
    case: str           # "plus_case" | "minus_case"
    lam: float
    gamma: float


@dataclass(frozen=True)
class DichotomyArrays:
    """The checks of quadratic_dichotomy, elementwise over its inputs."""

    ordered: np.ndarray     # a1 > a2
    expr: np.ndarray        # (u - a1)(u - a2) - b^2
    bound: np.ndarray       # (a1 - a2)^2 / 4
    margin: np.ndarray      # rounding margin taken off the bound
    in_range: np.ndarray    # |expr| < bound - margin
    lam: np.ndarray
    gamma: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    bracket_ok: np.ndarray

    @property
    def classified(self) -> np.ndarray:
        """Where quadratic_dichotomy returns a case instead of raising."""
        return (self.ordered & self.in_range & (self.plus != self.minus)
                & self.bracket_ok)


def dichotomy_core(a1, a2, b, u) -> DichotomyArrays:
    """quadratic_dichotomy over float64 arrays (or float64 scalars) at once.

    Where a precondition fails the later fields are meaningless; the inf and
    nan such elements produce are not warned about.

    |expr| is exactly the bound at a case threshold (a1 + a2 +- 2|b|)/2,
    which floats place to within 3 ulps of the largest operand S. The bound
    loses the margin 16 eps S (|u - a1| + |u - a2|) >= 16 eps S |d expr/du|,
    so a u that close to a threshold is rejected, not left in neither case.

    At b = 0, u itself is a root of (x - a1)(x - a2) = expr, like the other
    thresholds a1 - |gamma|(a1 - a2), a2 + |gamma|(a1 - a2) and the bracket
    ends. An error of margin in expr moves those roots by margin / width,
    width = (a1 - a2) sqrt(1 + 4 lam) being their distance, so u is compared
    with each as (u - threshold) * width against -margin. Both cases at once
    would need |u - (a1 + a2)/2| < margin / width, which in_range excludes.
    """
    # Each element carries the bits of the formula evaluated in Python
    # floats: every step is an IEEE-exact ufunc in the same order (+, -, *,
    # / and sqrt are correctly rounded; abs, maximum and minimum only pick or
    # flip an operand). There is no exp or pow here, whose numpy kernels
    # differ from libm (see the schur module docstring: the trajectory
    # weights evaluate those through math.exp and float **, and take
    # sequential sums with np.cumsum, to stay bit-identical).
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = a1 - a2
        expr = (u - a1) * (u - a2) - b * b
        bound = gap * gap / 4.0
        scale = np.maximum(np.maximum(np.abs(a1), np.abs(a2)),
                           np.maximum(np.abs(b), np.abs(u)))
        margin = (16.0 * _EPS * scale) * (np.abs(u - a1) + np.abs(u - a2))
        in_range = np.abs(expr) < bound - margin
        lam = expr / (gap * gap)
        root = np.sqrt(1.0 + 4.0 * lam)
        gamma = (root - 1.0) / 2.0
        spread = np.abs(gamma) * gap
        width = gap * root
        abs_b = np.abs(b)
        plus = (u - np.maximum(a1 - spread, 0.5 * (a1 + a2 + 2.0 * abs_b))
                ) * width >= -margin
        minus = (np.minimum(a2 + spread, 0.5 * (a1 + a2 - 2.0 * abs_b))
                 - u) * width >= -margin
        bracket_ok = (((a2 - spread - abs_b - u) * width <= margin)
                      & ((u - a1 - spread - abs_b) * width <= margin))
    return DichotomyArrays(ordered=a1 > a2, expr=expr, bound=bound,
                           margin=margin, in_range=in_range, lam=lam,
                           gamma=gamma, plus=plus, minus=minus,
                           bracket_ok=bracket_ok)


def quadratic_dichotomy(a1: float, a2: float, b: float, u: float) -> DichotomyResult:
    """Classify a solution of |(u-a1)(u-a2) - b^2| < (a1-a2)^2 / 4, less the
    rounding margin of dichotomy_core.

    Exactly one of the two cases holds; the universal bracket
    a2 - |gamma|(a1-a2) - |b| <= u <= a1 + |gamma|(a1-a2) + |b| is asserted,
    both within the rounding margin.
    Evaluated by dichotomy_core on float64 scalars. Raises
    PreconditionFailed when a1 <= a2 or the inequality fails, then
    HypothesisFailed when both or neither case holds or u escapes the
    bracket.
    """
    r = dichotomy_core(np.float64(a1), np.float64(a2), np.float64(b),
                       np.float64(u))
    if not r.ordered:
        raise PreconditionFailed("require a1 > a2")
    if not r.in_range:
        raise PreconditionFailed(
            f"|(u-a1)(u-a2) - b^2| = {abs(r.expr):.3e} not < (a1-a2)^2/4 = "
            f"{r.bound:.3e} less the rounding margin {r.margin:.3e}")
    if r.plus == r.minus:
        raise HypothesisFailed("dichotomy exclusivity",
                               f"plus={bool(r.plus)} minus={bool(r.minus)} at u={u}")
    if not r.bracket_ok:
        raise HypothesisFailed("dichotomy bracket", f"u={u} escapes the bracket")
    return DichotomyResult(case="plus_case" if r.plus else "minus_case",
                           lam=float(r.lam), gamma=float(r.gamma))


# --- continued-fraction-functions ---

@dataclass
class CffNode:
    """Node of the CFF hierarchy.

    Leaves (level 0) are the linear factors u - a(x,u) with chi = f, mu = 1,
    tau = 1. A composite at level l >= 1 is f = f_first - b^2 / f_second with
    mu multiplying in the trailing child and chi = chi1*chi2 - mu1*mu2*b^2
    (smooth through the poles of f). cff_build makes level 1 only.
    """

    level: int
    kind: str                        # "leaf" | "composite"
    a: Callable | None = None
    f1: "CffNode | None" = None
    f2: "CffNode | None" = None
    b2: Callable | None = None
    choice: int = 1                  # 1: f = f1 - b^2/f2 ; 2: f = f2 - b^2/f1

    def f(self, x: float, u: float) -> float:
        if self.kind == "leaf":
            return u - self.a(x, u)
        lead, trail = (self.f1, self.f2) if self.choice == 1 else (self.f2, self.f1)
        return lead.f(x, u) - self.b2(x, u) / trail.f(x, u)

    def mu(self, x: float, u: float) -> float:
        if self.kind == "leaf":
            return 1.0
        trail = self.f2 if self.choice == 1 else self.f1
        return self.f1.mu(x, u) * self.f2.mu(x, u) * trail.f(x, u)

    def chi(self, x: float, u: float) -> float:
        if self.kind == "leaf":
            return self.f(x, u)
        return (self.f1.chi(x, u) * self.f2.chi(x, u)
                - self.f1.mu(x, u) * self.f2.mu(x, u) * self.b2(x, u))

    def tau(self, x: float, u: float) -> float:
        if self.kind == "leaf":
            return 1.0
        return ((self.f2.chi(x, u) - self.f1.chi(x, u))
                * self.f1.tau(x, u) * self.f2.tau(x, u))

    def children_min_tau(self, x: float, u: float) -> float:
        if self.kind == "leaf":
            return 1.0
        return min(self.f1.tau(x, u), self.f2.tau(x, u))


def leaf(a: Callable) -> CffNode:
    return CffNode(level=0, kind="leaf", a=a)


def _fd(fun, x, u, h=None, *, order):
    # second differences need a larger step: cancellation noise goes like
    # eps/h^2, and the admissibility thresholds can be tiny
    if h is None:
        h = 1e-6 if order == 1 else 1e-4
    if order == 1:
        return (fun(x, u + h) - fun(x, u - h)) / (2 * h)
    return (fun(x, u + h) - 2 * fun(x, u) + fun(x, u - h)) / (h * h)


def cff_build(f1: CffNode, f2: CffNode, b2: Callable,
              grid: Sequence[tuple[float, float]]) -> tuple[CffNode, CffNode]:
    """Build the level-1 composite pair {f(.,1), f(.,2)} of two leaves after
    checking the basic smallness conditions on the sample grid; raises
    AdmissibilityFailed naming condition and point.
    """
    if f1.kind != "leaf" or f2.kind != "leaf":
        raise AdmissibilityFailed("leaf children", None)
    for (x, u) in grid:
        a1v, a2v = f1.a(x, u), f2.a(x, u)
        if not a1v > a2v:
            raise AdmissibilityFailed("(iii) a1 > a2", (x, u))
        for fun, name in ((f1.a, "a1"), (f2.a, "a2")):
            if abs(_fd(fun, x, u, order=1)) >= 0.5:
                raise AdmissibilityFailed(f"(v) |d_u {name}| < 1/2", (x, u))
            if abs(_fd(fun, x, u, order=2)) >= 1 / 64:
                raise AdmissibilityFailed(f"|d2_u {name}| < 1/64", (x, u))
        bv = math.sqrt(abs(b2(x, u)))
        db2 = abs(_fd(b2, x, u, order=1))
        if not db2 < max(bv / 4.0, 1e-12):
            raise AdmissibilityFailed("(v) |d_u b^2| < |b|/4", (x, u))
        if not abs(u - a1v) < 1 / 64 or not abs(u - a2v) < 1 / 64:
            raise AdmissibilityFailed("|u - a_i| < 1/64", (x, u))
        if not abs(b2(x, u)) < 1 / 64:
            raise AdmissibilityFailed("b^2 < 1/64", (x, u))
    return (CffNode(level=1, kind="composite", f1=f1, f2=f2, b2=b2, choice=1),
            CffNode(level=1, kind="composite", f1=f1, f2=f2, b2=b2, choice=2))


@dataclass(frozen=True)
class BranchSolveResult:
    zeta_minus: tuple
    zeta_plus: tuple
    derivative_split_ok: bool
    convexity_ok: bool
    continuity_ok: bool


def cff_branch_solve(node: CffNode, x_grid: Sequence[float],
                     u_window: Callable[[float], tuple[float, float]]
                     ) -> BranchSolveResult:
    """Per x: the two roots of chi^{(f)}(x, .) = 0 with continuation seeding.

    Asserts the derivative-sign split (d_u chi <= -(tau^f)^2 at zeta-, >= +
    at zeta+) and the convexity d2_u chi > (1/2)(min_i tau^{(f_i)})^4 by central
    differences with a Richardson consistency check.
    """
    zminus, zplus = [], []
    split_ok = True
    convex_ok = True
    cont_ok = True
    prev = None
    xs = list(x_grid)
    for pos, x in enumerate(xs):
        lo, hi = u_window(x)
        chi_u = np.vectorize(lambda u: node.chi(x, u), otypes=[float])
        roots = []
        if prev is not None:
            width = max(4.0 * abs(prev[1] - prev[0]), 64.0 * ROOT_TOL,
                        (hi - lo) / CFF_SCAN_POINTS)
            for seed in prev:
                roots += _sign_change_roots(chi_u, seed - width, seed + width,
                                            65)
        if len(roots) != 2:
            roots = _sign_change_roots(chi_u, lo, hi, CFF_SCAN_POINTS)
        if len(roots) != 2:
            raise RootCountMismatch(2, len(roots), roots)
        zm, zp = sorted(roots)
        for z, want_negative in ((zm, True), (zp, False)):
            d1 = _fd(node.chi, x, z, h=CFF_FD_STEP, order=1)
            d1_half = _fd(node.chi, x, z, h=CFF_FD_STEP / 2, order=1)
            if abs(d1 - d1_half) > 1e-3 * max(1.0, abs(d1)):
                raise HypothesisFailed("finite-difference consistency",
                                       f"Richardson gap at x={x}")
            tau_here = node.tau(x, z)
            threshold = tau_here**2
            if want_negative and not d1 <= -threshold + 1e-12:
                split_ok = False
            if not want_negative and not d1 >= threshold - 1e-12:
                split_ok = False
            d2 = _fd(node.chi, x, z, h=CFF_FD_STEP, order=2)
            mt = node.children_min_tau(x, z)
            if not d2 > 0.5 * mt**4 - 1e-12:
                convex_ok = False
        if prev is not None:
            dx = abs(x - xs[pos - 1])
            for znew, zold in ((zm, prev[0]), (zp, prev[1])):
                slope = abs(_fd(node.chi, x, znew, h=CFF_FD_STEP, order=1))
                dchidx = abs((node.chi(x, znew) - node.chi(xs[pos - 1], znew)) / dx) \
                    if dx > 0 else 0.0
                local_bound = (dchidx / max(slope, 1e-12) + 1e-9) * dx
                if abs(znew - zold) > 10.0 * max(local_bound, ROOT_TOL * 100):
                    cont_ok = False
        prev = (zm, zp)
        zminus.append(zm)
        zplus.append(zp)
    return BranchSolveResult(
        zeta_minus=tuple(zminus), zeta_plus=tuple(zplus),
        derivative_split_ok=split_ok, convexity_ok=convex_ok,
        continuity_ok=cont_ok,
    )
