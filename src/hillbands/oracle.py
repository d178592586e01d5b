"""Independent ground truth: dense eigensolving and the Floquet ODE analysis.

The dense route diagonalizes truncations of the dual matrix; the ODE route
propagates -y'' + eps*V~(x) y = E y over one period, for every energy at once
with a fourth-order Magnus scheme, and reads bands off the monodromy trace.
Each scan is cross-checked at one energy by order-8 Gauss-Legendre
collocation, an implicit Runge-Kutta method that shares no formula with the
Magnus scheme. Both routes are kept free of the multi-scale machinery so they
can arbitrate its outputs; Brent's root finder (brent_root, and refine_root,
which raises NoConvergence for it) lives here for the same reason, and the
multi-scale layers import it from this module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (IntegratorFailure, NoConvergence, NonRealValue,
                     PreconditionFailed)
from .lattice import FrequencyVector
from .operators import DualMatrix
from .potential import FoldedCoefficients


# Brent's method stops once the bracket is below xtol + BRENT_RTOL |x|, or
# gives up after BRENT_MAXITER steps: scipy's brentq defaults.
BRENT_RTOL = 4.0 * sys.float_info.epsilon
BRENT_MAXITER = 100


def brent_root(f: Callable[[float], float], a: float, b: float,
               xtol: float) -> tuple[float, int, bool]:
    """(x, iterations, converged) for a root of f in the bracket [a, b].

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) as scipy's brentq runs it (Zeros/brentq.c), step for step:
    inverse quadratic extrapolation or secant interpolation when the step is
    short enough, bisection otherwise, so it returns the same x after the
    same number of iterations. ValueError when f is NaN, or when f(a) and
    f(b) have the same sign.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre, 0, True
    if fcur == 0.0:
        return xcur, 0, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for iteration in range(1, BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iteration, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # an underflowed divisor: C gets an infinite or NaN step,
                # which the test below rejects
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    return xcur, BRENT_MAXITER, False


def refine_root(f: Callable[[float], float], a: float, b: float,
                xtol: float) -> float:
    """The root of f in the sign-changing bracket [a, b] to xtol, by
    brent_root. NoConvergence when it stops unconverged after its 100
    iterations, or with residual NaN when f is NaN or [a, b] does not change
    sign."""
    try:
        x, iterations, converged = brent_root(f, a, b, xtol)
    except ValueError as exc:
        raise NoConvergence(0, math.nan) from exc
    if not converged:
        raise NoConvergence(iterations, abs(f(x)))
    return x


def dense_spectrum(matrix):
    """Full Hermitian eigendecomposition with a residual certificate:
    ||H V - V diag(w)||_max <= 1e-10 max(1, ||H||_2).

    Accepts a DualMatrix or a plain ndarray; returns (eigenvalues, vectors).
    """
    H = matrix.values if isinstance(matrix, DualMatrix) else np.asarray(matrix)
    if H.shape[0] > 4000:
        raise PreconditionFailed("dense oracle capped at |Lambda| <= 4000")
    w, V = np.linalg.eigh(H)
    # ||H||_2 = max|w| for Hermitian H: no second factorization for the scale
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = float(np.max(np.abs(H @ V - V * w)))
    if resid > 1e-10 * scale:
        raise IntegratorFailure(
            f"eigendecomposition residual {resid:.3e} above 1e-10*||H||")
    return w, V


def period(omega: FrequencyVector) -> Fraction:
    """Least T > 0 with T*omega_j integer for all j: lcm of t_j / gcd(l_j, t_j).

    Uses the effective (rescaled) components so the result matches xi.
    """
    T = 1
    for c in omega.effective:
        if c == 0:
            continue
        t = c.denominator // math.gcd(abs(c.numerator), c.denominator)
        T = math.lcm(T, t)
    return Fraction(T)


# Fourth-order Magnus scheme on the two Gauss-Legendre nodes of each step
# (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009), section 5).
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0
# Step matrices held at once for each energy: memory is O(len(E) * CHUNK_STEPS)
# whatever the step count.
CHUNK_STEPS = 64
# The step count doubles until no Delta moves by more than
# STEP_DOUBLING_TOL * max(1, |Delta|); past MAX_STEPS the scheme gives up.
STEP_DOUBLING_TOL = 1e-11
MAX_STEPS = 1 << 20
# Allowed |det M - 1| per max(1, |M|_F^2): forming det M loses about
# 1e-16 |M|^2 to cancellation, which a long period deep in a gap makes large.
WRONSKIAN_TOL = 1e-9
# Allowed |Delta_Magnus - Delta_collocation| / max(1, |Delta|) at the grid
# point each floquet_scan re-integrates by collocation.
CROSSCHECK_TOL = 1e-8
# Doublings of its first step count after which the collocation gives up.
# Cosine potentials of period T <= 68 at E in [-0.5, 200] and eps in
# {0.05, 2} settle within 4. The cap is relative to the first count,
# 2 T sqrt(max(1, |E|)): omega = (1, 21/34) at E = 200 needs 15392 steps,
# which an absolute cap tight enough for T = 1 would refuse.
COLLOCATION_MAX_DOUBLINGS = 8
# Four-stage Gauss-Legendre collocation, order 8 (Hairer, Lubich & Wanner,
# Geometric Numerical Integration, section II.1.3): the nodes are the roots of
# the Legendre polynomial P_4 on [0, 1].
_COLLOCATION_NODES = np.array(sorted(
    0.5 + sign * 0.5 * math.sqrt(3.0 / 7.0 + inner * 2.0 / 7.0 * math.sqrt(1.2))
    for sign in (-1.0, 1.0) for inner in (-1.0, 1.0)))


def _collocation_tableau(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Runge-Kutta coefficients of collocation on the nodes c:
    a_ij = int_0^{c_i} l_j and b_j = int_0^1 l_j, with l_j the Lagrange
    basis polynomials of c."""
    powers = np.arange(len(c))
    # l_j(x) = sum_k L_kj x^k with L the inverse of V_ik = c_i^k
    L = np.linalg.inv(c[:, None] ** powers)
    ends = np.append(c, 1.0)
    integrals = ends[:, None] ** (powers + 1) / (powers + 1)
    coefficients = integrals @ L
    return coefficients[:-1], coefficients[-1]


_COLLOCATION_A, _COLLOCATION_B = _collocation_tableau(_COLLOCATION_NODES)
# Collocation steps solved at once: memory is O(COLLOCATION_CHUNK_STEPS)
# whatever the step count.
COLLOCATION_CHUNK_STEPS = 4096


@dataclass(frozen=True)
class FloquetData:
    E_grid: tuple
    discriminant: tuple
    bands: tuple  # intervals {E : |Delta(E)| <= 2}
    wronskian_drift: float  # max |det M - 1| over the grid


def potential_callable(folded: FoldedCoefficients):
    """Vectorized V~(x) = sum over cosets of c(n_bar) e^{2 pi i xi(n_bar) x}
    for a scalar or an array of x (frequencies and amplitudes prebaked);
    raises NonRealValue when the imaginary residue exceeds
    1e-12 * max(1, sum |c|)."""
    freqs = np.array([2.0 * math.pi * e.xi_float for e in folded.entries])
    amps = np.array(list(folded.entries.values()), dtype=np.complex128)
    scale = max(1.0, float(np.sum(np.abs(amps))))

    def V(x):
        total = np.exp(1j * np.multiply.outer(np.asarray(x, dtype=float),
                                              freqs)) @ amps
        residue = float(np.max(np.abs(total.imag), initial=0.0))
        if residue > 1e-12 * scale:
            raise NonRealValue(
                f"imaginary residue {residue:.3e} of V~ exceeds tolerance")
        return total.real

    return V


def _ordered_product(S: np.ndarray) -> np.ndarray:
    """S[m-1] @ ... @ S[1] @ S[0] over axis 0, multiplied as a pairwise tree."""
    while len(S) > 1:
        paired = S[1::2] @ S[0:len(S) - 1:2]
        S = np.concatenate([paired, S[-1:]]) if len(S) % 2 else paired
    return S[0]


def _monodromy(E: np.ndarray, eps: float, V, T: Fraction,
               n: int) -> np.ndarray:
    """M(E) = Y(T), Y(0) = I, of Y' = A Y with A = [[0, 1], [eps V~ - E, 0]],
    for every E at once by n Magnus steps; shape (len(E), 2, 2).

    With q = eps V~ - E at the two nodes, Omega = h/2 (A1 + A2)
    + (sqrt(3)/12) h^2 [A2, A1] = [[a, h], [b, -a]]: the commutator is
    diag(q1 - q2, q2 - q1), free of E. Omega is traceless, so
    exp(Omega) = cosh(s) I + sinh(s)/s Omega with s^2 = -det Omega.
    """
    h = float(T) / n
    M = np.broadcast_to(np.eye(2), (E.size, 2, 2)).copy()
    for start in range(0, n, CHUNK_STEPS):
        j = np.arange(start, min(n, start + CHUNK_STEPS), dtype=float)
        v1 = eps * V((j + _GAUSS_NODES[0]) * h)
        v2 = eps * V((j + _GAUSS_NODES[1]) * h)
        a = (_COMMUTATOR_WEIGHT * h * h * (v1 - v2))[:, None]
        b = 0.5 * h * ((v1 + v2)[:, None] - 2.0 * E)
        s2 = a * a + h * b
        r = np.sqrt(np.abs(s2))
        growing = s2 > 0.0
        cosh_s = np.where(growing, np.cosh(r), np.cos(r))
        sinh_s = np.where(growing, np.sinh(r), np.sin(r))
        sinhc_s = np.where(r > 0.0, sinh_s / np.where(r > 0.0, r, 1.0), 1.0)
        S = np.empty(s2.shape + (2, 2))
        S[..., 0, 0] = cosh_s + sinhc_s * a
        S[..., 0, 1] = sinhc_s * h
        S[..., 1, 0] = sinhc_s * b
        S[..., 1, 1] = cosh_s - sinhc_s * a
        M = _ordered_product(S) @ M
    return M


def _discriminants(E, eps: float, folded: FoldedCoefficients,
                   T: Fraction) -> tuple[np.ndarray, np.ndarray]:
    """(Delta(E), |det M(E) - 1|) for a 1-D array of E, from one Magnus run.

    The step count starts at 8 T sqrt(max(1, max|E|)) and doubles until no
    Delta changes by more than STEP_DOUBLING_TOL * max(1, |Delta|); the finer
    run is returned. Raises IntegratorFailure past MAX_STEPS or when the
    Wronskian det M drifts from 1 by more than WRONSKIAN_TOL * max(1, |M|^2).
    """
    E = np.asarray(E, dtype=float)
    if not (np.all(np.isfinite(E)) and math.isfinite(eps)):
        raise PreconditionFailed("Floquet energies and coupling must be finite")
    V = potential_callable(folded)
    E_max = float(np.max(np.abs(E), initial=0.0))
    n = math.ceil(8.0 * float(T) * math.sqrt(max(1.0, E_max)))
    coarse = None
    while True:
        if n > MAX_STEPS:
            raise IntegratorFailure(
                f"Magnus step doubling did not settle to "
                f"{STEP_DOUBLING_TOL:.0e} within {MAX_STEPS} steps")
        M = _monodromy(E, eps, V, T, n)
        delta = M[:, 0, 0] + M[:, 1, 1]
        if coarse is not None and np.all(
                np.abs(delta - coarse)
                <= STEP_DOUBLING_TOL * np.maximum(1.0, np.abs(delta))):
            break
        coarse = delta
        n *= 2
    return delta, _wronskian_drift(M)


def _wronskian_drift(M: np.ndarray) -> np.ndarray:
    """|det M - 1| over a stack of 2x2 monodromies; IntegratorFailure where it
    exceeds WRONSKIAN_TOL * max(1, |M|_F^2)."""
    drift = np.abs(M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0] - 1.0)
    allowed = WRONSKIAN_TOL * np.maximum(1.0, np.sum(M * M, axis=(1, 2)))
    over = np.flatnonzero(drift > allowed)
    if over.size:
        i = over[0]
        raise IntegratorFailure(
            f"Wronskian drift {drift[i]:.3e} exceeds {allowed[i]:.3e} "
            f"= {WRONSKIAN_TOL:.0e} * max(1, |M|^2)")
    return drift


def ivp_discriminant(E: float, eps: float, folded: FoldedCoefficients,
                     T: Fraction) -> float:
    """Delta(E) by four-stage Gauss-Legendre collocation: the cross-check of
    floquet_scan, independent of the Magnus kernel.

    Each step solves the collocation system of Y' = A Y on its four nodes
    for the 2x2 step propagator, every step of a chunk in one batched 8x8
    solve, and the propagators are multiplied in order. The step count starts
    at 2 T sqrt(max(1, |E|)) and doubles until Delta changes by at most
    STEP_DOUBLING_TOL * max(1, |Delta|); IntegratorFailure after
    COLLOCATION_MAX_DOUBLINGS doublings or when the Wronskian drifts as in
    _wronskian_drift.
    """
    V = potential_callable(folded)
    stages = len(_COLLOCATION_NODES)
    # the 8x8 system of the stage values, ordered (y, y') per stage:
    # Z_i - h sum_j a_ij A_j Z_j = Y_n with A_j = [[0, 1], [q_j, 0]]
    upper = np.kron(_COLLOCATION_A, [[0.0, 1.0], [0.0, 0.0]])
    lower = np.kron(_COLLOCATION_A, [[0.0, 0.0], [1.0, 0.0]])
    initial = np.tile(np.eye(2), (stages, 1))
    # a quarter of the Magnus scheme's first count: order 8 settles on
    # coarser steps
    n = math.ceil(2.0 * float(T) * math.sqrt(max(1.0, abs(E))))
    max_steps = n << COLLOCATION_MAX_DOUBLINGS
    coarse = None
    while True:
        if n > max_steps:
            raise IntegratorFailure(
                f"collocation step doubling did not settle to "
                f"{STEP_DOUBLING_TOL:.0e} within {max_steps} steps")
        h = float(T) / n
        m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
        for first in range(0, n, COLLOCATION_CHUNK_STEPS):
            steps = np.arange(first, min(n, first + COLLOCATION_CHUNK_STEPS))
            q = eps * V((steps[:, None] + _COLLOCATION_NODES) * h) - E
            system = (np.eye(2 * stages) - h * upper
                      - h * lower * np.repeat(q, 2, axis=1)[:, None, :])
            Z = np.linalg.solve(
                system, np.broadcast_to(initial, (len(steps), 2 * stages, 2)))
            # Y_{n+1} = Y_n + h sum_j b_j A_j Z_j
            top = h * np.einsum("j,njk->nk", _COLLOCATION_B, Z[:, 1::2])
            bottom = h * np.einsum("j,nj,njk->nk", _COLLOCATION_B, q,
                                   Z[:, 0::2])
            for (p00, p01), (p10, p11) in zip((top + [1.0, 0.0]).tolist(),
                                              (bottom + [0.0, 1.0]).tolist()):
                m00, m01, m10, m11 = (p00 * m00 + p01 * m10,
                                      p00 * m01 + p01 * m11,
                                      p10 * m00 + p11 * m10,
                                      p10 * m01 + p11 * m11)
        delta = m00 + m11
        if coarse is not None and (abs(delta - coarse)
                                   <= STEP_DOUBLING_TOL * max(1.0, abs(delta))):
            break
        coarse = delta
        n *= 2
    _wronskian_drift(np.array([[[m00, m01], [m10, m11]]]))
    return delta


def floquet_discriminant(E: float, eps: float, folded: FoldedCoefficients,
                         T: Fraction) -> float:
    """Delta(E) = y1(T) + y2'(T) for -y'' + eps V~ y = E y, with the canonical
    initial conditions; Wronskian conservation asserted to
    1e-9 * max(1, |M|^2)."""
    delta, _ = _discriminants([E], eps, folded, T)
    return float(delta[0])


def floquet_gap_edges(bracket_low: tuple[float, float],
                      bracket_high: tuple[float, float], eps: float,
                      folded: FoldedCoefficients, T: Fraction
                      ) -> tuple[float, float]:
    """Gap edges by refine_root on |Delta| - 2 inside each one-sided
    bracket, to 1e-10; NoConvergence when an edge does not converge or
    Delta is NaN.

    In a gap |Delta| > 2 and on band interiors |Delta| < 2; the brackets must
    straddle one crossing each (typically seeded from the dense spectrum),
    else PreconditionFailed. Each distinct energy is integrated once: the
    straddle check and Brent's first steps read the same ends, and the two
    brackets typically share their inner end.
    """
    values: dict[float, float] = {}

    def g(E: float) -> float:
        if E not in values:
            values[E] = abs(floquet_discriminant(E, eps, folded, T)) - 2.0
        return values[E]

    def edge(bracket):
        a, b = bracket
        if g(a) * g(b) > 0:
            raise PreconditionFailed(
                f"bracket ({a}, {b}) does not straddle |Delta| = 2"
            )
        return refine_root(g, a, b, 1e-10)

    return edge(bracket_low), edge(bracket_high)


def floquet_scan(E_grid, eps: float, folded: FoldedCoefficients,
                 T: Fraction) -> FloquetData:
    """Tabulate Delta over a grid and mark the |Delta| <= 2 band intervals.

    The grid point whose |Delta| is closest to 2, whose band membership is
    the most at risk, is re-integrated by collocation (ivp_discriminant); a
    difference above CROSSCHECK_TOL * max(1, |Delta|) raises
    IntegratorFailure.
    """
    E = np.array([float(x) for x in E_grid])
    delta, drift = _discriminants(E, eps, folded, T)
    if E.size:
        i = int(np.argmin(np.abs(np.abs(delta) - 2.0)))
        reference = ivp_discriminant(float(E[i]), eps, folded, T)
        if abs(reference - delta[i]) > CROSSCHECK_TOL * max(1.0, abs(delta[i])):
            raise IntegratorFailure(
                f"Magnus Delta {delta[i]!r} and collocation Delta "
                f"{reference!r} differ at E={E[i]!r}")
    deltas = [float(d) for d in delta]
    bands = []
    start = None
    for Ei, d in zip(E_grid, deltas):
        inside = abs(d) <= 2.0
        if inside and start is None:
            start = float(Ei)
        if not inside and start is not None:
            bands.append((start, float(Ei)))
            start = None
    if start is not None:
        bands.append((start, float(E_grid[-1])))
    return FloquetData(E_grid=tuple(float(x) for x in E_grid),
                       discriminant=tuple(deltas), bands=tuple(bands),
                       wronskian_drift=float(np.max(drift, initial=0.0)))


def bloch_residual(domain, phi, k: float, E: float, eps: float,
                   folded: FoldedCoefficients, T: Fraction) -> float:
    """Max |(-y'' + eps V~ y - E y)(x)| over one period for the Bloch candidate
    y(x) = sum phi(n) e^{2 pi i (xi(n)+k) x}; small residual certifies the
    matrix-ODE duality up to the Lambda-truncation tail.

    The 128 samples x_i = T i / 128 are evaluated at once, as one
    (128 x |domain|) phase matrix.
    """
    freqs = 2.0 * math.pi * np.array([e.xi_float + k for e in domain])
    amps = np.asarray(phi, dtype=np.complex128)
    x = float(T) * np.arange(128) / 128
    phase = np.exp(1j * np.multiply.outer(x, freqs))
    y = phase @ amps
    ypp = phase @ (amps * (1j * freqs) ** 2)
    r = -ypp + (eps * potential_callable(folded)(x) - E) * y
    return float(np.max(np.abs(r), initial=0.0))
