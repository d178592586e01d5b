"""Independent ground truth: dense eigensolving and the Floquet ODE analysis.

The dense route diagonalizes truncations of the dual matrix; the ODE route
integrates -y'' + eps*V~(x) y = E y over one period and reads bands off the
monodromy trace. Both are kept free of the multi-scale machinery so they can
arbitrate its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import IntegratorFailure, PreconditionFailed
from .lattice import FrequencyVector
from .operators import DualMatrix
from .potential import FoldedCoefficients, eval_potential


def dense_spectrum(matrix, residual_tol: float = 1e-10):
    """Full Hermitian eigendecomposition with a residual certificate.

    Accepts a DualMatrix or a plain ndarray; returns (eigenvalues, vectors).
    """
    H = matrix.values if isinstance(matrix, DualMatrix) else np.asarray(matrix)
    if H.shape[0] > 4000:
        raise PreconditionFailed("dense oracle capped at |Lambda| <= 4000")
    w, V = np.linalg.eigh(H)
    # ||H||_2 = max|w| for Hermitian H: no second factorization for the scale
    scale = max(1.0, float(np.max(np.abs(w))))
    resid = float(np.max(np.abs(H @ V - V * w)))
    if resid > residual_tol * scale:
        raise IntegratorFailure(
            f"eigendecomposition residual {resid:.3e} above {residual_tol:.0e}*||H||"
        )
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


@dataclass(frozen=True)
class FloquetData:
    T: Fraction
    E_grid: tuple
    discriminant: tuple
    bands: tuple  # intervals {E : |Delta(E)| <= 2}


def potential_callable(folded: FoldedCoefficients):
    """Fast vectorized V~(x) evaluator (frequencies and amplitudes prebaked)."""
    freqs = np.array([2.0 * math.pi * float(e.xi) for e in folded.entries])
    amps = np.array(list(folded.entries.values()), dtype=np.complex128)

    def V(x: float) -> float:
        if freqs.size == 0:
            return 0.0
        return float(np.sum(amps * np.exp(1j * freqs * x)).real)

    return V


def floquet_discriminant(E: float, eps: float, folded: FoldedCoefficients,
                         T: Fraction, *, rtol: float = 1e-12,
                         atol: float = 1e-12,
                         wronskian_tol: float = 1e-9) -> float:
    """Delta(E) = y1(T) + y2'(T) for -y'' + eps V~ y = E y, with the canonical
    initial conditions; Wronskian conservation asserted to 1e-9."""
    Tf = float(T)
    V = potential_callable(folded)

    def rhs(x, y):
        v = eps * V(x)
        # y = (y1, y1', y2, y2')
        return [y[1], (v - E) * y[0], y[3], (v - E) * y[2]]

    sol = solve_ivp(rhs, (0.0, Tf), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=False)
    if not sol.success:
        raise IntegratorFailure(sol.message)
    y1, y1p, y2, y2p = sol.y[:, -1]
    wronskian = y1 * y2p - y1p * y2
    if abs(wronskian - 1.0) > wronskian_tol:
        raise IntegratorFailure(
            f"Wronskian drift {abs(wronskian - 1.0):.3e} exceeds {wronskian_tol:.0e}"
        )
    return float(y1 + y2p)


def floquet_gap_edges(center: float, bracket_low: tuple[float, float],
                      bracket_high: tuple[float, float], eps: float,
                      folded: FoldedCoefficients, T: Fraction,
                      xtol: float = 1e-10) -> tuple[float, float]:
    """Gap edges by bisection on |Delta| - 2 inside each one-sided bracket.

    In a gap |Delta| > 2 and on band interiors |Delta| < 2; the brackets must
    straddle one crossing each (typically seeded from the dense spectrum).
    """
    g = lambda E: abs(floquet_discriminant(E, eps, folded, T)) - 2.0

    def edge(bracket):
        a, b = bracket
        ga, gb = g(a), g(b)
        if ga * gb > 0:
            raise PreconditionFailed(
                f"bracket ({a}, {b}) does not straddle |Delta| = 2"
            )
        return brentq(g, a, b, xtol=xtol)

    lo = edge(bracket_low)
    hi = edge(bracket_high)
    return float(lo), float(hi)


def floquet_scan(E_grid, eps: float, folded: FoldedCoefficients,
                 T: Fraction) -> FloquetData:
    """Tabulate Delta over a grid and mark the |Delta| <= 2 band intervals."""
    deltas = [floquet_discriminant(float(E), eps, folded, T) for E in E_grid]
    bands = []
    start = None
    for E, d in zip(E_grid, deltas):
        inside = abs(d) <= 2.0
        if inside and start is None:
            start = float(E)
        if not inside and start is not None:
            bands.append((start, float(E)))
            start = None
    if start is not None:
        bands.append((start, float(E_grid[-1])))
    return FloquetData(T=T, E_grid=tuple(float(E) for E in E_grid),
                       discriminant=tuple(deltas), bands=tuple(bands))


def bloch_residual(domain, phi, k: float, E: float, eps: float,
                   folded: FoldedCoefficients, T: Fraction,
                   samples: int = 128) -> float:
    """Max |(-y'' + eps V~ y - E y)(x)| over one period for the Bloch candidate
    y(x) = sum phi(n) e^{2 pi i (xi(n)+k) x}; small residual certifies the
    matrix-ODE duality up to the Lambda-truncation tail."""
    freqs = np.array([float(e.xi) + k for e in domain])
    amps = np.asarray(phi, dtype=np.complex128)
    worst = 0.0
    Tf = float(T)
    for i in range(samples):
        x = Tf * i / samples
        phase = np.exp(2j * math.pi * freqs * x)
        y = np.sum(amps * phase)
        ypp = np.sum(amps * phase * (2j * math.pi * freqs) ** 2)
        v = eps * eval_potential(x, folded)
        r = -ypp + (v - E) * y
        worst = max(worst, abs(r))
    return float(worst)
