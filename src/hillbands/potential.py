"""Fourier data of the potential and its folding onto the quotient.

Input coefficients live on Z^nu with finite support; folding sums every
in-support representative of a coset exactly, so Hermitian symmetry of the
folded data is exact by construction (mirror pairs share one computed sum).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationFailed
from .lattice import GroupElement, QuotientLattice


@dataclass(frozen=True)
class FourierCoefficients:
    """Map n -> c(n) on Z^nu with decay metadata.

    Contract: c(0)=0, c(-n)=conj(c(n)), |c(n)| <= exp(-kappa0 |n|^alpha0),
    entries outside ``support_radius`` are implicitly zero.
    """

    entries: dict[tuple[int, ...], complex]
    kappa0: float
    alpha0: float
    support_radius: int

    def value(self, n: tuple[int, ...]) -> complex:
        return self.entries.get(tuple(n), 0.0 + 0.0j)


@dataclass(frozen=True)
class FoldedCoefficients:
    """Folded map on the quotient: c(n_bar) = sum over the coset."""

    entries: dict[GroupElement, complex]
    kappa0: float
    alpha0: float
    support_radius: int  # of the coefficients on Z^nu

    def value(self, e: GroupElement) -> complex:
        return self.entries.get(e, 0.0 + 0.0j)

    def truncation_tail_bound(self, nu: int) -> float:
        """sum over |n| > support_radius of exp(-kappa0 |n|^alpha0), over at
        most 4000 shells.

        The finite-support contract replaces a sub-exponentially decaying
        tail; this is the documented bound on what the truncation discards.
        """
        total = 0.0
        for r in range(self.support_radius + 1, self.support_radius + 4000):
            count = (2 * r + 1) ** nu - (2 * r - 1) ** nu
            term = count * math.exp(-self.kappa0 * r**self.alpha0)
            total += term
            if term < 1e-18 * max(total, 1.0):
                break
        return total


def validate(c: FourierCoefficients) -> list[str]:
    """Check the coefficient contract; returns the violation list (empty = valid)."""
    violations = []
    zero = tuple([0] * len(next(iter(c.entries), (0,))))
    if abs(c.value(zero)) != 0:
        violations.append(f"c(0) = {c.value(zero)} != 0")
    for n, v in c.entries.items():
        neg = tuple(-x for x in n)
        if abs(c.value(neg) - v.conjugate()) > 0:
            violations.append(f"conjugate symmetry fails at n={n}")
        norm = max(abs(x) for x in n) if any(n) else 0
        if norm > c.support_radius:
            violations.append(f"entry n={n} outside support radius {c.support_radius}")
        bound = math.exp(-c.kappa0 * norm**c.alpha0)
        if abs(v) > bound * (1 + 1e-12):
            violations.append(f"decay bound fails at n={n}: |c|={abs(v):.3e} > {bound:.3e}")
    return violations


def fold(c: FourierCoefficients, lat: QuotientLattice,
         enforce_bound: bool = True) -> FoldedCoefficients:
    """Fold c onto the quotient: c(n_bar) = sum of c over the coset.

    Finite support makes the sum exact. Raises ValidationFailed when c
    breaks its contract (``validate``) or, with ``enforce_bound``, when a
    coset n_bar != 0 breaks the decay hypothesis
    |c(n_bar)| <= exp(-kappa0 |n_bar|^alpha0) of the dual matrix, which
    holds for every k and domain once it holds here; the message names each
    such coset. A mode vector without nu components raises ValueError.
    """
    nu = lat.nu
    wrong = [list(n) for n in c.entries if len(n) != nu]
    if wrong:
        raise ValueError(f"potential modes {wrong} do not have nu = {nu} "
                         f"components")
    violations = validate(c)
    if violations:
        raise ValidationFailed(violations)
    by_coset: dict[GroupElement, complex] = {}
    r = c.support_radius
    for vec in itertools.product(range(-r, r + 1), repeat=nu):
        v = c.value(vec)
        if v == 0:
            continue
        e = lat.canonicalize(vec)
        by_coset[e] = by_coset.get(e, 0.0 + 0.0j) + complex(v)
    # Rebuild with exact mirror symmetry: compute one side, conjugate the
    # other; self-conjugate cosets are real by the pairing, enforce it.
    entries: dict[GroupElement, complex] = {}
    for e, v in by_coset.items():
        neg = lat.neg(e)
        if e.rep <= neg.rep:
            if neg == e:
                entries[e] = complex(v.real)
            else:
                entries[e] = v
                entries[neg] = v.conjugate()
    if enforce_bound:
        for e in sorted(entries, key=GroupElement.key):
            bound = math.exp(-c.kappa0 * e.norm**c.alpha0)
            if not e.is_identity and abs(entries[e]) > bound * (1 + 1e-12):
                violations.append(f"folded decay bound fails at {e}: "
                                  f"|c| = {abs(entries[e]):.3e} > {bound:.3e}")
        if violations:
            raise ValidationFailed(violations)
    return FoldedCoefficients(entries=entries, kappa0=c.kappa0,
                              alpha0=c.alpha0, support_radius=c.support_radius)


# --- built-in generators (seeded, reproducible) ---

def cosine(n0, kappa0: float = 1.0, alpha0: float = 1.0,
           amplitude: float | None = None) -> FourierCoefficients:
    """Single cosine: c(+-n0) = amplitude (default: the decay-bound maximum)."""
    n0 = tuple(int(v) for v in n0)
    norm = max(abs(v) for v in n0)
    if norm == 0:
        raise ValueError("n0 must be nonzero")
    if amplitude is None:
        amplitude = math.exp(-kappa0 * norm**alpha0)
    neg = tuple(-v for v in n0)
    entries = {n0: complex(amplitude), neg: complex(amplitude)}
    return FourierCoefficients(entries=entries, kappa0=kappa0, alpha0=alpha0,
                               support_radius=norm)


def multi_cosine(modes, kappa0: float = 1.0, alpha0: float = 1.0) -> FourierCoefficients:
    """Cosines at several modes: iterable of (n, amplitude)."""
    entries: dict[tuple[int, ...], complex] = {}
    radius = 0
    for n, amp in modes:
        n = tuple(int(v) for v in n)
        neg = tuple(-v for v in n)
        entries[n] = entries.get(n, 0j) + complex(amp)
        entries[neg] = entries.get(neg, 0j) + complex(amp)
        radius = max(radius, max(abs(v) for v in n))
    return FourierCoefficients(entries=entries, kappa0=kappa0, alpha0=alpha0,
                               support_radius=radius)


def exp_decay(support_radius: int, nu: int = 1, kappa0: float = 1.0,
              alpha0: float = 1.0) -> FourierCoefficients:
    """c(n) = exp(-kappa0 |n|^alpha0) for 0 < |n| <= support_radius (real, symmetric)."""
    entries = {}
    for vec in itertools.product(range(-support_radius, support_radius + 1), repeat=nu):
        norm = max(abs(v) for v in vec)
        if norm == 0:
            continue
        entries[vec] = complex(math.exp(-kappa0 * norm**alpha0))
    return FourierCoefficients(entries=entries, kappa0=kappa0, alpha0=alpha0,
                               support_radius=support_radius)


def random_phase(support_radius: int, nu: int = 1, kappa0: float = 1.0,
                 alpha0: float = 1.0, seed: int = 0,
                 amplitude_scale: float = 1.0) -> FourierCoefficients:
    """Random phases on the decay envelope, conjugate-symmetric, seeded."""
    if not (0 < amplitude_scale <= 1):
        raise ValueError("amplitude_scale must be in (0, 1]")
    rng = np.random.default_rng(seed)
    entries: dict[tuple[int, ...], complex] = {}
    for vec in itertools.product(range(-support_radius, support_radius + 1), repeat=nu):
        norm = max(abs(v) for v in vec)
        if norm == 0:
            continue
        neg = tuple(-v for v in vec)
        if vec in entries or neg in entries:
            continue
        theta = rng.uniform(0, 2 * math.pi)
        amp = amplitude_scale * math.exp(-kappa0 * norm**alpha0) * rng.uniform(0.1, 1.0)
        val = amp * cmath.exp(1j * theta)
        entries[vec] = val
        if neg != vec:
            entries[neg] = val.conjugate()
        else:
            entries[vec] = complex(val.real)
    return FourierCoefficients(entries=entries, kappa0=kappa0, alpha0=alpha0,
                               support_radius=support_radius)


def from_config(spec: dict, nu: int) -> FourierCoefficients:
    """Build coefficients from a config block (kind + parameters or explicit list)."""
    kind = spec.get("kind", "explicit")
    kappa0 = float(spec.get("kappa0", 1.0))
    alpha0 = float(spec.get("alpha0", 1.0))
    if kind == "cosine":
        return cosine(spec["n0"], kappa0=kappa0, alpha0=alpha0,
                      amplitude=spec.get("amplitude"))
    if kind == "multi_cosine":
        return multi_cosine([(m["n"], m["amplitude"]) for m in spec["modes"]],
                            kappa0=kappa0, alpha0=alpha0)
    if kind == "exp_decay":
        return exp_decay(int(spec["support_radius"]), nu=nu, kappa0=kappa0,
                         alpha0=alpha0)
    if kind == "random_phase":
        return random_phase(int(spec["support_radius"]), nu=nu, kappa0=kappa0,
                            alpha0=alpha0, seed=int(spec.get("seed", 0)),
                            amplitude_scale=float(spec.get("amplitude_scale", 1.0)))
    if kind == "explicit":
        entries = {}
        radius = 0
        for item in spec["coefficients"]:
            n = tuple(int(v) for v in item["n"])
            entries[n] = complex(float(item.get("re", 0.0)), float(item.get("im", 0.0)))
            radius = max(radius, max(abs(v) for v in n) if any(n) else 0)
        return FourierCoefficients(entries=entries, kappa0=kappa0, alpha0=alpha0,
                                   support_radius=int(spec.get("support_radius", radius)))
    raise ValueError(f"unknown potential kind {kind!r}")
