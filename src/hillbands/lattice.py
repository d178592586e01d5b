"""Exact arithmetic on the quotient group T = Z^nu / N(omega).

Frequency vectors are exact rationals; the null lattice N(omega) is the integer
kernel of m -> m.omega; group elements are canonical coset representatives of
minimal ell-infinity norm with a lexicographic tie-break. The linear functional
xi and all coset arithmetic stay in Fraction; only norms and analysis
quantities are floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import PreconditionFailed


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


@dataclass(frozen=True)
class FrequencyVector:
    """Rational frequency vector omega with the admissibility rescale baked in.

    ``components`` are the raw rationals; ``xi`` evaluations use
    ``effective = components / rescale`` with rescale = max(1, ceil(sum |omega_j|))
    so that |xi(n)| <= |n| holds for the ell-infinity norm. rescale == 1 whenever
    sum |omega_j| <= 1, i.e. the rescale is a no-op for the usual configurations.
    """

    components: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("empty frequency vector")
        if all(c == 0 for c in self.components):
            raise ValueError("frequency vector must be nonzero")

    @classmethod
    def parse(cls, items: Iterable) -> "FrequencyVector":
        """Build from 'p/q' strings (or ints/Fractions)."""
        comps = tuple(Fraction(str(it)) for it in items)
        return cls(comps)

    @property
    def nu(self) -> int:
        return len(self.components)

    @property
    def rescale(self) -> int:
        s = sum(abs(c) for c in self.components)
        return max(1, _ceil_fraction(s))

    @property
    def effective(self) -> tuple[Fraction, ...]:
        r = self.rescale
        if r == 1:
            return self.components
        return tuple(c / r for c in self.components)

    @property
    def denominators(self) -> tuple[int, ...]:
        """Reduced denominators t_j of the raw components (zero components -> 1)."""
        return tuple(c.denominator for c in self.components)

    @property
    def integer_form(self) -> tuple[int, ...]:
        """w with w_j = L * effective_j for L = lcm of effective denominators."""
        L = self.common_denominator
        return tuple(int(c * L) for c in self.effective)

    @property
    def common_denominator(self) -> int:
        L = 1
        for c in self.effective:
            L = math.lcm(L, c.denominator)
        return L


@dataclass(frozen=True)
class NullLattice:
    """Integer basis of N(omega) = { m : m.omega = 0 }, saturated by construction.

    ``unit`` is an integer vector u with u.w = gcd(w) for the integer form w:
    a vector of coordinate t = 1, so t * u is a vector of coordinate t.
    """

    basis: tuple[tuple[int, ...], ...]
    rank: int
    unit: tuple[int, ...]

    def __post_init__(self):
        assert self.rank == len(self.basis)


def null_lattice(omega: FrequencyVector) -> NullLattice:
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
    return NullLattice(basis=tuple(basis), rank=len(basis), unit=unit)


def _sign_normalize(vec: tuple[int, ...]) -> tuple[int, ...]:
    for v in vec:
        if v != 0:
            return vec if v > 0 else tuple(-x for x in vec)
    return vec


@dataclass(frozen=True)
class GroupElement:
    """Canonical coset representative with cached norm, xi value and coordinate.

    ``rep`` minimizes the ell-infinity norm over the coset; among minimizers it
    is lexicographically smallest. ``t = xi / xi_spacing`` is the element's
    integer coordinate: xi is injective on the quotient and its image is
    xi_spacing * Z, so t is an isomorphism onto Z and t(a - b) = t(a) - t(b).
    Equality and hashing are by ``t`` alone, so they are meaningful only
    between elements of one lattice.
    """

    rep: tuple[int, ...] = field(compare=False)
    norm: int = field(compare=False)
    xi: Fraction = field(compare=False)
    # float(xi), converted once: the diagonals and k-axis maps read it
    xi_float: float = field(compare=False)
    t: int

    def key(self):
        """Deterministic sort key: (norm, rep)."""
        return (self.norm, self.rep)

    @property
    def is_identity(self) -> bool:
        return self.norm == 0

    def __repr__(self):
        return f"[{','.join(str(v) for v in self.rep)}]"


def _linf(vec: Sequence[int]) -> int:
    return max(abs(int(v)) for v in vec)


class QuotientLattice:
    """The quotient group with canonicalization, balls and the group operation."""

    def __init__(self, omega: FrequencyVector):
        self.omega = omega
        self.null = null_lattice(omega)
        self.nu = omega.nu
        # The one element table, keyed by the integer coordinate t: every
        # vector of a coset has the same t, so each coset is searched once.
        self._by_t: dict[int, GroupElement] = {}
        self._ball_cache: dict[int, tuple[GroupElement, ...]] = {}
        self._pinv = self._null_pinv()
        self._coeff_rows = [sum(abs(x) for x in row) for row in self._pinv]
        # xi(v) = xi_spacing * sum_j v_j w_j / g for the integer form w and
        # g = gcd(w), so these integer weights give t without a division,
        # and xi is the spacing times t.
        g = math.gcd(*omega.integer_form)
        self._t_weights = tuple(w // g for w in omega.integer_form)
        self._spacing = Fraction(g, omega.common_denominator)

    def _null_pinv(self) -> list[tuple[float, ...]]:
        """Rows of the pseudo-inverse of the null basis (rank x nu)."""
        if self.null.rank == 0:
            return []
        import numpy as np

        B = np.array(self.null.basis, dtype=float).T  # nu x rank
        return [tuple(float(x) for x in row) for row in np.linalg.pinv(B)]

    @property
    def identity(self) -> GroupElement:
        return self.element(0)

    def xi_spacing(self) -> Fraction:
        """Exact spacing of the (always discrete, rational data) subgroup xi(T)."""
        return self._spacing

    def _null_points_in_box(self, radius: int):
        """All p in N(omega) with |p|_inf <= radius."""
        if self.null.rank == 0:
            return [tuple([0] * self.nu)]
        ranges = []
        for rn in self._coeff_rows:
            bound = int(math.floor(rn * radius)) + 1
            ranges.append(range(-bound, bound + 1))
        pts = []
        basis = self.null.basis
        for coeffs in itertools.product(*ranges):
            p = tuple(
                sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(self.nu)
            )
            if _linf(p) <= radius:
                pts.append(p)
        return pts

    def canonicalize(self, vec: Sequence[int]) -> GroupElement:
        """Minimal-ell-infinity, lexicographically-smallest coset representative.

        The element is looked up by its coordinate t; only a coset not seen
        before is searched. The search runs over the N-translates p with
        |p| <= 2|v|: a minimal representative v - p has |v - p| <= |v|, so
        every one lies in that box, and the result does not depend on which
        vector of the coset comes in. A vector without nu components raises
        ValueError.
        """
        v = tuple(int(x) for x in vec)
        if len(v) != self.nu:
            raise ValueError(f"{list(v)} does not have nu = {self.nu} "
                             f"components")
        t = sum(a * w for a, w in zip(v, self._t_weights))
        elem = self._by_t.get(t)
        if elem is not None:
            return elem
        r = _linf(v)
        best = v
        best_norm = r
        if self.null.rank:
            for p in self._null_points_in_box(2 * r):
                cand = tuple(a - b for a, b in zip(v, p))
                n = _linf(cand)
                if n < best_norm or (n == best_norm and cand < best):
                    best, best_norm = cand, n
        xi = self._spacing * t
        elem = GroupElement(rep=best, norm=best_norm, xi=xi,
                            xi_float=float(xi), t=t)
        self._by_t[t] = elem
        return elem

    def element(self, t: int) -> GroupElement:
        """The element of coordinate t.

        A coordinate not yet in the table is canonicalized from its preimage
        t * unit, first shortened by the nearest integer combination of the
        null basis: the raw preimage grows like |t| * |unit| and would widen
        the null-translate search of ``canonicalize`` to match.
        """
        elem = self._by_t.get(t)
        if elem is not None:
            return elem
        v = [t * a for a in self.null.unit]
        coeffs = [round(sum(p * a for p, a in zip(row, v))) for row in self._pinv]
        for c, b in zip(coeffs, self.null.basis):
            v = [a - c * x for a, x in zip(v, b)]
        return self.canonicalize(v)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(a.t + b.t)

    def sub(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.element(a.t - b.t)

    def neg(self, a: GroupElement) -> GroupElement:
        return self.element(-a.t)

    def dist(self, a: GroupElement, b: GroupElement) -> int:
        """|a - b|, the metric of the quotient."""
        return self.sub(a, b).norm

    def ball(self, R: float) -> list[GroupElement]:
        """B(R) = { m : |m| <= R }, sorted by (norm, rep).

        Enumerates the integer box of radius floor(R) and deduplicates cosets.
        Norms are integers, so only the integer part of R matters (cached).
        """
        if R < 0:
            raise ValueError("R must be nonnegative")
        r = int(math.floor(R + 1e-12))
        cached = self._ball_cache.get(r)
        if cached is None:
            box = itertools.product(range(-r, r + 1), repeat=self.nu)
            seen = {e for e in map(self.canonicalize, box) if e.norm <= r}
            cached = tuple(sorted(seen, key=GroupElement.key))
            self._ball_cache[r] = cached
        return list(cached)


@dataclass(frozen=True)
class DiophantineReport:
    worst_pair: tuple[GroupElement, float] | None
    satisfied: bool
    box_condition_ok: bool
    checked_count: int


def check_diophantine(lat: QuotientLattice, a0: float, b0: float,
                      Rbar0: float) -> DiophantineReport:
    """Exhaustive |xi(n)| >= a0 |n|^{-b0} check over 0 < |n| <= Rbar0.

    Margins are |xi(n)| |n|^{b0} / a0; satisfied iff the worst margin >= 1.
    Also reports the box condition Rbar0^{b0} > prod t_j on the raw denominators.
    """
    if not (0 < a0 < 1):
        raise PreconditionFailed("require 0 < a0 < 1")
    if not (b0 > lat.nu):
        raise PreconditionFailed("require b0 > nu")
    worst = None
    count = 0
    for e in lat.ball(Rbar0):
        if e.is_identity:
            continue
        count += 1
        margin = abs(e.xi_float) * (e.norm ** b0) / a0
        if worst is None or margin < worst[1]:
            worst = (e, margin)
    prod_t = 1
    for t in lat.omega.denominators:
        prod_t *= t
    box_ok = Rbar0 ** b0 > prod_t
    satisfied = worst is None or worst[1] >= 1.0
    return DiophantineReport(worst_pair=worst, satisfied=satisfied,
                             box_condition_ok=box_ok, checked_count=count)
