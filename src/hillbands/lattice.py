"""Exact arithmetic on the quotient group T = Z^nu / N(omega).

Frequency vectors are exact rationals. Each coset is named by its integer
coordinate t = w.v / gcd(w) for the integer form w of omega, and represented
by its vector of minimal ell-infinity norm with a lexicographic tie-break.
xi = spacing * t is an exact Fraction; only norms and analysis quantities are
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

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


class QuotientLattice:
    """The quotient group with canonicalization, balls and the group operation."""

    def __init__(self, omega: FrequencyVector):
        self.omega = omega
        self.nu = omega.nu
        # The one element table, keyed by the integer coordinate t: every
        # vector of a coset has the same t, so each coset is searched once.
        self._by_t: dict[int, GroupElement] = {}
        self._ball_cache: dict[int, tuple[GroupElement, ...]] = {}
        # xi(v) = xi_spacing * sum_j v_j w_j / g for the integer form w and
        # g = gcd(w), so these integer weights give t without a division,
        # and xi is the spacing times t.
        g = math.gcd(*omega.integer_form)
        self._t_weights = tuple(w // g for w in omega.integer_form)
        self._weights = np.array(self._t_weights, dtype=np.int64)
        # |t| <= weight_sum * |v|_inf bounds the coordinates of a box
        self._weight_sum = sum(abs(w) for w in self._t_weights)
        self._spacing = Fraction(g, omega.common_denominator)

    @property
    def identity(self) -> GroupElement:
        return self.element(0)

    def xi_spacing(self) -> Fraction:
        """Exact spacing of the (always discrete, rational data) subgroup xi(T)."""
        return self._spacing

    def _least(self, r: int, t: int | None) -> list[GroupElement]:
        """The elements, in (norm, rep) order, of the coordinates that the
        box |v|_inf <= r reaches, or of coordinate t alone (none if the box
        misses it); a coordinate new to the table enters it with its least
        (|v|_inf, v) in the box.

        Exact: a coset that the box reaches has norm <= r, so all of its
        least-norm vectors lie in the box. For t alone, the scan runs over
        the other coordinates and solves the last one j with w_j != 0; the
        weights after j are zero, so the completed vectors stay in
        lexicographic order.
        """
        w = self._weights
        if r * self._weight_sum >= 2**63:
            raise OverflowError(f"the coordinates of the box of radius {r} "
                                f"overflow int64")
        dims = [2 * r + 1] * self.nu
        if t is not None:
            j = max(i for i, x in enumerate(self._t_weights) if x)
            dims[j] = 1
        box = np.indices(dims).reshape(self.nu, -1).T - r  # lexicographic
        if t is None:
            ts = box @ w
        else:
            box[:, j] = 0
            box[:, j], rem = np.divmod(t - box @ w, w[j])
            box = box[(rem == 0) & (np.abs(box[:, j]) <= r)]
            ts = np.full(len(box), t, dtype=np.int64)
        norms = np.abs(box).max(axis=1)
        # rows sorted by (t, norm, row): the first row of each t is its least
        order = np.lexsort((norms, ts))
        head = np.ones(len(order), dtype=bool)
        head[1:] = ts[order[1:]] != ts[order[:-1]]
        first = order[head]
        first = first[np.lexsort((first, norms[first]))]
        out = []
        for coord, rep, norm in zip(ts[first].tolist(), box[first].tolist(),
                                    norms[first].tolist()):
            elem = self._by_t.get(coord)
            if elem is None:
                xi = self._spacing * coord
                elem = GroupElement(rep=tuple(rep), norm=norm, xi=xi,
                                    xi_float=float(xi), t=coord)
                self._by_t[coord] = elem
            out.append(elem)
        return out

    def canonicalize(self, vec: Sequence[int]) -> GroupElement:
        """Minimal-ell-infinity, lexicographically-smallest coset representative:
        the element of v's coordinate t, so the result does not depend on
        which vector of the coset comes in. A vector without nu components
        raises ValueError.
        """
        v = tuple(int(x) for x in vec)
        if len(v) != self.nu:
            raise ValueError(f"{list(v)} does not have nu = {self.nu} "
                             f"components")
        return self.element(sum(a * w for a, w in zip(v, self._t_weights)))

    def element(self, t: int) -> GroupElement:
        """The element of coordinate t.

        A coordinate not yet in the table is scanned for in boxes of radius
        ceil(|t| / sum_j |w_j|), the least norm that |w.v| <= sum_j |w_j| |v|
        allows, doubled until the box reaches t.
        """
        elem = self._by_t.get(t)
        if elem is not None:
            return elem
        r = -(-abs(t) // self._weight_sum)
        found = self._least(r, t)
        while not found:
            r *= 2
            found = self._least(r, t)
        return found[0]

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

        One pass over the integer box of radius floor(R) finds every coset
        it reaches. Norms are integers, so only the integer part of R matters
        (cached).
        """
        if R < 0:
            raise ValueError("R must be nonnegative")
        r = int(math.floor(R + 1e-12))
        cached = self._ball_cache.get(r)
        if cached is None:
            cached = tuple(self._least(r, None))
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
