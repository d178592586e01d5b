"""Inductive domain constructions, proper subtraction systems, symmetrization.

Scale-1 domains are plain balls B(2 R^(1)); at scale s >= 2 the ball B(3 R^(s))
sheds every lower-level translated set that straddles its boundary. Centers m of
those lower sets come from the threshold sets on |v(m,k) - v(0,k)| (normalized
diagonal), built top-down with the subtracted corrections. Translated sets are
memoized on the exact rational momentum offset, so the recursion terminates
without floating-point drift.

Every set here is a frozenset of the integer coordinate t of its elements:
t is an isomorphism of the quotient onto Z, so translates m + Lambda and the
reflections n -> -n and n -> n0 - n are integer maps, and
``QuotientLattice.element`` turns a t back into its element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ExcludedK, NotProper, PreconditionFailed
from .lattice import GroupElement, QuotientLattice
from .scales import ScaleSchedule, excluded_blocker

# lambda = 256 gamma with gamma = 1: the normalization of the diagonal
# v(m, k) = xi(m)(xi(m) + 2k) / lambda that the threshold sets compare
# against delta0^(s').
LAMBDA = 256.0


def _chained(a: frozenset, b: frozenset) -> bool:
    """Nonempty intersection with neither containing the other."""
    if a.isdisjoint(b):
        return False
    return not (a <= b or b <= a)


def set_distance(a: frozenset[int], b: frozenset[int],
                 lat: QuotientLattice) -> int:
    return min(lat.element(x - y).norm for x in a for y in b)


def subtract_stabilize(start: frozenset[int],
                       system: list[tuple[frozenset[int], int]],
                       ell_bound: int) -> tuple[frozenset[int], int]:
    """Iterate removal of system sets straddling the current set until stable.

    ``system`` is a subtraction system: (set of t, level) pairs with the
    pairing already merged into classes. Condition (i), distinct same-level
    sets disjoint, is checked first (NotProper on overlap). Returns
    (stabilized set, ell0). Asserts the Lemma-7.5-style dichotomy on the
    result and that ell0 < ell_bound (2^s from symmetrization).
    """
    for i, (a, level_a) in enumerate(system):
        for b, level_b in system[i + 1:]:
            if level_a == level_b and not a.isdisjoint(b):
                raise NotProper(f"same-level ({level_a}) class sets overlap")
    current = frozenset(start)
    ell = 0
    while True:
        straddlers = [s for s, _ in system if _chained(s, current)]
        if not straddlers:
            break
        removed = frozenset().union(*straddlers)
        current = current - removed
        ell += 1
    for s, _ in system:
        if not (s <= current or s.isdisjoint(current)):
            raise NotProper("stabilized set still chained with a system set")
    if not ell < ell_bound:
        raise NotProper(f"stabilization took {ell} >= bound {ell_bound}")
    return current, ell


class DomainBuilder:
    """Builds the per-momentum hierarchy Lambda^(s)_k(m) with exact-offset memoization.

    Every scale is gated on the k-axis exclusion intervals (raising
    ExcludedK), skipping the modes whose coordinate t is in ``exempt_modes``.
    """

    def __init__(self, k: float, schedule: ScaleSchedule, lat: QuotientLattice,
                 exempt_modes=frozenset()):
        self.k = k
        self.schedule = schedule
        self.lat = lat
        self.exempt_modes = frozenset(exempt_modes)
        self._memo: dict[tuple[int, Fraction], frozenset[int]] = {}

    def threshold(self, s_prime: int, s: int) -> float:
        """Membership threshold for level s' inside the scale-s build."""
        delta = self.schedule.delta
        if s_prime == s - 1:
            if s_prime == 1:
                return delta[0] / 16.0
            return 0.75 * delta[s_prime - 1]
        correction = sum(delta[t - 1] for t in range(s_prime + 1, s))
        if s_prime == 1:
            return delta[0] / 16.0 - correction
        return 0.75 * delta[s_prime - 1] - correction

    def _check_excluded(self, s: int, offset: Fraction) -> None:
        k = self.k + float(offset)
        hit = excluded_blocker(self.schedule, self.lat, k, s,
                               exempt=self.exempt_modes)
        if hit is not None:
            raise ExcludedK(k, s, hit[0], hit[1])

    def lambda0(self, s: int, offset: Fraction = Fraction(0)) -> frozenset[int]:
        """Lambda^(s)_{k+offset}(0) as a frozenset of t."""
        self.schedule.require_feasible(s)
        key = (s, offset)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self._check_excluded(s, offset)
        if s == 1:
            out = frozenset(e.t for e in self.lat.ball(2.0 * self.schedule.R[1]))
        else:
            levels = self.level_sets(s, offset)
            ball = frozenset(e.t for e in self.lat.ball(3.0 * self.schedule.R[s]))
            straddlers = [dom for per_level in levels.values()
                          for dom in per_level.values() if _chained(dom, ball)]
            out = ball - frozenset().union(*straddlers)
        self._memo[key] = out
        return out

    def level_sets(self, s: int, offset: Fraction = Fraction(0)) -> dict:
        """Threshold sets M^(s')_{k,s-1} and their translated domains, s' = s-1..1.

        Returns {s': {t of the center: frozenset of t}}, built top-down; a
        center already swallowed by a higher level is skipped (the paper's
        exclusion clause). A center m of the scan qualifies at level s' when
        |v(m, k') - v(0, k')| = |xi(m)(xi(m) + 2k')| / lambda <= tau at
        k' = k + offset.
        """
        out: dict[int, dict[int, frozenset[int]]] = {}
        claimed: set[int] = set()
        scan = self.lat.ball(3.0 * self.schedule.R[s] + 3.0 * self.schedule.R[s - 1] + 1)
        xi = np.array([m.xi_float for m in scan])
        v = np.abs(xi * (xi + 2.0 * (self.k + float(offset))) / LAMBDA)
        for s_prime in range(s - 1, 0, -1):
            tau = self.threshold(s_prime, s)
            sets_here: dict[int, frozenset[int]] = {}
            if tau > 0:
                for i in np.flatnonzero(v <= tau):
                    m = scan[i]
                    if m.t not in claimed:
                        inner = self.lambda0(s_prime, offset + m.xi)
                        sets_here[m.t] = frozenset(m.t + x for x in inner)
            out[s_prime] = sets_here
            for dom in sets_here.values():
                claimed.update(dom)
        return out


@dataclass(frozen=True)
class NestingReport:
    passed: bool
    violations: tuple
    checked_pairs: int


def nesting_audit(sets: Sequence[tuple[frozenset, int]]) -> NestingReport:
    """Containment-or-disjointness for every (lower level, higher level) pair."""
    violations = []
    checked = 0
    for i in range(len(sets)):
        for j in range(len(sets)):
            a, ta = sets[i]
            b, tb = sets[j]
            if ta >= tb:
                continue
            checked += 1
            if _chained(a, b):
                violations.append((i, j))
    return NestingReport(passed=not violations, violations=tuple(violations),
                         checked_pairs=checked)


def _reflection_classes(level_sets: dict, reflect: Callable[[int], int]
                        ) -> list[tuple[frozenset[int], int]]:
    """Classes Lambda(m-class) = union of Lambda(m') and reflect(Lambda(m')) over {m, Sm}."""
    sets: list[tuple[frozenset[int], int]] = []
    for s_prime, per_level in level_sets.items():
        done: set[int] = set()
        for m, dom in per_level.items():
            if m in done:
                continue
            partner = reflect(m)
            members = [dom, frozenset(map(reflect, dom))]
            done.add(m)
            if partner != m and partner in per_level:
                pdom = per_level[partner]
                members.append(pdom)
                members.append(frozenset(map(reflect, pdom)))
                done.add(partner)
            merged = frozenset().union(*members)
            sets.append((merged, s_prime))
    return sets


def symmetrize_S(builder: DomainBuilder, s: int
                 ) -> tuple[frozenset[int], int]:
    """S-symmetrized Lambda^(s)_{k,sym}(0) as a set of t, at the builder's
    k: the T-symmetrized domain about the origin, S being T(n) = -n.

    Precondition: |k| < delta0^(s-2) (the small-k regime), always checked.
    """
    k, schedule = builder.k, builder.schedule
    if s < 2:
        raise PreconditionFailed("S-symmetrization needs s >= 2")
    if not abs(k) < schedule.delta[s - 2]:
        raise PreconditionFailed(
            f"|k|={abs(k)} not below delta0^({s-2})={schedule.delta[s-2]:.3e}"
        )
    return symmetrize_T(builder, s, builder.lat.identity)


def symmetrize_T(builder: DomainBuilder, s: int, n0: GroupElement
                 ) -> tuple[frozenset[int], int]:
    """T-symmetrized domain for the pair {0, n0} as a set of t, at the
    builder's k: start from B(3 R^(s)) union T(B(3 R^(s))), T(n) = n0 - n;
    subtract to a fixed point.

    The result is T-invariant and must contain B(0, R^(s)) and B(n0, R^(s)).
    The principal pair's own exclusion intervals are the allowed exception, so
    the builder is re-derived with {n0, -n0} exempted if necessary (never for
    n0 = 0, which is not a mode).
    """
    schedule, lat = builder.schedule, builder.lat
    reflect = lambda t: n0.t - t
    if n0.t and n0.t not in builder.exempt_modes:
        builder = DomainBuilder(
            builder.k, schedule, lat,
            exempt_modes=builder.exempt_modes | {n0.t, -n0.t})
    levels = builder.level_sets(s) if s >= 2 else {}
    system = _reflection_classes(levels, reflect)
    ball = frozenset(e.t for e in lat.ball(3.0 * schedule.R[s]))
    start = ball | frozenset(map(reflect, ball))
    stabilized, ell0 = subtract_stabilize(start, system, ell_bound=2**s)
    if any(reflect(t) not in stabilized for t in stabilized):
        raise NotProper("T-symmetrized set is not T-invariant")
    for e in lat.ball(schedule.R[s]):
        if e.t not in stabilized or n0.t + e.t not in stabilized:
            raise NotProper(
                "T-symmetrized set lost a point of B(0,R^(s)) or B(n0,R^(s))"
            )
    return stabilized, ell0


def separation_audit(level_sets: dict, schedule: ScaleSchedule,
                     lat: QuotientLattice, reflect: Callable[[int], int]) -> list:
    """Lemma-7.11(2)-style audit: distinct same-level reflected classes are
    more than 6 R^(s') apart. Returns violation records (empty = pass)."""
    violations = []
    for s_prime, per_level in level_sets.items():
        centers = list(per_level)
        for i in range(len(centers)):
            for j in range(len(centers)):
                if i == j:
                    continue
                m1, m2 = centers[i], centers[j]
                if reflect(m1) == m2:
                    continue
                mirrored = frozenset(map(reflect, per_level[m1]))
                d = set_distance(mirrored, per_level[m2], lat)
                if not d > 6.0 * schedule.R[s_prime]:
                    violations.append((s_prime, m1, m2, d))
    return violations
