from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hillbands import domains
from hillbands.domains import (LAMBDA, DomainBuilder, _chained,
                               nesting_audit, separation_audit, subtract_stabilize,
                               symmetrize_S, symmetrize_T)
from hillbands.errors import (ExcludedK, HillbandsError, NotProper,
                              PreconditionFailed)
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.scales import build_schedule, excluded_blocker
from hillbands.schur import mu_of_set


@pytest.fixture(scope="module")
def lat():
    return QuotientLattice(FrequencyVector.parse(["1"]))


@pytest.fixture(scope="module")
def schedule():
    # R^(1) = 9, R^(2) ~ 11.2; sigma shrunk so the k-axis is mostly admissible
    return build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                          sigma_scale=1e-9)


def fset(lat, reps):
    """The set of t of the elements [r] of the line lattice."""
    return frozenset(lat.canonicalize([r]).t for r in reps)


def tset(elements):
    return frozenset(e.t for e in elements)


def test_scale_one_is_plain_ball(lat, schedule):
    dom = DomainBuilder(0.37, schedule, lat).lambda0(1)
    assert dom == tset(lat.ball(2.0 * schedule.R[1]))


def test_threshold_membership_matches_scalar_oracle(lat, schedule):
    # eps-independent check: v(m,k)-v(0,k) = xi(m)(xi(m)+2k)/lambda; membership
    # recomputed directly must agree with the set builder
    k = 0.37
    builder = DomainBuilder(k, schedule, lat)
    levels = builder.level_sets(2)
    tau = builder.threshold(1, 2)
    scan = lat.ball(3.0 * schedule.R[2] + 3.0 * schedule.R[1] + 1)
    expected = {m.t for m in scan
                if abs(float(m.xi) * (float(m.xi) + 2 * k) / 256.0) <= tau}
    assert set(levels[1]) == expected
    assert lat.identity.t in levels[1]


def test_unmodified_ball_when_nothing_straddles(lat, schedule):
    # k away from every resonance: only the center's own level-1 set exists,
    # and it sits inside B(3 R^(2)), so nothing is subtracted
    builder = DomainBuilder(0.37, schedule, lat)
    dom = builder.lambda0(2)
    assert dom == tset(lat.ball(3.0 * schedule.R[2]))


def test_excluded_k_raises(lat):
    wide = build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                          sigma_scale=1.0)
    # verbatim sigma(m) = 32 delta^(1/6) swallows the whole axis at this scale
    builder = DomainBuilder(0.37, wide, lat)
    with pytest.raises(ExcludedK) as exc:
        builder.lambda0(1)
    assert exc.value.scale == 1


def test_nesting_audit_passes_on_construction(lat, schedule):
    builder = DomainBuilder(0.37, schedule, lat)
    levels = builder.level_sets(2)
    sets = [(d, s) for s, per in levels.items() for d in per.values()]
    sets.append((builder.lambda0(2), 2))
    rep = nesting_audit(sets)
    assert rep.passed


def test_nesting_audit_flags_straddling_pair(lat):
    a = fset(lat, range(-3, 4))
    b = fset(lat, range(0, 9))  # overlaps a, contains neither
    rep = nesting_audit([(a, 1), (b, 2)])
    assert not rep.passed and rep.violations


def test_nesting_audit_disjoint_balls(lat):
    a = fset(lat, range(-3, 4))
    b = fset(lat, range(10, 15))
    assert nesting_audit([(a, 1), (b, 2)]).passed


def test_subtract_stabilize_empty_system(lat):
    start = fset(lat, range(-5, 6))
    out, ell = subtract_stabilize(start, [], ell_bound=1)
    assert out == start and ell == 0


def test_subtract_stabilize_inside_set_untouched(lat):
    start = fset(lat, range(-5, 6))
    system = [(fset(lat, range(-1, 2)), 1)]
    out, ell = subtract_stabilize(start, system, ell_bound=len(system) + 1)
    assert out == start and ell == 0


def test_subtract_stabilize_removes_straddler(lat):
    start = fset(lat, range(-5, 6))
    straddler = fset(lat, range(4, 8))  # crosses the boundary at 5
    system = [(straddler, 1)]
    out, ell = subtract_stabilize(start, system, ell_bound=len(system) + 1)
    assert ell == 1
    assert out == start - straddler
    assert straddler.isdisjoint(out)


def test_subtract_stabilize_cascades(lat):
    # removing the first straddler exposes a second one
    start = fset(lat, range(-8, 9))
    s1 = fset(lat, range(7, 11))    # straddles at 8
    s2 = fset(lat, range(6, 9))     # inside initially, straddles after s1 goes
    system = [(s1, 1), (s2, 2)]
    out, ell = subtract_stabilize(start, system, ell_bound=len(system) + 1)
    assert ell == 2
    for s, _ in system:
        assert s <= out or s.isdisjoint(out)


def test_proper_system_conditions(lat):
    start = fset(lat, range(-5, 6))
    overlapping = [(fset(lat, range(0, 4)), 1), (fset(lat, range(2, 6)), 1)]
    with pytest.raises(NotProper, match="same-level"):
        subtract_stabilize(start, overlapping, ell_bound=3)
    # overlap across levels is what the nesting allows
    nested = [(fset(lat, range(0, 4)), 1), (fset(lat, range(2, 6)), 2)]
    assert subtract_stabilize(start, nested, ell_bound=3)[0] == start
    separated = [(fset(lat, range(0, 3)), 1), (fset(lat, range(9, 12)), 1)]
    assert subtract_stabilize(start, separated, ell_bound=3)[0] == start


def test_symmetrize_S_ball_when_no_lower_sets(lat, schedule):
    k = schedule.delta[0] / 4.0
    builder = DomainBuilder(k, schedule, lat)
    dom, ell = symmetrize_S(builder, 2)
    assert dom == tset(lat.ball(3.0 * schedule.R[2]))
    assert ell == 0
    for t in dom:
        assert lat.neg(lat.element(t)).t in dom


def test_symmetrize_S_is_T_about_the_origin_on_the_same_builder(
        lat, schedule, monkeypatch):
    # t = 0 is no mode, so exempting it changes nothing: the builder and
    # its memo are kept
    builder = DomainBuilder(0.005, schedule, lat)
    want = symmetrize_T(builder, 2, lat.identity)
    monkeypatch.setattr(domains, "DomainBuilder", None)
    assert symmetrize_S(builder, 2) == want


def test_symmetrize_S_small_k_precondition(lat, schedule):
    builder = DomainBuilder(0.37, schedule, lat)
    with pytest.raises(PreconditionFailed):
        symmetrize_S(builder, 2)


def test_symmetrize_T_no_subtractions(lat, schedule):
    k = -0.5
    n0 = lat.canonicalize([1])
    builder = DomainBuilder(k, schedule, lat)
    dom, ell = symmetrize_T(builder, 1, n0)
    ball = frozenset(lat.ball(3.0 * schedule.R[1]))
    mirrored = frozenset(lat.sub(n0, e) for e in ball)
    assert dom == tset(ball | mirrored)
    for t in dom:
        assert lat.sub(n0, lat.element(t)).t in dom
    assert ell == 0


def test_symmetrize_T_contains_both_boxes(lat, schedule):
    k = -0.5
    n0 = lat.canonicalize([1])
    builder = DomainBuilder(k, schedule, lat)
    dom, _ = symmetrize_T(builder, 2, n0)
    for e in lat.ball(schedule.R[2]):
        assert e.t in dom
        assert lat.add(n0, e).t in dom
    bound = tset(lat.ball(16.0 * schedule.R[2]))
    assert dom <= bound


def test_symmetric_removal_preserves_invariance(lat):
    # synthetic: one off-center straddling class removed together with its
    # mirror leaves an S-invariant set
    start = fset(lat, range(-10, 11))
    s_set = fset(lat, range(8, 13))
    mirror = fset(lat, range(-12, -7))
    system = [(s_set | mirror, 1)]
    out, ell = subtract_stabilize(start, system, ell_bound=len(system) + 1)
    assert ell == 1
    for t in out:
        assert lat.neg(lat.element(t)).t in out


def test_separation_audit_reports(lat, schedule):
    builder = DomainBuilder(0.37, schedule, lat)
    levels = builder.level_sets(2)
    violations = separation_audit(levels, schedule, lat, lambda t: -t)
    # only the center's own class exists here, so nothing to compare
    assert violations == []


def test_translated_set_identity(lat, schedule):
    # Lambda^(s')_k(m) = m + Lambda^(s')_{k+xi(m)}(0): the memoized recursion
    # must agree with a fresh builder at the translated momentum
    k = 0.47
    builder = DomainBuilder(k, schedule, lat)
    levels = builder.level_sets(2)
    assert levels[1], "expected at least the center's level-1 set"
    for t, dom in levels[1].items():
        m = lat.element(t)
        fresh = DomainBuilder(k + float(m.xi), schedule, lat)
        expected = frozenset(lat.add(m, lat.element(x)).t
                             for x in fresh.lambda0(1))
        assert dom == expected


def test_ball_sandwich(lat, schedule):
    # non-resonant: B(R^(s)) <= Lambda^(s) <= B(3 R^(s))
    builder = DomainBuilder(0.37, schedule, lat)
    dom = builder.lambda0(2)
    inner = tset(lat.ball(schedule.R[2]))
    outer = tset(lat.ball(3.0 * schedule.R[2]))
    assert inner <= dom <= outer


def test_boundary_distance(lat):
    dom = frozenset(lat.canonicalize([r]) for r in range(-3, 4))
    assert mu_of_set(dom, lat.identity, lat) == 4
    assert mu_of_set(dom, lat.canonicalize([3]), lat) == 1
    assert mu_of_set(dom, lat.canonicalize([9]), lat) == 0


# --- reference path: the builder on sets of elements, through lat.add/sub/neg ---

class ElementBuilder:
    """DomainBuilder.lambda0 and level_sets on frozensets of GroupElement,
    translating through lat.add, with the threshold test
    |xi(m)(xi(m) + 2k')| / lambda <= tau at k' = k + offset evaluated one
    center at a time; thresholds and exclusions are read from a
    DomainBuilder."""

    def __init__(self, k, schedule, lat, exempt_modes=frozenset()):
        self.k, self.schedule, self.lat = k, schedule, lat
        self.exempt_modes = frozenset(exempt_modes)
        self.rules = DomainBuilder(k, schedule, lat, exempt_modes)
        self._memo, self._level_memo = {}, {}

    def lambda0(self, s, offset=Fraction(0)):
        self.schedule.require_feasible(s)
        key = (s, offset)
        if key not in self._memo:
            self.rules._check_excluded(s, offset)
            if s == 1:
                out = frozenset(self.lat.ball(2.0 * self.schedule.R[1]))
            else:
                ball = frozenset(self.lat.ball(3.0 * self.schedule.R[s]))
                out = ball - frozenset().union(*(
                    dom for per in self.level_sets(s, offset).values()
                    for dom in per.values() if _chained(dom, ball)))
            self._memo[key] = out
        return self._memo[key]

    def level_sets(self, s, offset=Fraction(0)):
        key = (s, offset)
        if key in self._level_memo:
            return self._level_memo[key]
        out, claimed = {}, set()
        R = self.schedule.R
        scan = self.lat.ball(3.0 * R[s] + 3.0 * R[s - 1] + 1)
        kk = self.k + float(offset)
        for s_prime in range(s - 1, 0, -1):
            tau = self.rules.threshold(s_prime, s)
            sets_here = {}
            if tau > 0:
                for m in scan:
                    xi = m.xi_float
                    if m not in claimed and \
                            abs(xi * (xi + 2.0 * kk) / LAMBDA) <= tau:
                        inner = self.lambda0(s_prime, offset + m.xi)
                        sets_here[m] = frozenset(self.lat.add(m, e)
                                                 for e in inner)
            out[s_prime] = sets_here
            for dom in sets_here.values():
                claimed.update(dom)
        self._level_memo[key] = out
        return out


def element_classes(levels, reflect):
    sets = []
    for s_prime, per_level in levels.items():
        done = set()
        for m, dom in per_level.items():
            if m in done:
                continue
            partner = reflect(m)
            members = [dom, frozenset(map(reflect, dom))]
            done.add(m)
            if partner != m and partner in per_level:
                pdom = per_level[partner]
                members += [pdom, frozenset(map(reflect, pdom))]
                done.add(partner)
            sets.append((frozenset().union(*members), s_prime))
    return sets


def element_stabilize(start, sets, ell_bound):
    for i, (a, level_a) in enumerate(sets):
        for b, level_b in sets[i + 1:]:
            if level_a == level_b and not a.isdisjoint(b):
                raise NotProper("same-level class sets overlap")
    current, ell = start, 0
    while True:
        straddlers = [dom for dom, _ in sets if _chained(dom, current)]
        if not straddlers:
            break
        current = current - frozenset().union(*straddlers)
        ell += 1
    if not ell < ell_bound:
        raise NotProper(f"stabilization took {ell} >= bound {ell_bound}")
    return current, ell


def element_symmetrize_S(k, s, builder, schedule, lat):
    if s < 2 or not abs(k) < schedule.delta[s - 2]:
        raise PreconditionFailed("S-symmetrization precondition")
    start = frozenset(lat.ball(3.0 * schedule.R[s]))
    dom, ell = element_stabilize(
        start, element_classes(builder.level_sets(s), lat.neg), 2**s)
    if any(lat.neg(e) not in dom for e in dom):
        raise NotProper("S-symmetrized set is not S-invariant")
    return dom, ell


def element_symmetrize_T(k, s, n0, builder, schedule, lat):
    reflect = lambda e: lat.sub(n0, e)
    if n0.t not in builder.exempt_modes:
        builder = ElementBuilder(builder.k, schedule, lat,
                                 builder.exempt_modes | {n0.t, -n0.t})
    levels = builder.level_sets(s) if s >= 2 else {}
    ball = frozenset(lat.ball(3.0 * schedule.R[s]))
    dom, ell = element_stabilize(ball | frozenset(map(reflect, ball)),
                                 element_classes(levels, reflect), 2**s)
    if any(reflect(e) not in dom for e in dom):
        raise NotProper("T-symmetrized set is not T-invariant")
    for e in lat.ball(schedule.R[s]):
        if e not in dom or lat.add(n0, e) not in dom:
            raise NotProper("T-symmetrized set lost a point")
    return dom, ell


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HillbandsError as exc:
        return type(exc)


def _as_t(result):
    """An element-set result (set, ell) or exception type, in terms of t."""
    if isinstance(result, tuple):
        return tset(result[0]), result[1]
    return result


ORACLE_CASES = {
    # nu: (lattice, schedule, scales drawn)
    1: (QuotientLattice(FrequencyVector.parse(["1"])),
        build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                       sigma_scale=1e-9), (1, 2)),
    2: (QuotientLattice(FrequencyVector.parse(["1", "3/7"])),
        build_schedule("practical", s_max=1, R1=4.0, beta=0.5, eps0=0.5,
                       sigma_scale=1e-9, nu=2), (1,)),
}


@st.composite
def oracle_cases(draw):
    nu = draw(st.sampled_from([1, 2]))
    lat, schedule, scales = ORACLE_CASES[nu]
    s = draw(st.sampled_from(scales))
    t0 = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    kind = draw(st.sampled_from(["any", "small", "resonant"]))
    if kind == "any":
        k = draw(st.floats(-0.6, 0.6))
    elif kind == "small":
        # |k| < delta0^(1) takes the S-symmetrized route at s = 2
        k = draw(st.floats(-schedule.delta[0], schedule.delta[0]))
    else:
        # k near k_m = -xi(m)/2 puts m among the level-1 centers; for
        # |xi(m)| >= 8 the translated set at m straddles B(3 R^(2))
        x = draw(st.sampled_from([1, 8, 11, 15])) * draw(st.sampled_from([-1, 1]))
        k = -x / 2 + draw(st.floats(-0.1, 0.1)) / abs(x)
        t0 = draw(st.sampled_from([t0, int(x / lat.xi_spacing())]))
    assume(all(excluded_blocker(schedule, lat, k, u, frozenset()) is None
               for u in range(1, s + 1)))
    return lat, schedule, s, k, lat.element(t0)


_LINE, _LINE_SCHEDULE, _ = ORACLE_CASES[1]


@settings(max_examples=40)
@given(oracle_cases())
# the routes of the shipped config (S-symmetrized, pair), and a far
# resonance whose level-1 set straddles B(3 R^(2)), with its own partner
# and with another n0
@example((_LINE, _LINE_SCHEDULE, 2, 0.005, _LINE.element(1)))
@example((_LINE, _LINE_SCHEDULE, 2, 0.49, _LINE.element(-1)))
@example((_LINE, _LINE_SCHEDULE, 2, 10.002, _LINE.element(-20)))
@example((_LINE, _LINE_SCHEDULE, 2, 10.002, _LINE.element(-1)))
def test_sets_of_t_match_element_set_oracle(case):
    lat, schedule, s, k, n0 = case
    new, old = DomainBuilder(k, schedule, lat), ElementBuilder(k, schedule, lat)
    got, want = _outcome(new.lambda0, s), _outcome(old.lambda0, s)
    assert got == (want if isinstance(want, type) else tset(want))
    if s >= 2 and not isinstance(want, type):
        levels, expected = new.level_sets(s), old.level_sets(s)
        assert levels == {s_prime: {m.t: tset(dom) for m, dom in per.items()}
                          for s_prime, per in expected.items()}
    assert _outcome(symmetrize_S, new, s) == _as_t(
        _outcome(element_symmetrize_S, k, s, old, schedule, lat))
    assert _outcome(symmetrize_T, new, s, n0) == _as_t(
        _outcome(element_symmetrize_T, k, s, n0, old, schedule, lat))
