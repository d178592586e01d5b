import pytest

from hillbands.domains import (Domain, DomainBuilder, SubtractionSystem,
                               nesting_audit, partition_audit,
                               separation_audit, subtract_stabilize,
                               symmetrize_S, symmetrize_T)
from hillbands.errors import ExcludedK, NotProper, PreconditionFailed
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.scales import build_schedule


@pytest.fixture(scope="module")
def lat():
    return QuotientLattice(FrequencyVector.parse(["1"]))


@pytest.fixture(scope="module")
def schedule():
    # R^(1) = 9, R^(2) ~ 11.2; sigma shrunk so the k-axis is mostly admissible
    return build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                          sigma_scale=1e-9, truncate=True)


def fset(lat, reps):
    return frozenset(lat.canonicalize([r]) for r in reps)


def test_scale_one_is_plain_ball(lat, schedule):
    dom = DomainBuilder(0.37, schedule, lat).domain(1)
    assert dom.elements == frozenset(lat.ball(2.0 * schedule.R[1]))


def test_threshold_membership_matches_scalar_oracle(lat, schedule):
    # eps-independent check: v(m,k)-v(0,k) = xi(m)(xi(m)+2k)/lambda; membership
    # recomputed directly must agree with the set builder
    k = 0.37
    builder = DomainBuilder(k, schedule, lat)
    levels = builder.level_sets(2)
    tau = builder.threshold(1, 2)
    scan = lat.ball(3.0 * schedule.R[2] + 3.0 * schedule.R[1] + 1)
    expected = {m for m in scan
                if abs(float(m.xi) * (float(m.xi) + 2 * k) / 256.0) <= tau}
    assert set(levels[1]) == expected
    assert lat.identity in levels[1]


def test_unmodified_ball_when_nothing_straddles(lat, schedule):
    # k away from every resonance: only the center's own level-1 set exists,
    # and it sits inside B(3 R^(2)), so nothing is subtracted
    builder = DomainBuilder(0.37, schedule, lat)
    dom = builder.lambda0(2)
    assert dom == frozenset(lat.ball(3.0 * schedule.R[2]))


def test_excluded_k_raises(lat):
    wide = build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                          sigma_scale=1.0, truncate=True)
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


def test_partition_audit(lat):
    levels = {1: {lat.canonicalize([0]): fset(lat, range(-2, 3)),
                  lat.canonicalize([7]): fset(lat, range(6, 9))}}
    assert partition_audit(levels)
    levels[1][lat.canonicalize([2])] = fset(lat, range(1, 4))
    assert not partition_audit(levels)


def test_subtract_stabilize_empty_system(lat):
    start = fset(lat, range(-5, 6))
    out, ell = subtract_stabilize(start, SubtractionSystem(sets=[]), lat)
    assert out == start and ell == 0


def test_subtract_stabilize_inside_set_untouched(lat):
    start = fset(lat, range(-5, 6))
    system = SubtractionSystem(sets=[(fset(lat, range(-1, 2)), 1)])
    out, ell = subtract_stabilize(start, system, lat)
    assert out == start and ell == 0


def test_subtract_stabilize_removes_straddler(lat):
    start = fset(lat, range(-5, 6))
    straddler = fset(lat, range(4, 8))  # crosses the boundary at 5
    system = SubtractionSystem(sets=[(straddler, 1)])
    out, ell = subtract_stabilize(start, system, lat)
    assert ell == 1
    assert out == start - straddler
    assert straddler.isdisjoint(out)


def test_subtract_stabilize_cascades(lat):
    # removing the first straddler exposes a second one
    start = fset(lat, range(-8, 9))
    s1 = fset(lat, range(7, 11))    # straddles at 8
    s2 = fset(lat, range(6, 9))     # inside initially, straddles after s1 goes
    system = SubtractionSystem(sets=[(s1, 1), (s2, 2)])
    out, ell = subtract_stabilize(start, system, lat)
    assert ell == 2
    for s, _ in system.sets:
        assert s <= out or s.isdisjoint(out)


def test_proper_system_conditions(lat):
    overlapping = SubtractionSystem(sets=[(fset(lat, range(0, 4)), 1),
                                          (fset(lat, range(2, 6)), 1)])
    with pytest.raises(NotProper):
        overlapping.check_proper(lat)
    separated = SubtractionSystem(sets=[(fset(lat, range(0, 3)), 1),
                                        (fset(lat, range(9, 12)), 1)])
    radii = separated.check_proper(lat)
    assert radii[1] == 7  # dist between {0..2} and {9..11}


def test_symmetrize_S_ball_when_no_lower_sets(lat, schedule):
    k = schedule.delta[0] / 4.0
    builder = DomainBuilder(k, schedule, lat)
    dom, ell = symmetrize_S(k, 2, builder, schedule, lat)
    assert dom.elements == frozenset(lat.ball(3.0 * schedule.R[2]))
    assert ell == 0
    for e in dom.elements:
        assert lat.neg(e) in dom.elements


def test_symmetrize_S_small_k_precondition(lat, schedule):
    builder = DomainBuilder(0.37, schedule, lat)
    with pytest.raises(PreconditionFailed):
        symmetrize_S(0.37, 2, builder, schedule, lat)


def test_symmetrize_T_no_subtractions(lat, schedule):
    k = -0.5
    n0 = lat.canonicalize([1])
    builder = DomainBuilder(k, schedule, lat)
    dom, ell = symmetrize_T(k, 1, n0, builder, schedule, lat)
    ball = frozenset(lat.ball(3.0 * schedule.R[1]))
    mirrored = frozenset(lat.sub(n0, e) for e in ball)
    assert dom.elements == ball | mirrored
    for e in dom.elements:
        assert lat.sub(n0, e) in dom.elements
    assert ell == 0


def test_symmetrize_T_contains_both_boxes(lat, schedule):
    k = -0.5
    n0 = lat.canonicalize([1])
    builder = DomainBuilder(k, schedule, lat)
    dom, _ = symmetrize_T(k, 2, n0, builder, schedule, lat)
    for e in lat.ball(schedule.R[2]):
        assert e in dom.elements
        assert lat.add(n0, e) in dom.elements
    bound = frozenset(lat.ball(16.0 * schedule.R[2]))
    assert dom.elements <= bound


def test_symmetric_removal_preserves_invariance(lat):
    # synthetic: one off-center straddling class removed together with its
    # mirror leaves an S-invariant set
    start = fset(lat, range(-10, 11))
    s_set = fset(lat, range(8, 13))
    mirror = fset(lat, range(-12, -7))
    system = SubtractionSystem(sets=[(s_set | mirror, 1)])
    out, ell = subtract_stabilize(start, system, lat)
    assert ell == 1
    for e in out:
        assert lat.neg(e) in out


def test_separation_audit_reports(lat, schedule):
    builder = DomainBuilder(0.37, schedule, lat)
    levels = builder.level_sets(2)
    violations = separation_audit(levels, schedule, lat, lat.neg)
    # only the center's own class exists here, so nothing to compare
    assert violations == []


def test_translated_set_identity(lat, schedule):
    # Lambda^(s')_k(m) = m + Lambda^(s')_{k+xi(m)}(0): the memoized recursion
    # must agree with a fresh builder at the translated momentum
    k = 0.47
    builder = DomainBuilder(k, schedule, lat)
    levels = builder.level_sets(2)
    assert levels[1], "expected at least the center's level-1 set"
    for m, dom in levels[1].items():
        fresh = DomainBuilder(k + float(m.xi), schedule, lat)
        expected = frozenset(lat.add(m, e) for e in fresh.lambda0(1))
        assert dom == expected


def test_ball_sandwich(lat, schedule):
    # non-resonant: B(R^(s)) <= Lambda^(s) <= B(3 R^(s))
    builder = DomainBuilder(0.37, schedule, lat)
    dom = builder.lambda0(2)
    inner = frozenset(lat.ball(schedule.R[2]))
    outer = frozenset(lat.ball(3.0 * schedule.R[2]))
    assert inner <= dom <= outer


def test_boundary_distance(lat):
    dom = Domain(elements=fset(lat, range(-3, 4)), scale=1,
                 center=lat.identity)
    assert dom.boundary_distance(lat.identity, lat) == 4
    assert dom.boundary_distance(lat.canonicalize([3]), lat) == 1
    assert dom.boundary_distance(lat.canonicalize([9]), lat) == 0
