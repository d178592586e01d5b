import math

import pytest

from hillbands import scales
from hillbands.errors import (BudgetExhausted, PreconditionFailed,
                              ScheduleInfeasible)
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.scales import (build_schedule, epsilon_budget, kpm_endpoints,
                              kpm_intervals, resonance_gap_ordering_audit,
                              resonance_profile, strict_epsilon0_log)


def test_schedule_example_values():
    s = build_schedule("practical", s_max=3, R1=math.e**4, beta=0.5, eps0=1.0)
    assert s.delta[1] == pytest.approx(math.e**-16, rel=1e-12)
    assert s.R[2] == pytest.approx(math.e**8, rel=1e-12)
    assert s.delta[2] == pytest.approx(math.e**-64, rel=1e-12)
    assert s.R[3] == pytest.approx(math.e**32, rel=1e-12)


def test_schedule_recurrence_relative_error():
    s = build_schedule("practical", s_max=3, R1=math.e**4, beta=0.5, eps0=1.0)
    for u in range(2, s.s_max + 1):
        lhs = s.log_R[u]
        rhs = s.beta * s.log_R[u - 1] ** 2
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
        assert s.delta[u] == pytest.approx(math.exp(-s.log_R[u] ** 2), rel=1e-12)


def test_schedule_infeasibility_detection():
    with pytest.raises(ScheduleInfeasible) as exc:
        build_schedule("practical", s_max=5, R1=math.e**4, beta=0.5, eps0=1.0)
    assert exc.value.largest_feasible == 3
    tolerated = build_schedule("practical", s_max=5, R1=math.e**4, beta=0.5,
                               eps0=1.0, truncate=True)
    assert tolerated.feasible_s == 3
    assert tolerated.delta[3] == 0.0          # e^-1024 underflows
    assert tolerated.log_delta[3] == -1024.0  # but the log view survives
    with pytest.raises(ScheduleInfeasible):
        tolerated.require_feasible(4)


def test_practical_preconditions():
    with pytest.raises(PreconditionFailed):
        build_schedule("practical", s_max=2, R1=2.0, beta=0.5)  # R1 <= e
    with pytest.raises(PreconditionFailed):
        build_schedule("practical", s_max=2, R1=10.0, beta=1.5)


def test_strict_beta_value():
    # beta1 = 1/(32 b0); with kappa0 = 1 the R1 floor is only log(100/a0)
    s = build_schedule("strict", s_max=1, R1=250.0, a0=0.5, b0=2.0,
                       kappa0=1.0, alpha0=1.0, truncate=True)
    assert s.beta == pytest.approx(1.0 / 64.0)


def test_strict_mode_log_space_budget():
    # for kappa0 < 1 the strict R1 floor alone overflows float64
    log_floor = 2.0**34 * 64.0 * math.log(1 / 0.5)
    assert log_floor > 709.78  # exp(log_floor) not representable
    # Eq-(2epsilon0)-style eps0 always underflows in strict mode, so the
    # budget statement eps_s > eps0/2 lives in log space: it reduces to
    # log delta0^(1) < log eps0 - log 4 (the sum is dominated by delta0^(1))
    s = build_schedule("strict", s_max=2, log_R1=30000.0, a0=0.5, b0=2.0,
                       kappa0=1.0, alpha0=1.0, truncate=True)
    assert s.feasible_s == 0 and s.eps0 == 0.0  # nothing representable
    log_d0 = s.log_delta[0] / 4.0
    assert s.log_eps0 == strict_epsilon0_log(log_d0, 1.0, 1.0, 1)
    assert s.log_delta[1] < s.log_eps0 - math.log(4.0)
    for u in (2,):
        assert s.log_delta[u] < s.log_delta[1]  # decreasing sum terms


def test_strict_r1_floor_enforced():
    with pytest.raises(PreconditionFailed):
        build_schedule("strict", s_max=1, R1=10.0, a0=0.5, b0=2.0,
                       kappa0=1.0, truncate=True)


def test_epsilon_budget_examples():
    s = build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=1.0)
    # eps_s = eps0 - sum delta0^(s'), hand-checked
    assert s.eps[1] == pytest.approx(1.0 - s.delta[1])
    assert s.eps[2] == pytest.approx(1.0 - s.delta[1] - s.delta[2])
    assert list(epsilon_budget(s)) == list(s.eps)
    tiny = build_schedule("practical", s_max=1, R1=3.0, beta=0.9, eps0=1e-3)
    with pytest.raises(BudgetExhausted):
        epsilon_budget(tiny)


def test_kpm_mirror_identity(line_lattice, toy_schedule):
    intervals = kpm_intervals(toy_schedule, line_lattice, truncation_R=24.0)
    by_rep = {iv.m.rep: iv for iv in intervals}
    for iv in intervals:
        mirror = by_rep[tuple(-v for v in iv.m.rep)]
        assert iv.k_plus == pytest.approx(-mirror.k_minus, abs=1e-15)
        for s in range(toy_schedule.s_max + 1):
            assert iv.k_plus_s[s] == pytest.approx(-mirror.k_minus_s[s],
                                                   abs=1e-15)


def test_kpm_mirror_check_reaches_every_interval(toy_schedule, monkeypatch):
    # on omega = (1, 3/7) the canonical rep of -m is not always -rep(m)
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    intervals = kpm_intervals(toy_schedule, lat, truncation_R=6.0)
    by_t = {iv.m.t: iv for iv in intervals}
    assert all(-t in by_t for t in by_t)
    odd = [iv.m for iv in intervals
           if by_t[-iv.m.t].m.rep != tuple(-v for v in iv.m.rep)]
    assert (len(intervals), len(odd)) == (108, 6)
    original = scales.kpm_endpoints
    for m in odd:
        def shifted(schedule, e, s, m=m):
            lo, hi = original(schedule, e, s)
            return (lo, hi + 1e-6) if e == m else (lo, hi)

        monkeypatch.setattr(scales, "kpm_endpoints", shifted)
        with pytest.raises(AssertionError):
            kpm_intervals(toy_schedule, lat, truncation_R=6.0)

def test_kpm_sigma_zero_and_monotonicity(line_lattice, toy_schedule):
    sigma0 = toy_schedule.sigma(0)
    assert sigma0 == pytest.approx(
        32.0 * toy_schedule.delta[0] ** (1 / 6) * toy_schedule.sigma_scale)
    m = line_lattice.canonicalize([1])
    prev = None
    for s in range(toy_schedule.s_max + 1):
        lo, hi = kpm_endpoints(toy_schedule, m, s)
        if prev is not None:
            assert hi >= prev[1] - 1e-18
            assert lo <= prev[0] + 1e-18
        prev = (lo, hi)


def test_resonance_profile_far_k(line_lattice, toy_schedule):
    p = resonance_profile(0.21, toy_schedule, line_lattice, truncation_R=12.0)
    assert not p.resonant
    assert p.ell == -1 and p.reflection_sets == ()


def test_resonance_profile_exact_hit(line_lattice, toy_schedule):
    n0 = line_lattice.canonicalize([1])
    k = -0.5  # k_{n0} exactly
    p = resonance_profile(k, toy_schedule, line_lattice, truncation_R=12.0)
    assert p.resonant and p.n_points == (n0,)
    assert p.reflection_sets[0] == frozenset({line_lattice.identity, n0})


def test_resonance_profile_oracle_equivalence(line_lattice, toy_schedule):
    # brute-force interval membership over the truncation ball, dense k grid
    for i in range(60):
        k = -1.5 + i * 0.05
        p = resonance_profile(k, toy_schedule, line_lattice, truncation_R=12.0)
        expected = set()
        for e in line_lattice.ball(12.0):
            if e.is_identity:
                continue
            shell = toy_schedule.shell_of(e.norm)
            if shell is None:
                continue
            width = toy_schedule.delta[shell] ** 0.75
            if abs(k + float(e.xi) / 2.0) < width:
                expected.add(e)
        assert set(p.n_points) == expected


def _two_resonance_profile(line_lattice, toy_schedule):
    # per-element width override makes exactly n=1 and n=9 resonate at
    # k = -0.45 (uniform k_n spacing rules this out with per-shell widths)
    def widths(e, shell):
        if e.rep == (1,):
            return 0.06
        if e.rep == (9,):
            return 4.2
        return None

    return resonance_profile(-0.45, toy_schedule, line_lattice,
                             truncation_R=12.0, width_override=widths)


def test_two_resonance_synthetic_reflection_sets(line_lattice, toy_schedule):
    lat = line_lattice
    p = _two_resonance_profile(line_lattice, toy_schedule)
    n1 = lat.canonicalize([1])
    n2 = lat.canonicalize([9])
    assert p.n_points == (n1, n2)
    m0 = {lat.identity, n1}
    m1 = m0 | {lat.sub(n2, x) for x in m0}
    assert p.reflection_sets[0] == frozenset(m0)
    assert p.reflection_sets[1] == frozenset(m1)
    assert len(p.reflection_sets[1]) == 4
    # reflection invariance: T_{n^(l)}(m^(l)) = m^(l)
    for ell, refl in enumerate(p.reflection_sets):
        n_ell = p.n_points[ell]
        assert {lat.sub(n_ell, x) for x in refl} == set(refl)


def test_reflection_set_size_bound(line_lattice, toy_schedule):
    p = resonance_profile(-0.5, toy_schedule, line_lattice, truncation_R=12.0)
    for ell, refl in enumerate(p.reflection_sets):
        assert len(refl) <= 2 ** (ell + 1)


def test_ordering_audit_single_resonance(line_lattice, toy_schedule):
    p = resonance_profile(-0.5, toy_schedule, line_lattice, truncation_R=12.0)
    rep = resonance_gap_ordering_audit(p, toy_schedule)
    assert rep.passed and rep.checked_pairs == 0  # vacuous


def test_ordering_audit_flags_adversarial_widths(line_lattice, toy_schedule):
    # adversarial widths put the second resonance at |n|=9 although the
    # separation lemma demands |n^(1)| > R^(s^(0)+1)/2 = R^(2)/2 ~ 10.9
    p = _two_resonance_profile(line_lattice, toy_schedule)
    rep = resonance_gap_ordering_audit(p, toy_schedule)
    assert rep.checked_pairs == 1
    assert 9 <= 0.5 * toy_schedule.R[2]
    assert not rep.passed and len(rep.violations) == 1
