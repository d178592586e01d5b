import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hillbands.errors import PreconditionFailed, ScheduleInfeasible
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.scales import (build_schedule, excluded_blocker, mode_table,
                              resonance_gap_ordering_audit, resonance_profile,
                              strict_epsilon0_log)


# --- reference oracles: the scalar per-mode loops the mode table replaced ---

def sigma(schedule, norm):
    """sigma(m) on the shell of m; sigma(0) from delta0^(0); None beyond s_max."""
    s = 1 if norm == 0 else schedule.shell_of(norm)
    return None if s is None else schedule.shell_sigma(s)


def kpm_endpoints(schedule, m, s_inflate):
    """(k^-_{m,s}, k^+_{m,s}) or None when m lies beyond the schedule's shells."""
    sigma_m = sigma(schedule, m.norm)
    if sigma_m is None:
        return None
    km = -float(m.xi) / 2.0
    inflate = 0.0
    for r in range(0, s_inflate):
        dr = schedule.delta[r] ** 0.5 * schedule.sigma_scale
        if dr <= sigma_m:
            inflate += dr
    inflate *= 64.0
    return km - sigma_m - inflate, km + sigma_m + inflate


def excluded_blocker_oracle(schedule, lat, k, scale, exempt=frozenset()):
    """Walks B(12 R^(scale)) and rebuilds every interval; ``exempt`` holds t."""
    upper = 12.0 * schedule.R[min(scale, schedule.s_max)]
    if not math.isfinite(upper):
        upper = 12.0 * schedule.R[schedule.feasible_s]
    for m in lat.ball(upper):
        if m.is_identity or m.t in exempt:
            continue
        endpoints = kpm_endpoints(schedule, m, scale - 1)
        if endpoints is None:
            continue
        lo, hi = endpoints
        if lo < k < hi:
            return m, (lo, hi)
    return None


def resonance_profile_oracle(k, schedule, lat, truncation_R,
                             width_override=None):
    """(n_points, s_levels, reflection_sets), resonances ordered by (norm, rep)."""
    res = []
    for e in lat.ball(truncation_R):
        if e.is_identity:
            continue
        shell = schedule.shell_of(e.norm)
        if shell is None:
            continue
        width = schedule.delta[shell] ** 0.75
        if width_override is not None:
            replaced = width_override(e, shell)
            if replaced is not None:
                width = replaced
        if abs(k - (-float(e.xi) / 2.0)) < width:
            res.append((e, shell))
    res.sort(key=lambda pair: pair[0].key())
    reflection = []
    for e, _ in res:
        if not reflection:
            reflection.append(frozenset({lat.identity, e}))
        else:
            current = reflection[-1]
            reflection.append(current | {lat.sub(e, x) for x in current})
    return (tuple(e for e, _ in res), tuple(s for _, s in res),
            tuple(reflection))


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
    # log R^(u) = 4, 8, 32, 512: R^(4) fits, but delta0^(3) = e^-1024 does not
    schedule = build_schedule("practical", s_max=5, R1=math.e**4, beta=0.5,
                              eps0=1.0)
    assert schedule.feasible_s == 3
    assert schedule.delta[3] == 0.0          # e^-1024 underflows
    assert schedule.log_delta[3] == -1024.0  # but the log view survives
    schedule.require_feasible(3)
    with pytest.raises(ScheduleInfeasible) as exc:
        schedule.require_feasible(4)
    assert (exc.value.requested, exc.value.largest_feasible) == (4, 3)


def test_practical_preconditions():
    with pytest.raises(PreconditionFailed):
        build_schedule("practical", s_max=2, R1=2.0, beta=0.5)  # R1 <= e
    with pytest.raises(PreconditionFailed):
        build_schedule("practical", s_max=2, R1=10.0, beta=1.5)


def test_strict_beta_value():
    # beta1 = 1/(32 b0); with kappa0 = 1 the R1 floor is only log(100/a0)
    s = build_schedule("strict", s_max=1, R1=250.0, a0=0.5, b0=2.0,
                       kappa0=1.0, alpha0=1.0)
    assert s.beta == pytest.approx(1.0 / 64.0)


def test_strict_mode_log_space_budget():
    # for kappa0 < 1 the strict R1 floor alone overflows float64
    log_floor = 2.0**34 * 64.0 * math.log(1 / 0.5)
    assert log_floor > 709.78  # exp(log_floor) not representable
    # Eq-(2epsilon0)-style eps0 always underflows in strict mode, so the
    # budget statement eps_s > eps0/2 lives in log space: it reduces to
    # log delta0^(1) < log eps0 - log 4 (the sum is dominated by delta0^(1))
    s = build_schedule("strict", s_max=2, log_R1=30000.0, a0=0.5, b0=2.0,
                       kappa0=1.0, alpha0=1.0)
    assert s.feasible_s == 0 and s.eps0 == 0.0  # nothing representable
    log_d0 = s.log_delta[0] / 4.0
    assert s.log_eps0 == strict_epsilon0_log(log_d0, 1.0, 1.0, 1)
    assert s.log_delta[1] < s.log_eps0 - math.log(4.0)
    for u in (2,):
        assert s.log_delta[u] < s.log_delta[1]  # decreasing sum terms


def test_strict_r1_floor_enforced():
    with pytest.raises(PreconditionFailed):
        build_schedule("strict", s_max=1, R1=10.0, a0=0.5, b0=2.0,
                       kappa0=1.0)


def test_epsilon_budget_examples():
    s = build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=1.0)
    # eps_s = eps0 - sum delta0^(s'), hand-checked
    assert s.eps[1] == pytest.approx(1.0 - s.delta[1])
    assert s.eps[2] == pytest.approx(1.0 - s.delta[1] - s.delta[2])


def _mirror_ok(table):
    """k^+-_{-m,s} = -k^-+_{m,s} in every row s of the mode table. -m is
    found by its coordinate -t: its canonical rep need not be -rep(m) (on
    omega = (1, 3/7), m = [1,4] has -m = [-4,3])."""
    t = table.t.tolist()
    row = {tm: i for i, tm in enumerate(t)}
    mirror = [row[-tm] for tm in t]
    return all(np.all(np.abs(a + b[:, mirror])
                      <= 1e-14 * np.maximum(1.0, np.abs(a)))
               for a, b in ((table.hi, table.lo), (table.lo, table.hi)))


def test_kpm_mirror_identity(line_lattice, toy_schedule):
    table = mode_table(toy_schedule, line_lattice, 24.0)
    assert _mirror_ok(table)
    by_rep = {m.rep: i for i, m in enumerate(table.elements)}
    for i, m in enumerate(table.elements):
        j = by_rep[tuple(-v for v in m.rep)]
        for s in range(toy_schedule.s_max + 1):
            assert table.hi[s, i] == pytest.approx(-table.lo[s, j], abs=1e-15)


def test_kpm_mirror_check_reaches_every_interval(toy_schedule):
    # on omega = (1, 3/7) the canonical rep of -m is not always -rep(m)
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    table = mode_table(toy_schedule, lat, 6.0)
    by_t = {m.t: m for m in table.elements}
    assert all(-t in by_t for t in by_t)
    odd = [i for i, m in enumerate(table.elements)
           if by_t[-m.t].rep != tuple(-v for v in m.rep)]
    assert (len(table.elements), len(odd)) == (108, 6)
    assert _mirror_ok(table)
    for i in odd:
        hi = table.hi.copy()
        hi[:, i] += 1e-6
        assert not _mirror_ok(dataclasses.replace(table, hi=hi))


def test_kpm_sigma_zero_and_monotonicity(line_lattice, toy_schedule):
    sigma0 = sigma(toy_schedule, 0)
    assert sigma0 == pytest.approx(
        32.0 * toy_schedule.delta[0] ** (1 / 6) * toy_schedule.sigma_scale)
    table = mode_table(toy_schedule, line_lattice, 24.0)
    i = table.elements.index(line_lattice.canonicalize([1]))
    prev = None
    for lo, hi in zip(table.lo[:, i], table.hi[:, i]):
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
    assert p.reflection_sets[0] == frozenset({0, n0.t})


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
    assert p.reflection_sets[0] == frozenset(x.t for x in m0)
    assert p.reflection_sets[1] == frozenset(x.t for x in m1)
    assert len(p.reflection_sets[1]) == 4
    # reflection invariance: T_{n^(l)}(m^(l)) = m^(l)
    for ell, refl in enumerate(p.reflection_sets):
        n_ell = p.n_points[ell]
        assert {lat.sub(n_ell, lat.element(x)).t for x in refl} == set(refl)


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


# --- the mode table against the scalar oracles ---

TABLE_OMEGAS = [("1",), ("1/2", "1/2"), ("2/5", "3/7"), ("1", "3/7")]
# sigma_scale 1e-9 keeps every interval apart; from 1e-4 on the intervals of
# omega = (2/5, 3/7) overlap (k_m spacing 1/70), from 1e-2 on every one does
SIGMA_SCALES = [1e-9, 1e-5, 1e-4, 1e-3, 1e-2]


@functools.lru_cache(maxsize=None)
def _table_lattice(omega):
    return QuotientLattice(FrequencyVector.parse(omega))


@functools.lru_cache(maxsize=None)
def _table_schedule(R1, beta, sigma_scale):
    return build_schedule("practical", s_max=2, R1=R1, beta=beta, eps0=0.5,
                          sigma_scale=sigma_scale)


def _bits(x):
    return float(x).hex()


def _same_hit(got, want):
    if want is None:
        return got is None
    (m, (lo, hi)), (m0, (lo0, hi0)) = got, want
    return ((m.rep, m.t) == (m0.rep, m0.t)
            and (_bits(lo), _bits(hi)) == (_bits(lo0), _bits(hi0)))


@st.composite
def table_probes(draw):
    """A schedule, a lattice and k at a k_m or at an endpoint, nudged by at
    most one ulp. R1 = 4, beta = 0.9 keeps 12 R^(2) at 67, so the 2-D balls
    stay small."""
    lat = _table_lattice(draw(st.sampled_from(TABLE_OMEGAS)))
    schedule = _table_schedule(4.0, 0.9, draw(st.sampled_from(SIGMA_SCALES)))
    table = mode_table(schedule, lat, 12.0 * schedule.R[2])
    i = draw(st.integers(0, len(table.elements) - 1))
    row = draw(st.integers(0, schedule.s_max))
    k = {"k_m": table.k, "lo": table.lo[row], "hi": table.hi[row]}[
        draw(st.sampled_from(["k_m", "lo", "hi"]))][i]
    k = float({-1: np.nextafter(k, -np.inf), 0: k,
               1: np.nextafter(k, np.inf)}[draw(st.sampled_from([-1, 0, 1]))])
    return schedule, lat, table.elements[i], k


@given(table_probes(), st.sampled_from([1, 2]), st.booleans())
def test_excluded_blocker_matches_scalar_oracle(probe, scale, exempt_mode):
    schedule, lat, m, k = probe
    exempt = frozenset({m.t, -m.t}) if exempt_mode else frozenset()
    want = excluded_blocker_oracle(schedule, lat, k, scale, exempt)
    got = excluded_blocker(schedule, lat, k, scale, exempt=exempt)
    assert _same_hit(got, want)


@given(st.sampled_from(TABLE_OMEGAS), st.sampled_from(SIGMA_SCALES),
       st.sampled_from([6.0, 30.0, 200.0]))
def test_kpm_intervals_match_scalar_endpoints(omega, sigma_scale, radius):
    # radius 200 exceeds 12 R^(2) = 67, where the shells stop
    lat = _table_lattice(omega)
    schedule = _table_schedule(4.0, 0.9, sigma_scale)
    upper = min(radius, 12.0 * schedule.R[schedule.s_max])
    table = mode_table(schedule, lat, upper)
    assert _mirror_ok(table)
    want = [m for m in lat.ball(upper)
            if not m.is_identity and schedule.shell_of(m.norm) is not None]
    assert [m.rep for m in table.elements] == [m.rep for m in want]
    for i, m in enumerate(table.elements):
        assert table.shell[i] == schedule.shell_of(m.norm)
        sigma_m = sigma(schedule, m.norm)
        km = -float(m.xi) / 2.0
        # row 0 is not inflated: k_m -+ sigma
        assert (_bits(table.lo[0, i]), _bits(table.hi[0, i])) == (
            _bits(km - sigma_m), _bits(km + sigma_m))
        for s in range(schedule.s_max + 1):
            lo, hi = kpm_endpoints(schedule, m, s)
            assert (_bits(table.lo[s, i]), _bits(table.hi[s, i])) == (
                _bits(lo), _bits(hi))


@given(st.sampled_from(TABLE_OMEGAS), st.sampled_from([(4.0, 0.9), (12.0, 0.5)]),
       st.data())
def test_resonance_profile_matches_scalar_oracle(omega, R1_beta, data):
    lat = _table_lattice(omega)
    schedule = _table_schedule(*R1_beta, 1e-8)
    table = mode_table(schedule, lat, 12.0)
    i = data.draw(st.integers(0, len(table.elements) - 1))
    k = float(table.k[i] + data.draw(st.sampled_from([0.0, 1e-3, -2e-3, 0.01])))
    p = resonance_profile(k, schedule, lat, truncation_R=12.0)
    n_points, s_levels, reflection = resonance_profile_oracle(
        k, schedule, lat, 12.0)
    norms = [n.norm for n in p.n_points]
    if len(set(norms)) == len(norms):
        assert [n.rep for n in p.n_points] == [n.rep for n in n_points]
        assert p.s_levels == s_levels
        assert p.reflection_sets == tuple(frozenset(x.t for x in r)
                                          for r in reflection)
    else:
        # equal norms: ordered by t at k >= 0 and by -t at k < 0
        sign = 1 if k >= 0 else -1
        assert set(p.n_points) == set(n_points)
        assert norms == sorted(norms)
        assert [(n.norm, sign * n.t) for n in p.n_points] == sorted(
            (n.norm, sign * n.t) for n in p.n_points)
    mirror = resonance_profile(-k, schedule, lat, truncation_R=12.0)
    assert [n.t for n in mirror.n_points] == [-n.t for n in p.n_points]
