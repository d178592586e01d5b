import dataclasses
import functools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hillbands import band, oracle
from hillbands.band import (BandContext, band_curve, compute_point,
                            conjugate_reflection_audit, decay_audit,
                            dense_recheck_audit, floquet_gap_edge_audit,
                            gap_edges, gap_resolvent_audit,
                            gap_spectrum_audit, increment_audit,
                            monotonicity_audit, symmetry_audit)
from hillbands.cli import build_context, k_grid_from
from hillbands.eigensolve import PuncturedResolvent, solve_simple
from hillbands.errors import HypothesisFailed, NoConvergence, PreconditionFailed
from hillbands.operators import TWO_PI_SQ, OperatorSpec, assemble
from hillbands.oracle import dense_spectrum, floquet_gap_edges, period
from hillbands.scales import build_schedule
from hillbands.schur import q_g_functions

from conftest import make_context
from oracles import dense_dual_matrix


def test_band_curve_free_case(line_lattice, cosine_folded, toy_schedule):
    ctx = make_context(line_lattice, cosine_folded, toy_schedule, eps=0.0)
    ks = [0.05, 0.17, 0.31, 0.44]
    points = band_curve(ctx, ks)
    for p in points:
        assert p.E == pytest.approx(TWO_PI_SQ * p.k**2, abs=1e-12)
        assert p.klass == "N"


def test_band_curve_drops_resonance_momenta(toy_context):
    points = band_curve(toy_context, [0.3, 0.5, 0.7])  # 0.5 = k_{-1}
    assert [p.k for p in points] == [0.3, 0.7]


def test_band_point_routing(toy_context):
    # near the first resonance the analysis interval routes to the pair solver
    width = toy_context.schedule.delta[1] ** 0.75
    p = compute_point(toy_context, 0.5 - 0.25 * width)
    assert p.klass == "OPR"
    assert p.E is not None
    q = compute_point(toy_context, 0.3)
    assert q.klass == "N"


def test_resonant_branch_side_matches_dense(toy_context):
    # just above k_m = 0.5 the band point follows the upper branch
    width = toy_context.schedule.delta[1] ** 0.75
    for side in (+1.0, -1.0):
        k = 0.5 + side * 0.25 * width
        p = compute_point(toy_context, k)
        assert p.klass == "OPR"
        m = assemble(toy_context.lat.ball(12.0), toy_context.spec(k),
                     toy_context.folded, toy_context.lat)
        w, _ = dense_spectrum(m)
        v0 = TWO_PI_SQ * k * k
        two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
        expected = two[1] if side > 0 else two[0]
        assert p.E == pytest.approx(expected, abs=1e-8)


def test_branch_symmetry_across_resonance(toy_context):
    # on the T-symmetric domain the two branch values are symmetric in
    # theta = k - k_m: E(+-)(k_m + theta) = E(+-)(k_m - theta)
    width = toy_context.schedule.delta[1] ** 0.75
    for theta in (0.1 * width, 0.3 * width):
        left = compute_point(toy_context, 0.5 - theta)
        right = compute_point(toy_context, 0.5 + theta)
        assert left.klass == right.klass == "OPR"
        # left rides the lower branch, right the upper; recover both via dense
        m = assemble(toy_context.lat.ball(12.0), toy_context.spec(0.5 + theta),
                     toy_context.folded, toy_context.lat)
        w, _ = dense_spectrum(m)
        v0 = TWO_PI_SQ * (0.5 + theta) ** 2
        pair_r = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
        m2 = assemble(toy_context.lat.ball(12.0), toy_context.spec(0.5 - theta),
                      toy_context.folded, toy_context.lat)
        w2, _ = dense_spectrum(m2)
        v02 = TWO_PI_SQ * (0.5 - theta) ** 2
        pair_l = np.sort(w2[np.argsort(np.abs(w2 - v02))[:2]])
        assert pair_l[0] == pytest.approx(pair_r[0], abs=1e-10)
        assert pair_l[1] == pytest.approx(pair_r[1], abs=1e-10)
        assert left.E == pytest.approx(pair_l[0], abs=1e-9)
        assert right.E == pytest.approx(pair_r[1], abs=1e-9)


@functools.lru_cache(maxsize=None)
def pair_context(nu, kind, seed, use_domains):
    """nu = 1: the reference schedule, pair routes within about 0.02 of
    k_{-1} = 1/2. nu = 2: omega = (1, 3/7), where every k of [0.05, 0.45]
    takes the OPR or GSR-2 route."""
    if kind == "cosine":
        potential = {"kind": "cosine", "n0": [1] + [0] * (nu - 1),
                     "kappa0": 1.0, "alpha0": 1.0}
    else:
        potential = {"kind": "random_phase", "support_radius": 2,
                     "amplitude_scale": 0.5, "kappa0": 0.5, "alpha0": 1.0,
                     "seed": seed}
    return build_context({
        "lattice": {"nu": nu, "omega": ["1"] if nu == 1 else ["1", "3/7"]},
        "potential": potential,
        "coupling": 0.05,
        "schedule": {"beta": 0.5, "R1": 9.0, "s_max": 2,
                     "s_cap": 2 if nu == 1 else 1,
                     "sigma_scale": 1e-9 if nu == 1 else 1e-8, "eps0": 0.5},
        "truncation_R": 12 if nu == 1 else 6,
        "use_domains": use_domains,
    })


@st.composite
def pair_route_cases(draw):
    nu = draw(st.sampled_from([1, 2]))
    kind = draw(st.sampled_from(["cosine", "random_phase"]))
    seed = draw(st.integers(1, 3)) if kind == "random_phase" else 0
    if nu == 1:
        use_domains = draw(st.booleans())
        k = 0.5 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 0.02))
    else:
        use_domains = False
        k = draw(st.floats(0.05, 0.45))
    return (nu, kind, seed, use_domains), k


@settings(max_examples=24)
@given(pair_route_cases())
# k = 1/8 on nu = 2 lies midway between k_n = 3/28 and 4/28, which tie in norm
@example(((2, "cosine", 0, False), 0.125))
@example(((2, "random_phase", 1, False), 0.125))
def test_pair_route_is_even_in_k(case):
    # E(k) = E(-k) and phi(n; -k) = conj phi(-n; k): at -k the top resonance
    # is -n_top, so the branch must follow |k| against |k_n0|
    params, k = case
    ctx = pair_context(*params)
    pos, neg = compute_point(ctx, k), compute_point(ctx, -k)
    assert pos.klass == neg.klass
    assert pos.klass == "OPR" or pos.klass.startswith("GSR")
    assert [n.t for n in neg.profile.n_points] == [
        -n.t for n in pos.profile.n_points]
    assert symmetry_audit([pos], [neg]).passed
    # mirrored tops give mirrored domains, so phi is compared on every point
    reflection = conjugate_reflection_audit([pos], [neg])
    assert reflection.passed and reflection.checked == 1

def test_branch_monotonicity_and_splitting(toy_context):
    # E(+) increases and E(-) decreases away from k_m; the splitting clears
    # the normalized lower bound (k0 |k - k_m|)^2 / 2 with the weakest k0
    width = toy_context.schedule.delta[1] ** 0.75
    thetas = [0.1 * width, 0.2 * width, 0.35 * width]
    uppers, lowers, splits = [], [], []
    for theta in thetas:
        up = compute_point(toy_context, 0.5 + theta)
        low = compute_point(toy_context, 0.5 - theta)
        uppers.append(up.E)
        lowers.append(low.E)
        splits.append((up.E - low.E) / (256.0 * TWO_PI_SQ))
    assert uppers == sorted(uppers)
    assert lowers == sorted(lowers, reverse=True)
    eps0 = toy_context.schedule.eps0
    for theta, split in zip(thetas, splits):
        k0 = min(eps0 ** 0.75, 0.5 / 512.0)
        assert split > (k0 * theta) ** 2 / 2.0


def test_symmetry_and_conjugate_reflection(toy_context):
    ks = [0.11, 0.23, 0.37]
    pos = band_curve(toy_context, ks)
    neg = band_curve(toy_context, [-k for k in ks])
    rec = symmetry_audit(pos, neg)
    assert rec.passed and rec.checked == 3
    rec2 = conjugate_reflection_audit(pos, neg)
    assert rec2.passed


def test_monotonicity_free_case(line_lattice, cosine_folded, toy_schedule):
    ctx = make_context(line_lattice, cosine_folded, toy_schedule, eps=0.0)
    points = band_curve(ctx, [0.05 + 0.02 * i for i in range(10)])
    rec = monotonicity_audit(ctx, points)
    assert rec.passed and rec.checked > 0


def test_gap_edges_zero_coupling(line_lattice, cosine_folded, toy_schedule):
    ctx = make_context(line_lattice, cosine_folded, toy_schedule, eps=0.0)
    g = gap_edges(ctx, line_lattice.canonicalize([-1]))
    v0 = TWO_PI_SQ * 0.25
    assert g.E_minus == pytest.approx(v0, abs=1e-9)
    assert g.E_plus == pytest.approx(v0, abs=1e-9)
    assert g.width <= 1e-9


def test_gap_edges_match_dense_pair(toy_context):
    m = toy_context.lat.canonicalize([-1])
    g = gap_edges(toy_context, m)
    lat = toy_context.lat
    ball = lat.ball(12.0)
    dom = sorted(set(list(ball) + [lat.sub(m, e) for e in ball]),
                 key=lambda e: e.key())
    dense = assemble(dom, toy_context.spec(0.5), toy_context.folded, lat)
    w, _ = dense_spectrum(dense)
    v0 = TWO_PI_SQ * 0.25
    two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
    assert g.E_minus == pytest.approx(two[0], abs=1e-8)
    assert g.E_plus == pytest.approx(two[1], abs=1e-8)
    assert g.width <= g.bound


def test_gap_edge_limits_crosscheck(toy_context):
    from hillbands.band import gap_edge_limit_crosscheck

    m = toy_context.lat.canonicalize([-1])
    g = gap_edges(toy_context, m)
    rec = gap_edge_limit_crosscheck(toy_context, g)
    assert rec.passed and rec.checked == 2
    # a quarter of the resonance width at s_cap = 1
    assert rec.details["theta"] == 0.25 * toy_context.schedule.delta[1] ** 0.75


def test_gap_edges_crosscheck_is_live(toy_context, monkeypatch):
    # Q off by 1e-6 in the dense cross-check must stop the gap
    def shifted(H, principal, E, **kwargs):
        qg = q_g_functions(H, principal, E, **kwargs)
        return dataclasses.replace(
            qg, Q={p: q + 1e-6 for p, q in qg.Q.items()})

    monkeypatch.setattr(band, "q_g_functions", shifted)
    with pytest.raises(HypothesisFailed, match="gap-edge resolvent"):
        gap_edges(toy_context, toy_context.lat.canonicalize([-1]))


class _DenseQG:
    """Stand-in for PuncturedResolvent that brackets by a dense eigvalsh of
    the whole matrix and recomputes Q and G with the dense q_g_functions at
    every E: the reference route for the gap edges."""

    def __init__(self, matrix, principal):
        self.matrix, self.principal = matrix, principal
        self.H = matrix.values

    def eigenvalues_around(self, target):
        return np.linalg.eigvalsh(self.H)

    def Q(self, p, E):
        return q_g_functions(self.H, self.principal, E).Q[p]

    def G(self, p, q, E):
        return q_g_functions(self.H, self.principal, E).G[(p, q)]


def random_phase_2d_context(omega, coupling=0.05):
    """The resonant_2d benchmark's data (complex random_phase, seed 1) on
    the given nu = 2 frequency."""
    return build_context({
        "lattice": {"nu": 2, "omega": list(omega)},
        "potential": {"kind": "random_phase", "support_radius": 2,
                      "amplitude_scale": 0.5, "kappa0": 0.5, "alpha0": 1.0,
                      "seed": 1},
        "coupling": coupling,
        "schedule": {"beta": 0.5, "R1": 9.0, "s_max": 2, "s_cap": 1,
                     "sigma_scale": 1e-8, "eps0": 0.5},
        "truncation_R": 6,
    })


def test_gap_edges_match_dense_q_g_route_on_2d_lattice(monkeypatch):
    # nu = 2, omega = (1, 3/7), complex random_phase data: a dense matrix
    ctx = random_phase_2d_context(["1", "3/7"])
    m = ctx.lat.canonicalize([0, 1])
    fast = gap_edges(ctx, m)
    monkeypatch.setattr(band, "PuncturedResolvent", _DenseQG)
    slow = gap_edges(ctx, m)
    assert fast.width > 0
    for a, b in ((fast.E_minus, slow.E_minus), (fast.E_plus, slow.E_plus)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@pytest.mark.parametrize("omega", [["1", "1/2"], ["1/2", "1/2"], ["1", "2"]])
def test_gap_edges_match_floquet_with_a_folded_zero_mode(omega):
    # the null lattice of each omega meets the support, so folding leaves a
    # constant c(0) in the identity coset; the Floquet potential carries
    # eps c(0), and the dual gap edges must carry it too
    ctx = random_phase_2d_context(omega)
    assert abs(ctx.folded.value(ctx.lat.identity)) > 0.03
    gap = gap_edges(ctx, ctx.lat.canonicalize([0, 1]))
    lo, hi = floquet_gap_edges(gap.E_minus, gap.E_plus, ctx.eps, ctx.folded,
                               period(ctx.lat.omega))
    for dual, ode in ((gap.E_minus, lo), (gap.E_plus, hi)):
        assert abs(dual - ode) <= 1e-9 * max(1.0, abs(dual))


@pytest.mark.parametrize("where", ["simple", "pair", "pair_2d"])
def test_punctured_gap_matches_dense_punctured_block(toy_context, where):
    # min |E - w| over the punctured block of the sample's own matrix, on
    # the simple route (punctured at 0) and the pair route (at 0 and n_top)
    if where == "pair_2d":
        ctx, k = random_phase_2d_context(["1", "3/7"]), 0.05
    else:
        width = toy_context.schedule.delta[1] ** 0.75
        ctx = toy_context
        k = 0.3 if where == "simple" else 0.5 - 0.25 * width
    point = compute_point(ctx, k)
    assert point.klass.startswith("N") == (where == "simple")
    principal = [ctx.lat.identity]
    if where != "simple":
        principal.append(point.profile.top())
    matrix = assemble(list(point.domain), ctx.spec(k), ctx.folded, ctx.lat)
    assert matrix.domain == point.domain
    rows = [matrix.row_of(e) for e in principal]
    others = [i for i in range(matrix.size) if i not in rows]
    w = np.linalg.eigvalsh(matrix.values[np.ix_(others, others)])
    expected = float(np.min(np.abs(point.E - w)))
    assert point.punctured_gap == pytest.approx(
        expected, abs=1e-12 * max(1.0, matrix.norm_bound()))
    assert point.to_dict()["punctured_gap"] == point.punctured_gap


def test_gap_edges_rejects_zero_momentum(toy_context):
    with pytest.raises(PreconditionFailed):
        gap_edges(toy_context, toy_context.lat.identity)


def test_gap_spectrum_audit(toy_context):
    g = gap_edges(toy_context, toy_context.lat.canonicalize([-1]))
    rec = gap_spectrum_audit(toy_context, g)
    assert rec.passed


def test_decay_audit_strict_and_practical(toy_context):
    p = compute_point(toy_context, 0.3)
    rec = decay_audit(toy_context, p, mode="strict")
    assert rec.passed and rec.checked > 0
    rec2 = decay_audit(toy_context, p, mode="practical")
    assert rec2.passed
    assert rec2.details["fitted_rate"] >= toy_context.folded.kappa0 / 2.0


def test_decay_audit_two_center(toy_context):
    width = toy_context.schedule.delta[1] ** 0.75
    p = compute_point(toy_context, 0.5 - 0.25 * width)
    assert p.klass == "OPR"
    rec = decay_audit(toy_context, p, mode="strict")
    assert rec.passed
    assert len(rec.details["centers"]) == 2


def test_decay_audit_zero_coupling(line_lattice, cosine_folded, toy_schedule):
    ctx = make_context(line_lattice, cosine_folded, toy_schedule, eps=0.0)
    p = compute_point(ctx, 0.3)
    rec = decay_audit(ctx, p, mode="strict")
    assert rec.passed  # indicator vector: all bounds trivially hold


def test_increment_audit_with_domains(line_lattice, cosine_folded):
    schedule = build_schedule("practical", s_max=3, R1=9.0, beta=0.5,
                              eps0=0.5, sigma_scale=1e-9, a0=0.5, b0=2.0,
                              kappa0=1.0, alpha0=1.0, nu=1)
    ctx = BandContext(lat=line_lattice, folded=cosine_folded,
                      schedule=schedule, eps=0.05, truncation_R=12.0,
                      s_cap=3, use_domains=True)
    p = compute_point(ctx, 0.37)
    assert p.scale == 3
    assert len(p.increments) == 2
    rec = increment_audit([p])
    assert rec.passed


def _synthetic_point(k, E, **fields):
    return band.BandPoint(k=k, E=E, scale=1, klass="N",
                          punctured_gap=None, **fields)


def test_increment_audit_fails_above_bound_and_on_growth():
    # 1e-3 exceeds its bound 1e-6, and 2e-3 > 1e-3 does not contract
    p = _synthetic_point(0.1, 1.0, increments=(1e-3, 2e-3),
                         increment_bounds=(1e-6, 1e-2), matrix_norm=1.0)
    rec = increment_audit([p])
    floor = band.NOISE_FLOOR_ULPS * np.finfo(float).eps
    assert rec.passed is False and rec.name == "scale_increments"
    assert rec.checked == 3
    assert rec.details["failures"] == [
        {"k": 0.1, "increment": 1e-3, "bound": 1e-6, "floor": floor},
        {"k": 0.1, "contraction": (1e-3, 2e-3), "floor": floor}]


def test_monotonicity_audit_fails_on_a_flat_band(toy_context):
    # dE = 0 misses the lower bound k0^2 (k - k1)^2 > 0
    points = [_synthetic_point(0.1, 1.0), _synthetic_point(0.2, 1.0)]
    rec = monotonicity_audit(toy_context, points)
    assert rec.passed is False and rec.checked == 1
    (failure,) = rec.details["failures"]
    assert (failure["k1"], failure["k"], failure["dE"]) == (0.1, 0.2, 0.0)
    assert failure["lower"] > failure["dE"]


def test_conjugate_reflection_audit_fails_on_a_missing_mirror(line_lattice):
    # phi agrees at n = 0, but the domain at -k lacks the mirror of n = 1
    e0, e1 = line_lattice.element(0), line_lattice.element(1)
    pos = _synthetic_point(0.1, 1.0, phi=np.array([1.0 + 0j, 0.5 + 0j]),
                           domain=(e0, e1))
    neg = _synthetic_point(-0.1, 1.0, phi=np.array([1.0 + 0j]),
                           domain=(e0,))
    rec = conjugate_reflection_audit([pos], [neg])
    assert rec.passed is False and rec.name == "conjugate_reflection"
    assert rec.checked == 0
    assert rec.details["max_difference"] == 0.0


def test_decay_audit_fails_without_an_eigenvector(toy_context):
    rec = decay_audit(toy_context, _synthetic_point(0.1, None),
                      mode="practical")
    assert rec.passed is False and rec.name == "decay"
    assert rec.checked == 0 and rec.details == {"error": "no eigenvector"}


def test_dense_recheck_audit_fails_on_a_shifted_energy(toy_context):
    # 1e-3 is above 1e-8 ||H||_inf (about 6e-5 on B(12)); a sample without
    # E fails the audit too
    points = band_curve(toy_context, [-0.15, 0.15, 0.3])
    rec = dense_recheck_audit(toy_context, points)
    assert rec.passed and rec.checked == 3
    assert rec.details["max_difference"] <= band.DENSE_RECHECK_TOL
    shifted = dataclasses.replace(points[1], E=points[1].E + 1e-3)
    rec = dense_recheck_audit(toy_context, [points[0], shifted, points[2]])
    assert rec.passed is False and rec.name == "dense_recheck"
    assert rec.details["max_difference"] > band.DENSE_RECHECK_TOL
    rec = dense_recheck_audit(toy_context,
                              [points[0], _synthetic_point(0.2, None)])
    assert rec.passed is False and rec.checked == 1


@pytest.mark.parametrize("omega, coupling, ks", [
    (["1", "5/8"], 0.2, [0.03]), (["1", "3/7"], 0.5, [0.03, 0.07])])
def test_dense_recheck_audit_labels_E_by_the_index_rule(omega, coupling, ks):
    # pair samples whose E is eigenvalue j = #{n : v(n) < v(0)} of
    # B(truncation_R) to 1e-16 ||H||_inf, while the eigenvalue nearest
    # (2 pi)^2 k^2 is number j + 1, 6.6e-6 ||H||_inf (5/8) and 1.2e-4 (3/7)
    # away
    ctx = random_phase_2d_context(omega, coupling)
    points = band_curve(ctx, ks)
    assert [p.klass for p in points] == ["OPR"] * len(ks)
    rec = dense_recheck_audit(ctx, points)
    assert rec.passed and rec.checked == len(ks)
    assert rec.details["max_difference"] <= 1e-16


def test_floquet_gap_edge_audit_on_a_closed_gap():
    # the cosine at n0 = (1, 0) with kappa0 = 0.5 leaves the (0, 1) gap
    # closed: |Delta| - 2 is about -1e-8 at E0 +- 1e-5 and 2e-15 at E0
    ctx = build_context({
        "lattice": {"nu": 2, "omega": ["1", "3/7"]},
        "potential": {"kind": "cosine", "n0": [1, 0], "kappa0": 0.5},
        "coupling": 0.05,
        "schedule": {"beta": 0.5, "R1": 9.0, "s_max": 2, "s_cap": 1,
                     "sigma_scale": 1e-8, "eps0": 0.5},
        "truncation_R": 6,
    })
    gap = gap_edges(ctx, ctx.lat.canonicalize([0, 1]))
    assert gap.E_minus == gap.E_plus
    rec = floquet_gap_edge_audit(ctx, gap)
    assert rec.passed and rec.checked == 3 and rec.details["closed"] is True
    below, at, above = rec.details["discriminants"]
    assert max(abs(below), abs(above)) < 2.0 < abs(at) + 1e-12
    E = gap.E_minus + 1e-3
    moved = floquet_gap_edge_audit(
        ctx, dataclasses.replace(gap, E_minus=E, E_plus=E))
    assert moved.passed is False and moved.details["closed"] is True


def test_floquet_gap_edge_audit_fails_an_open_gap_without_floquet_edges(
        toy_context):
    # [20, 20.1] lies inside a band of the toy: no Floquet edge near it
    gap = gap_edges(toy_context, toy_context.lat.canonicalize([-1]))
    rec = floquet_gap_edge_audit(
        toy_context, dataclasses.replace(gap, E_minus=20.0, E_plus=20.1))
    assert rec.passed is False
    assert rec.details["floquet_edges"] == [None, None]
    assert rec.details["max_difference"] is None


@pytest.mark.parametrize("edge", ["E_minus", "E_plus"])
def test_floquet_gap_edge_audit_fails_on_a_shifted_edge(toy_context, edge):
    gap = gap_edges(toy_context, toy_context.lat.canonicalize([-1]))
    rec = floquet_gap_edge_audit(toy_context, gap)
    assert rec.passed and rec.name == "floquet_gap_edges"
    assert rec.details["max_difference"] <= 1e-9
    shifted = dataclasses.replace(gap, **{edge: getattr(gap, edge) + 1e-4})
    rec = floquet_gap_edge_audit(toy_context, shifted)
    assert rec.passed is False
    assert rec.details["max_difference"] > band.FLOQUET_EDGE_TOL


def test_eigenvector_scale_increment(line_lattice, cosine_folded):
    # |phi^(s)(n) - phi^(s-1)(n)| on the common domain stays below
    # max(2 eps delta0^(s-1)^5, machine-noise floor)
    from hillbands.domains import DomainBuilder
    from hillbands.eigensolve import solve_simple

    schedule = build_schedule("practical", s_max=3, R1=9.0, beta=0.5,
                              eps0=0.5, sigma_scale=1e-9, a0=0.5, b0=2.0,
                              kappa0=1.0, alpha0=1.0, nu=1)
    lat = line_lattice
    k = 0.37
    builder = DomainBuilder(k, schedule, lat)
    pairs = {}
    for s in (2, 3):
        elems = [lat.element(t) for t in builder.lambda0(s)]
        matrix = assemble(elems, OperatorSpec(epsilon=0.05, k=k),
                          cosine_folded, lat)
        pairs[s] = (matrix, solve_simple(matrix, lat.identity))
    m2, p2 = pairs[2]
    m3, p3 = pairs[3]
    floor = 256 * np.finfo(float).eps * m3.norm_bound()
    bound = max(2 * 0.05 * schedule.delta[2] ** 5, floor)
    for e in m2.domain:
        diff = abs(p2.phi[m2.row_of(e)] - p3.phi[m3.row_of(e)])
        assert diff <= bound


def test_pair_spectral_window_uniqueness(toy_context):
    # exactly the two branch values inside |E - E^(s-1)| < 8 delta^(1/4)
    from hillbands.eigensolve import PuncturedResolvent, solve_pair

    lat = toy_context.lat
    n0 = lat.canonicalize([1])
    ball = lat.ball(12.0)
    dom = sorted(set(list(ball) + [lat.sub(n0, e) for e in ball]),
                 key=lambda e: e.key())
    matrix = assemble(dom, toy_context.spec(-0.5), toy_context.folded, lat)
    w, _ = dense_spectrum(matrix)
    v0 = TWO_PI_SQ * 0.25
    two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
    spread = two[1] - two[0]
    pair = [matrix.row_of(lat.identity), matrix.row_of(n0)]
    br = solve_pair(PuncturedResolvent(matrix, pair), lat.identity, n0,
                    (float(two[0] - 0.1 * spread), float(two[1] + 0.1 * spread)),
                    tau0_required=0.0)
    window = 8.0 * toy_context.schedule.delta[1] ** 0.25
    inside = [x for x in w if abs(x - v0) < window]
    assert sorted(inside) == pytest.approx([br.E_minus, br.E_plus])


def test_gap_resolvent_audit_inside_gap(toy_context):
    m = toy_context.lat.canonicalize([-1])
    g = gap_edges(toy_context, m)
    E = 0.5 * (g.E_minus + g.E_plus)
    rec = gap_resolvent_audit(toy_context, m, E, probe_count=4,
                              delta=g.width / 4.0)
    assert rec.passed
    assert len(rec.details["probes"]) == 4


def test_gap_resolvent_audit_detects_band_point(toy_context):
    # a band E meets the spectrum only at the matching probe momentum, so
    # align E with an eigenvalue of the first probe's matrix
    m = toy_context.lat.canonicalize([-1])
    g = gap_edges(toy_context, m)
    tau0 = float(toy_context.lat.xi_spacing()) / 2.0
    k_probe = 0.5 - tau0 + 2.0 * tau0 / 4.0  # first of four probes
    dense = assemble(toy_context.lat.ball(12.0), toy_context.spec(k_probe),
                     toy_context.folded, toy_context.lat)
    w, _ = dense_spectrum(dense)
    target = TWO_PI_SQ * k_probe**2
    E_band = float(w[np.argmin(np.abs(w - target))]) + 1e-11
    rec = gap_resolvent_audit(toy_context, m, E_band, probe_count=4,
                              delta=g.width / 4.0)
    assert not rec.passed  # inverse norm blows past delta^-1 at that probe


def test_below_spectrum_resolvent(toy_context):
    # Thm-C(5)-style: E below the whole spectrum obeys the same bounds
    m = toy_context.lat.canonicalize([-1])
    rec = gap_resolvent_audit(toy_context, m, E=-10.0, probe_count=3,
                              delta=0.05)
    assert rec.passed


def test_subexponential_decay_pipeline(line_lattice):
    # alpha0 < 1: folding audits (instead of asserting) the folded bound, and
    # the duality still holds at machine precision
    from hillbands.oracle import bloch_residual, period
    from hillbands.potential import exp_decay, fold

    folded = fold(exp_decay(5, nu=1, kappa0=1.0, alpha0=0.8), line_lattice)
    sched = build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=0.5,
                           sigma_scale=1e-8, kappa0=1.0,
                           alpha0=0.8, a0=0.5, b0=2.0, nu=1)
    ctx = BandContext(lat=line_lattice, folded=folded, schedule=sched,
                      eps=0.03, truncation_R=10.0, s_cap=1, use_domains=False)
    p = compute_point(ctx, 0.29)
    m = assemble(line_lattice.ball(10.0), ctx.spec(0.29), folded, line_lattice)
    w, _ = dense_spectrum(m)
    nearest = float(w[np.argmin(np.abs(w - TWO_PI_SQ * 0.29**2))])
    assert p.E == pytest.approx(nearest, abs=1e-10)
    T = period(line_lattice.omega)
    assert bloch_residual(p.domain, p.phi, 0.29, p.E, 0.03, folded, T) <= 1e-9
    g = gap_edges(ctx, line_lattice.canonicalize([-1]))
    assert g.width <= g.bound


@pytest.mark.parametrize("s_cap", [0, 4])
def test_band_context_takes_only_a_feasible_s_cap(line_lattice, cosine_folded,
                                                   s_cap):
    # log R^(u) = 4, 8, 32, 512: scales 1..3 fit float64, scale 4 does not
    schedule = build_schedule("practical", s_max=5, R1=math.e**4, beta=0.5,
                              eps0=0.5, sigma_scale=1e-9, a0=0.5, b0=2.0,
                              kappa0=1.0, alpha0=1.0, nu=1)
    assert schedule.feasible_s == 3
    make_context(line_lattice, cosine_folded, schedule, s_cap=3)
    with pytest.raises(ValueError, match=f"s_cap = {s_cap} is not a feasible"):
        make_context(line_lattice, cosine_folded, schedule, s_cap=s_cap)


def test_error_points_recorded_not_raised(line_lattice, cosine_folded):
    schedule = build_schedule("practical", s_max=1, R1=9.0, beta=0.5,
                              eps0=0.5, sigma_scale=1.0, a0=0.5, b0=2.0,
                              kappa0=1.0, alpha0=1.0, nu=1)
    ctx = BandContext(lat=line_lattice, folded=cosine_folded,
                      schedule=schedule, eps=0.05, truncation_R=12.0,
                      s_cap=1, use_domains=True)
    # verbatim sigma excludes everything; the fallback ball route still runs
    points = band_curve(ctx, [0.3])
    assert len(points) == 1
    assert points[0].E is not None or points[0].klass == "error"


# k, class, scale, lowest and highest t of the (contiguous) domain, E
REFERENCE_ROUTES = [
    (0.005, "N-sym", 2, (-33, 33), 0.0009698183190635925),
    (-0.005, "N-sym", 2, (-33, 33), 0.0009698183190635925),
    (0.37, "N", 2, (-33, 33), 5.404557482409826),
    (0.49, "OPR", 2, (-34, 33), 9.478335460472076),
    (0.51, "OPR", 2, (-34, 33), 10.268760454163319),
    (-0.49, "OPR", 2, (-33, 34), 9.478335460472076),
]


@pytest.fixture(scope="module")
def reference_context():
    path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
    return build_context(json.loads(path.read_text()))


@pytest.mark.parametrize("k, klass, scale, span, E", REFERENCE_ROUTES)
def test_reference_config_domain_routes(reference_context, k, klass, scale,
                                        span, E):
    # the shipped config reaches all three domain routes: the S-symmetrized
    # domain at small |k|, the inductive domain at s = 2, and the
    # T-symmetrized pair domain around k_{-1} = 1/2 (mirrored at -k)
    p = compute_point(reference_context, k)
    assert (p.klass, p.scale) == (klass, scale)
    assert sorted(e.t for e in p.domain) == list(range(span[0], span[1] + 1))
    assert p.E == pytest.approx(E, rel=1e-12)


def test_t_order_pair_route_builds_no_dense_view(reference_context,
                                                 monkeypatch):
    # the reference config's OPR sample: a cosine pair matrix, tridiagonal in
    # t order, solved from its stored nonzeros alone
    built = []
    real = band.assemble

    def recording(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(band, "assemble", recording)
    p = compute_point(reference_context, -0.49)
    assert p.klass == "OPR" and built
    for matrix in built:
        assert matrix.bandwidth <= 1 and "values" not in vars(matrix)


def test_failed_root_refinement_lands_in_class_error(reference_context,
                                                     monkeypatch):
    # f is NaN inside every bracket, so the NaN check under brentq raises
    # ValueError there; the sample must record NoConvergence instead of
    # aborting the sweep
    real = oracle.zeros._brentq

    def brentq(check, a, b, xtol, rtol, maxiter, args, *flags):
        f = args[0]
        return real(check, a, b, xtol, rtol, maxiter,
                    (lambda x: f(x) if x in (a, b) else math.nan,), *flags)

    monkeypatch.setattr(oracle, "zeros", SimpleNamespace(_brentq=brentq))
    p = compute_point(reference_context, 0.49)
    assert p.klass == "error" and p.error.startswith("NoConvergence")
    assert p.to_dict()["punctured_gap"] is None


def _reference_config(**overrides) -> dict:
    path = Path(__file__).resolve().parent.parent / "configs" / "reference.json"
    config = json.loads(path.read_text())
    config.update(overrides)
    return config


def _simple_route_errors(config: dict) -> tuple[list[str], list[float]]:
    """The class of each sample of the config's k grid, and for each sample
    of the simple route |E - nearest eigvalsh| / max(1, |E|) on the matrix
    of its domain."""
    ctx = build_context(config)
    points = band_curve(ctx, k_grid_from(config))
    errors = []
    for p in points:
        if p.klass.startswith("N"):
            matrix = assemble(list(p.domain), ctx.spec(p.k), ctx.folded,
                              ctx.lat)
            w = np.linalg.eigvalsh(matrix.values)
            errors.append(float(np.min(np.abs(w - p.E))) / max(1.0, abs(p.E)))
    return [p.klass for p in points], errors


def test_simple_route_matches_eigvalsh_on_reference():
    classes, errors = _simple_route_errors(_reference_config())
    assert len(errors) == len(classes) == 21
    assert max(errors) <= 1e-13


@pytest.mark.parametrize("coupling",
                         [1e-14, 1e-10, 1e-6, 1e-3, 0.05, 0.2, 0.5, 1.0])
def test_simple_route_holds_across_couplings(coupling):
    # the bracket [v, v + 2 Q(v)] keeps its margin down to weak coupling,
    # where Q(v) is a few ulps of v
    classes, errors = _simple_route_errors(_reference_config(coupling=coupling))
    assert "error" not in classes
    assert errors and max(errors) <= 1e-12


def _pole_in_bracket(matrix, m0):
    """The matrix with its last row coupled to m0 alone, by |q|/2, and its
    diagonal at v + q, where q = Q(m0; v) of the other rows and v = v(m0).
    Its punctured block then has the eigenvalue v + q, a pole of
    f(E) = E - v - Q(m0; E), while Q(m0; v) = q - q/4: the bracket
    [v, v + 2 Q(m0; v)] holds the pole."""
    i0, j = matrix.row_of(m0), matrix.size - 1
    H = matrix.values.copy()
    H[j, :] = H[:, j] = 0.0
    decoupled = dense_dual_matrix(matrix.domain, matrix.spec, H, matrix.size)
    v = float(H[i0, i0].real)
    q = PuncturedResolvent(decoupled, [i0]).Q(i0, v)
    H[j, j] = v + q
    H[j, i0] = H[i0, j] = abs(q) / 2.0
    return dense_dual_matrix(matrix.domain, matrix.spec, H, matrix.size)


def test_pole_inside_the_simple_bracket_is_an_error(reference_context,
                                                    monkeypatch):
    ctx = reference_context
    matrix = _pole_in_bracket(
        assemble(ctx.lat.ball(18.0), ctx.spec(0.37), ctx.folded, ctx.lat),
        ctx.lat.identity)
    with pytest.raises(HypothesisFailed, match="simple bracket"):
        solve_simple(matrix, ctx.lat.identity)
    real = band.assemble
    monkeypatch.setattr(band, "assemble", lambda *args: _pole_in_bracket(
        real(*args), ctx.lat.identity))
    p = compute_point(ctx, 0.37)
    assert p.klass == "error" and p.error.startswith("HypothesisFailed")


def test_ball_fallback_samples_are_labelled_n_ball(monkeypatch):
    # sigma_scale 1e-2 widens the exclusion intervals until some k of the
    # reference grid are excluded without being resonant
    config = _reference_config()
    config["schedule"] = {**config["schedule"], "sigma_scale": 1e-2}
    fallen = []
    real = band._ball_fallback

    def spy(ctx, k):
        fallen.append(k)
        return real(ctx, k)

    monkeypatch.setattr(band, "_ball_fallback", spy)
    ctx = build_context(config)
    points = band_curve(ctx, k_grid_from(config))
    assert len(fallen) == 6
    assert [p.k for p in points if p.klass == "N-ball"] == fallen
    assert all(p.klass in ("N", "N-sym") for p in points if p.k not in fallen)
    # the N prefix keeps them among the simple samples of the audits
    relabelled = [dataclasses.replace(p, klass="N") for p in points]
    assert (monotonicity_audit(ctx, points).checked
            == monotonicity_audit(ctx, relabelled).checked)


def test_failing_ball_fallback_is_an_error_sample(monkeypatch):
    # at sigma_scale 1e-2, k = 0.35 is excluded without being resonant, so
    # only the ball fallback solves; when that solve fails too, the sample
    # carries the fallback's error, not the exclusion
    config = _reference_config()
    config["schedule"] = {**config["schedule"], "sigma_scale": 1e-2}
    ctx = build_context(config)
    assert compute_point(ctx, 0.35).klass == "N-ball"

    def failing(matrix, principal):
        raise NoConvergence(7, 0.5)

    monkeypatch.setattr(band, "solve_simple", failing)
    p = compute_point(ctx, 0.35)
    assert (p.klass, p.E, p.scale) == ("error", None, 0)
    assert p.error == f"NoConvergence: {NoConvergence(7, 0.5)}"
