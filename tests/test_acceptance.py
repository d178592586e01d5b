"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Oracle- and property-based at desk scale: dense eigensolving, Floquet ODE
integration, exhaustive enumeration and closed forms arbitrate every claim at
the stated tolerances and runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from hillbands.band import (BandContext, band_curve, compute_point, decay_audit,
                            gap_edges, gap_resolvent_audit,
                            monotonicity_audit, symmetry_audit)
from hillbands.domains import (DomainBuilder, nesting_audit, subtract_stabilize,
                               symmetrize_S, symmetrize_T)
from hillbands.errors import ScheduleInfeasible
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.eigensolve import (PuncturedResolvent, dichotomy_core,
                                  solve_pair, solve_simple)
from hillbands.operators import TWO_PI_SQ, OperatorSpec, assemble
from hillbands.oracle import (bloch_residual, dense_spectrum,
                              floquet_gap_edges, period)
from hillbands.potential import cosine, fold
from hillbands.scales import build_schedule
from hillbands.schur import (WeightProfile, schur_block_inverse,
                             verify_weight_lemma, weight_sum_upper_bound_audit)


def report(number, name, elapsed, limit, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status} ({elapsed:.2f}s < {limit:.0f}s): "
          f"{name}{extra}")
    assert passed, f"criterion {number} failed: {name} {extra}"
    assert elapsed < limit, f"criterion {number} over budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def lat():
    return QuotientLattice(FrequencyVector.parse(["1"]))


@pytest.fixture(scope="module")
def folded(lat):
    return fold(cosine([1], kappa0=1.0, alpha0=1.0, amplitude=None), lat)


@pytest.fixture(scope="module")
def schedule():
    return build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=0.5,
                          sigma_scale=1e-8, a0=0.5, b0=2.0, kappa0=1.0,
                          alpha0=1.0, nu=1)


def context(lat, folded, schedule, eps, truncation_R=12.0):
    return BandContext(lat=lat, folded=folded, schedule=schedule, eps=eps,
                       truncation_R=truncation_R, s_cap=1, use_domains=False)


def nonresonant_grid(count=40, lo=0.05, step=0.01):
    return [lo + i * step for i in range(count)]


def test_criterion_01_schur_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / 2.0
        w = np.linalg.eigvalsh(H)
        E = float(w[-1]) + float(rng.uniform(0.5, 3.0))
        cut = int(rng.integers(1, n))
        perm = rng.permutation(n)
        split = (perm[:cut].tolist(), perm[cut:].tolist())
        out = schur_block_inverse(H, split, E)
        direct = np.linalg.inv(E * np.eye(n) - H)
        worst = max(worst, float(np.linalg.norm(out - direct)
                                 / np.linalg.norm(direct)))
    elapsed = time.perf_counter() - start
    report(1, "Schur identity on 100 random matrices", elapsed, 10.0,
           worst <= 1e-9, f"max rel err {worst:.2e}")


def test_criterion_02_fixed_point_eigenvalue(lat, folded):
    start = time.perf_counter()
    ball = lat.ball(12.0)
    worst_dense = 0.0
    worst_pert = 0.0
    ok = True
    for eps in (0.01, 0.05):
        for k in nonresonant_grid(40):
            matrix = assemble(ball, OperatorSpec(epsilon=eps, k=k), folded, lat)
            pair = solve_simple(matrix, lat.identity)
            w, _ = dense_spectrum(matrix)
            v0 = TWO_PI_SQ * k * k
            nearest = float(w[np.argmin(np.abs(w - v0))])
            scale = matrix.norm_bound()
            worst_dense = max(worst_dense, abs(pair.E - nearest) / scale)
            worst_pert = max(worst_pert, abs(pair.E - v0) / eps)
            ok = ok and abs(pair.E - v0) < eps
    elapsed = time.perf_counter() - start
    report(2, "simple-route eigenvalue vs dense oracle (80 solves)", elapsed,
           30.0, ok and worst_dense <= 1e-8,
           f"max |E-dense|/||H|| {worst_dense:.2e}, max |E-v|/eps {worst_pert:.2e}")


def test_criterion_03_pair_branches(lat, folded):
    start = time.perf_counter()
    k1 = -0.5
    n0 = lat.canonicalize([1])
    ball = lat.ball(12.0)
    dom = sorted(set(list(ball) + [lat.sub(n0, e) for e in ball]),
                 key=lambda e: e.key())
    matrix = assemble(dom, OperatorSpec(epsilon=0.05, k=k1), folded, lat)
    w, _ = dense_spectrum(matrix)
    v0 = TWO_PI_SQ * 0.25
    two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
    spread = two[1] - two[0]
    pair = [matrix.row_of(lat.identity), matrix.row_of(n0)]
    branches = solve_pair(PuncturedResolvent(matrix, pair), lat.identity, n0,
                          (float(two[0] - 0.1 * spread),
                           float(two[1] + 0.1 * spread)), tau0_required=0.0)
    err = max(abs(branches.E_minus - two[0]), abs(branches.E_plus - two[1]))
    ok = (err <= 1e-8 and branches.E_minus < branches.E_plus
          and branches.residual_minus <= 1e-9
          and branches.residual_plus <= 1e-9
          and abs(branches.beta_minus) <= 1.0 + 1e-9
          and abs(branches.beta_plus) <= 1.0 + 1e-9)
    elapsed = time.perf_counter() - start
    report(3, "pair branches at the first resonance", elapsed, 10.0, ok,
           f"root err {err:.2e}, residuals {branches.residual_minus:.1e}/"
           f"{branches.residual_plus:.1e}")


def test_criterion_04_gap_bound_and_floquet(lat, schedule):
    start = time.perf_counter()
    # c(n) = e^{-|n|} makes every audited gap first order in eps, so the
    # Floquet discriminant resolves all three at the 1e-5 tolerance
    from hillbands.potential import exp_decay

    rich = fold(exp_decay(5, nu=1, kappa0=1.0, alpha0=1.0), lat)
    ctx = context(lat, rich, schedule, eps=0.05)
    T = period(lat.omega)
    ok = True
    details = []
    for mvec in ([-1], [-2], [-3]):
        m = lat.canonicalize(mvec)
        gap = gap_edges(ctx, m)
        bound = 2 * 0.05 * math.exp(-abs(mvec[0]) / 2.0)
        ok = ok and gap.width <= bound
        lo, hi = floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, rich, T)
        err = max(abs(lo - gap.E_minus), abs(hi - gap.E_plus))
        ok = ok and err <= 1e-5
        details.append(f"|m|={abs(mvec[0])}: width {gap.width:.2e} <= "
                       f"{bound:.2e}, floquet err {err:.1e}")
    elapsed = time.perf_counter() - start
    report(4, "gap widths vs bound and Floquet oracle", elapsed, 60.0, ok,
           "; ".join(details))


def test_criterion_05_symmetry_and_monotonicity(lat, folded, schedule):
    start = time.perf_counter()
    ctx = context(lat, folded, schedule, eps=0.05)
    ks = nonresonant_grid(40)
    pos = band_curve(ctx, ks)
    neg = band_curve(ctx, [-k for k in ks])
    sym = symmetry_audit(pos, neg)
    mono = monotonicity_audit(ctx, pos)
    elapsed = time.perf_counter() - start
    report(5, "E(k) = E(-k) and monotonicity bounds", elapsed, 30.0,
           sym.passed and sym.checked == 40 and mono.passed,
           f"sym max diff {sym.details['max_difference']:.2e}, "
           f"{mono.checked} admissible pairs")


def test_criterion_06_localization(lat, folded, schedule):
    start = time.perf_counter()
    ok = True
    # strict form at eps = 0.01 outside radius 2, N and OPR routes
    ctx1 = context(lat, folded, schedule, eps=0.01)
    width = schedule.delta[1] ** 0.75
    for k in (0.11, 0.31, 0.5 - 0.25 * width):
        p = compute_point(ctx1, k)
        rec = decay_audit(ctx1, p, mode="strict")
        ok = ok and rec.passed
    # fitted rate >= kappa0/2 at eps = 0.05
    ctx2 = context(lat, folded, schedule, eps=0.05)
    rates = []
    for k in (0.11, 0.31):
        p = compute_point(ctx2, k)
        rec = decay_audit(ctx2, p, mode="practical")
        ok = ok and rec.passed
        rates.append(rec.details["fitted_rate"])
    elapsed = time.perf_counter() - start
    report(6, "eigenvector localization envelopes", elapsed, 10.0, ok,
           f"fitted rates {', '.join(f'{r:.2f}' for r in rates)} >= 0.5")


def test_criterion_07_in_gap_resolvent(lat, folded, schedule):
    start = time.perf_counter()
    ctx = context(lat, folded, schedule, eps=0.05, truncation_R=40.0)
    m = lat.canonicalize([-1])
    gap = gap_edges(ctx, m)
    E = 0.5 * (gap.E_minus + gap.E_plus)
    delta = gap.width / 4.0
    rec = gap_resolvent_audit(ctx, m, E, probe_count=6, delta=delta)
    cutoff = rec.details["far_cutoff"]
    elapsed = time.perf_counter() - start
    # B(40) gives pair distances up to 80 > cutoff: the far-field clause bites
    report(7, "in-gap resolvent decay on 6 probes", elapsed, 30.0,
           rec.passed and cutoff < 80.0,
           f"max entry {rec.details['max_entry']:.2f} <= "
           f"{rec.details['delta_inv']:.2f}, far cutoff {cutoff:.1f}")


def test_criterion_08_weight_combinatorics(lat):
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    ok = True
    worst_margin = math.inf
    for _ in range(20):
        spread = int(rng.integers(1, 40))
        reps = rng.choice(np.arange(-3 * spread, 3 * spread + 1), size=6,
                          replace=False)
        domain = sorted({lat.canonicalize([int(r)]) for r in reps},
                        key=lambda e: e.key())
        T = float(rng.uniform(8.0, 12.0))
        kappa0 = float(rng.uniform(0.5, 0.99))
        M = 4.0 * T / kappa0
        profile = WeightProfile(
            D={e: float(rng.uniform(1.0, 1.8 * M)) for e in domain},
            T=T, kappa0=kappa0, alpha0=1.0)
        rep = verify_weight_lemma(domain, profile, lat, k_max=5)
        ok = ok and rep.passed and rep.hop_sum_ok
        worst_margin = min(worst_margin, rep.worst_margin)
        small = WeightProfile(
            D={e: float(rng.uniform(1.0, min(M, 30.0) - 1.0)) for e in domain},
            T=T, kappa0=kappa0, alpha0=1.0)
        bound_rep = weight_sum_upper_bound_audit(domain, small, eps0=1e-120,
                                                 lat=lat, k_max=5)
        ok = ok and bound_rep.passed
    elapsed = time.perf_counter() - start
    report(8, "trajectory-weight lemma and sum bounds (20 profiles)", elapsed,
           60.0, ok, f"worst log-margin {worst_margin:.2f}")


def test_criterion_09_quadratic_dichotomy():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    count = 100000
    a1 = rng.uniform(-1.0, 2.0, count)
    gap = rng.uniform(1e-6, 2.0, count)
    a2 = a1 - gap
    b = rng.uniform(0.0, 1.0, count) * gap / 4.0
    t = rng.uniform(-0.999, 0.999, count)
    disc = gap * gap / 4.0 + b * b + t * gap * gap / 4.0
    side = rng.integers(0, 2, count) * 2 - 1
    u = (a1 + a2) / 2.0 + side * np.sqrt(disc)
    failures = int(np.count_nonzero(~dichotomy_core(a1, a2, b, u).classified))
    elapsed = time.perf_counter() - start
    report(9, "quadratic dichotomy on 1e5 random tuples", elapsed, 5.0,
           failures == 0, f"{failures} failures")


def test_criterion_10_schedule_recurrence():
    start = time.perf_counter()
    sched = build_schedule("practical", s_max=3, R1=math.e**4, beta=0.5,
                           eps0=1.0, a0=0.5, b0=2.0, kappa0=1.0, alpha0=1.0,
                           nu=1, sigma_scale=1.0)
    ok = True
    for u in range(2, 4):
        rhs = 0.5 * sched.log_R[u - 1] ** 2
        ok = ok and abs(sched.log_R[u] - rhs) <= 1e-12 * abs(rhs)
        ok = ok and abs(sched.delta[u] - math.exp(-sched.log_R[u] ** 2)) \
            <= 1e-12 * sched.delta[u]
    longer = build_schedule("practical", s_max=5, R1=math.e**4, beta=0.5,
                            eps0=1.0, a0=0.5, b0=2.0, kappa0=1.0, alpha0=1.0,
                            nu=1, sigma_scale=1.0)
    ok = ok and longer.feasible_s == 3
    try:
        longer.require_feasible(4)
        ok = False
    except ScheduleInfeasible as exc:
        ok = ok and exc.largest_feasible == 3
    elapsed = time.perf_counter() - start
    report(10, "schedule recurrence and infeasibility detection", elapsed,
           5.0, ok, "largest feasible s = 3 at beta=1/2, R1=e^4")


def test_criterion_11_symmetrization(lat):
    start = time.perf_counter()
    sched = build_schedule("practical", s_max=2, R1=9.0, beta=0.5, eps0=0.5,
                           sigma_scale=1e-9, a0=0.5, b0=2.0, kappa0=1.0,
                           alpha0=1.0, nu=1)
    ok = True
    # T-symmetrization at the first resonance
    n0 = lat.canonicalize([1])
    builder = DomainBuilder(-0.5, sched, lat)
    dom_t, ell_t = symmetrize_T(builder, 2, n0)
    ok = ok and all(n0.t - t in dom_t for t in dom_t)
    ok = ok and ell_t < 2**2
    # S-symmetrization in the small-k regime
    k_small = sched.delta[0] / 4.0
    builder_s = DomainBuilder(k_small, sched, lat)
    dom_s, ell_s = symmetrize_S(builder_s, 2)
    ok = ok and all(-t in dom_s for t in dom_s)
    ok = ok and ell_s < 2**2
    # nesting dichotomy on the constructed hierarchy
    builder_n = DomainBuilder(0.37, sched, lat)
    levels = builder_n.level_sets(2)
    sets = [(d, s) for s, per in levels.items() for d in per.values()]
    sets.append((builder_n.lambda0(2), 2))
    ok = ok and nesting_audit(sets).passed
    # cascading synthetic system stabilizes within the bound
    start_set = frozenset(range(-8, 9))
    s1 = frozenset(range(7, 11))
    s2 = frozenset(range(6, 9))
    _, ell = subtract_stabilize(start_set, [(s1, 1), (s2, 2)], ell_bound=2**2)
    ok = ok and ell == 2
    elapsed = time.perf_counter() - start
    report(11, "S/T symmetrization, nesting, stabilization", elapsed, 30.0,
           ok, f"ell_T={ell_t}, ell_S={ell_s}, cascade ell={ell}")


def test_criterion_12_duality_residual(lat, folded):
    start = time.perf_counter()
    T = period(lat.omega)
    eps = 0.05
    ball = lat.ball(12.0)
    worst = 0.0
    # non-resonant simple eigenvector
    m1 = assemble(ball, OperatorSpec(epsilon=eps, k=0.3), folded, lat)
    p1 = solve_simple(m1, lat.identity)
    worst = max(worst, bloch_residual(m1.domain, p1.phi, 0.3, p1.E, eps,
                                      folded, T))
    # pair-branch eigenvector at the first resonance momentum
    n0 = lat.canonicalize([1])
    dom = sorted(set(list(ball) + [lat.sub(n0, e) for e in ball]),
                 key=lambda e: e.key())
    m2 = assemble(dom, OperatorSpec(epsilon=eps, k=-0.5), folded, lat)
    w, _ = dense_spectrum(m2)
    v0 = TWO_PI_SQ * 0.25
    two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
    spread = two[1] - two[0]
    pair = [m2.row_of(lat.identity), m2.row_of(n0)]
    br = solve_pair(PuncturedResolvent(m2, pair), lat.identity, n0,
                    (float(two[0] - 0.1 * spread), float(two[1] + 0.1 * spread)),
                    tau0_required=0.0)
    worst = max(worst, bloch_residual(m2.domain, br.phi_plus, -0.5, br.E_plus,
                                      eps, folded, T))
    worst = max(worst, bloch_residual(m2.domain, br.phi_minus, -0.5,
                                      br.E_minus, eps, folded, T))
    # truncation-tail bound: couplings out of the domain times the boundary
    # amplitude (reported alongside the measured residual)
    boundary_amp = max(abs(p1.phi[m1.row_of(e)]) for e in m1.domain
                       if e.norm >= 11)
    coupling_sum = eps * sum(abs(v) for v in folded.entries.values())
    tail_bound = coupling_sum * boundary_amp
    elapsed = time.perf_counter() - start
    report(12, "Bloch duality residual over one period", elapsed, 20.0,
           worst <= 1e-6, f"max residual {worst:.2e}, "
           f"tail bound {tail_bound:.2e}")
