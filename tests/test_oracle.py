import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hillbands import oracle
from hillbands.errors import (IntegratorFailure, NoConvergence,
                              PreconditionFailed)
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.oracle import (bloch_residual, dense_spectrum,
                              floquet_discriminant, floquet_gap_edges,
                              floquet_scan, ivp_discriminant, period,
                              potential_callable, refine_root)
from hillbands.potential import cosine, exp_decay, fold, random_phase

from oracles import eval_potential


def test_dense_spectrum_diagonal():
    w, V = dense_spectrum(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(w, [1.0, 2.0, 3.0])


def test_dense_spectrum_two_by_two_closed_form():
    a, c = 1.0, 3.0
    b = 0.5 + 0.25j
    H = np.array([[a, b], [np.conj(b), c]])
    w, _ = dense_spectrum(H)
    mid = (a + c) / 2
    root = math.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
    assert np.allclose(w, [mid - root, mid + root])


def test_dense_spectrum_size_cap():
    with pytest.raises(PreconditionFailed):
        dense_spectrum(np.eye(4001))


@given(st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_dense_spectrum_scale_is_two_norm(n, seed, size):
    # the residual certificate's scale max(1, max|w|) is ||H||_2
    rng = np.random.default_rng(seed)
    A = size * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    H = (A + A.conj().T) / 2.0
    w, _ = dense_spectrum(H)
    assert np.max(np.abs(w)) == pytest.approx(np.linalg.norm(H, 2), rel=1e-12)


def test_dense_spectrum_rejects_tampered_eigenvector(monkeypatch):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    H = (A + A.conj().T) / 2.0
    real_eigh = np.linalg.eigh

    def tampered(M):
        w, V = real_eigh(M)
        V = V.copy()
        V[:, 3] = V[:, 2]
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", tampered)
    with pytest.raises(IntegratorFailure, match="residual"):
        dense_spectrum(H)


def test_period_examples():
    assert period(FrequencyVector.parse(["1/2", "1/3"])) == 6
    assert period(FrequencyVector.parse(["3/7"])) == 7
    assert period(FrequencyVector.parse(["2/4"])) == 2  # reduces to 1/2
    assert period(FrequencyVector.parse(["1"])) == 1


def test_floquet_free_equation(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    for E in (0.5, 2.0, 7.3):
        delta = floquet_discriminant(E, 0.0, cosine_folded, T)
        assert delta == pytest.approx(2.0 * math.cos(math.sqrt(E) * float(T)),
                                      abs=1e-9)


def test_floquet_band_edge_value(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    E = (math.pi / float(T)) ** 2
    assert floquet_discriminant(E, 0.0, cosine_folded, T) == pytest.approx(
        -2.0, abs=1e-9)


def test_floquet_scan_marks_bands(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    grid = np.linspace(0.5, 25.0, 120)
    data = floquet_scan(grid, 0.05, cosine_folded, T)
    assert data.bands  # at least one band interval found
    for lo, hi in data.bands:
        assert lo < hi


def test_discriminant_gap_band_membership(line_lattice, cosine_folded):
    # |Delta| > 2 strictly inside a certified gap, <= 2 on band interiors
    from hillbands.band import BandContext, gap_edges
    from hillbands.scales import build_schedule

    sched = build_schedule("practical", s_max=2, R1=12.0, beta=0.5, eps0=0.5,
                           sigma_scale=1e-8, a0=0.5, b0=2.0, kappa0=1.0,
                           alpha0=1.0, nu=1)
    ctx = BandContext(lat=line_lattice, folded=cosine_folded, schedule=sched,
                      eps=0.05, truncation_R=12.0, s_cap=1, use_domains=False)
    g = gap_edges(ctx, line_lattice.canonicalize([-1]))
    T = period(line_lattice.omega)
    center = 0.5 * (g.E_minus + g.E_plus)
    assert abs(floquet_discriminant(center, 0.05, cosine_folded, T)) > 2.0
    for E_band in (g.E_minus - 2.0, g.E_plus + 2.0):
        assert abs(floquet_discriminant(E_band, 0.05, cosine_folded, T)) <= 2.0


def test_bloch_residual_free_indicator(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    domain = line_lattice.ball(3)
    phi = np.zeros(len(domain), dtype=complex)
    idx = [i for i, e in enumerate(domain) if e.is_identity][0]
    phi[idx] = 1.0
    k = 0.3
    E = (2 * math.pi) ** 2 * k * k
    r = bloch_residual(domain, phi, k, E, 0.0, cosine_folded, T)
    assert r <= 1e-10


def test_bloch_residual_detects_wrong_energy(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    domain = line_lattice.ball(3)
    phi = np.zeros(len(domain), dtype=complex)
    idx = [i for i, e in enumerate(domain) if e.is_identity][0]
    phi[idx] = 1.0
    r = bloch_residual(domain, phi, 0.3, 1.0, 0.0, cosine_folded, T)
    assert r > 1.0  # residual |(E_true - E)| on the constant mode


def test_bloch_duality_complex_potential(line_lattice):
    # pins the matrix orientation: for complex coefficients only
    # H[row,col] = eps*c(row-col) keeps the Bloch map solving the ODE
    from hillbands.eigensolve import solve_simple
    from hillbands.operators import OperatorSpec, assemble
    from hillbands.potential import fold, random_phase

    folded = fold(random_phase(4, nu=1, kappa0=1.0, seed=12,
                               alpha0=1.0, amplitude_scale=1.0), line_lattice)
    T = period(line_lattice.omega)
    m = assemble(line_lattice.ball(10.0), OperatorSpec(epsilon=0.05, k=0.27),
                 folded, line_lattice)
    pair = solve_simple(m, line_lattice.identity)
    r = bloch_residual(m.domain, pair.phi, 0.27, pair.E, 0.05, folded, T)
    assert r <= 1e-9


def test_floquet_gap_edges_bracket_check(line_lattice, cosine_folded):
    # [20, 20.1] lies inside the band between the gaps near pi^2 and 4 pi^2:
    # neither bracket holds a root of |Delta| - 2
    T = period(line_lattice.omega)
    assert floquet_gap_edges(20.0, 20.1, 0.05, cosine_folded, T) == (None,
                                                                     None)


# --- the Magnus discriminant against the solve_ivp path it replaced ---

FLOQUET_OMEGAS = [("1",), ("3/7",), ("1", "3/7"), ("2/7", "1/2")]


def dop853_discriminant(E, eps, folded, T):
    """The replaced ivp_discriminant: Delta(E) by adaptive solve_ivp
    (DOP853, rtol = atol = 1e-12)."""
    V = potential_callable(folded)

    def rhs(x, y):
        v = eps * V(x)
        # y = (y1, y1', y2, y2')
        return [y[1], (v - E) * y[0], y[3], (v - E) * y[2]]

    sol = solve_ivp(rhs, (0.0, float(T)), [1.0, 0.0, 0.0, 1.0],
                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success, sol.message
    return float(sol.y[0, -1] + sol.y[3, -1])


def ivp_scan_bands(E_grid, deltas):
    """Band intervals of the replaced floquet_scan, from given Delta values."""
    bands, start = [], None
    for E, d in zip(E_grid, deltas):
        inside = abs(d) <= 2.0
        if inside and start is None:
            start = float(E)
        if not inside and start is not None:
            bands.append((start, float(E)))
            start = None
    if start is not None:
        bands.append((start, float(E_grid[-1])))
    return bands


def ivp_edge(bracket, eps, folded, T, xtol=1e-10):
    """The replaced floquet_gap_edges, one edge: brentq on the solve_ivp
    discriminant."""
    g = lambda E: abs(dop853_discriminant(E, eps, folded, T)) - 2.0
    return float(brentq(g, *bracket, xtol=xtol))


def loop_bloch_residual(domain, phi, k, E, eps, folded, T, samples=128):
    """The replaced bloch_residual: one Python iteration per sample."""
    freqs = np.array([float(e.xi) + k for e in domain])
    amps = np.asarray(phi, dtype=np.complex128)
    worst = 0.0
    Tf = float(T)
    for i in range(samples):
        x = Tf * i / samples
        phase = np.exp(2j * math.pi * freqs * x)
        y = np.sum(amps * phase)
        ypp = np.sum(amps * phase * (2j * math.pi * freqs) ** 2)
        v = eps * eval_potential(x, folded)
        worst = max(worst, abs(-ypp + (v - E) * y))
    return float(worst)


@st.composite
def floquet_cases(draw):
    lat = QuotientLattice(FrequencyVector.parse(
        list(draw(st.sampled_from(FLOQUET_OMEGAS)))))
    nu = lat.omega.nu
    kind = draw(st.sampled_from(["cosine", "random_phase", "exp_decay"]))
    if kind == "cosine":
        n0 = draw(st.sampled_from([[1], [2]] if nu == 1
                                  else [[1, 0], [0, 1], [1, 1]]))
        coeffs = cosine(n0, kappa0=1.0, alpha0=1.0, amplitude=None)
    elif kind == "random_phase":
        coeffs = random_phase(2, nu=nu, kappa0=1.0,
                              seed=draw(st.integers(0, 99)), alpha0=1.0,
                              amplitude_scale=1.0)
    else:
        coeffs = exp_decay(2, nu=nu, kappa0=1.0, alpha0=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    T = period(lat.omega)
    # sqrt(E) T = j pi is a gap (or, at eps = 0, a band edge);
    # sqrt(E) T = (j + 1/2) pi lies inside a band
    j_max = int(math.sqrt(60.0) * float(T) / math.pi)
    energies = sorted({(math.pi * (j + half) / float(T)) ** 2
                       for j, half in draw(st.lists(
                           st.tuples(st.integers(1, j_max),
                                     st.sampled_from([0.0, 0.25, 0.5])),
                           min_size=1, max_size=3))})
    eps = draw(st.sampled_from([0.0, 0.05]))
    return energies, eps, folded, T


@settings(max_examples=20)
@given(floquet_cases())
def test_magnus_discriminant_matches_solve_ivp(case):
    energies, eps, folded, T = case
    data = floquet_scan(energies, eps, folded, T)
    for E, delta in zip(energies, data.discriminant):
        reference = dop853_discriminant(E, eps, folded, T)
        assert abs(delta - reference) <= 1e-9 * max(1.0, abs(reference))
    assert 0.0 <= data.wronskian_drift <= 1e-9


@pytest.mark.parametrize("omega", FLOQUET_OMEGAS)
@pytest.mark.parametrize("E", [-0.5, 1.3, 60.0])
def test_collocation_matches_dop853(omega, E):
    # E = -0.5 lies below the spectrum: at omega = (1, 3/7) (T = 14) |Delta|
    # is about 2e4
    lat = QuotientLattice(FrequencyVector.parse(list(omega)))
    folded = fold(random_phase(2, nu=lat.omega.nu, kappa0=1.0, seed=1,
                               alpha0=1.0, amplitude_scale=1.0), lat,
                  enforce_bound=False)
    T = period(lat.omega)
    reference = dop853_discriminant(E, 0.05, folded, T)
    delta = ivp_discriminant(E, 0.05, folded, T)
    assert abs(delta - reference) <= 1e-9 * max(1.0, abs(reference))


def test_collocation_chunks_multiply_in_order(monkeypatch):
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    folded = fold(cosine([1, 0], kappa0=1.0,
                         alpha0=1.0, amplitude=None), lat, enforce_bound=False)
    T = period(lat.omega)
    whole = ivp_discriminant(3.0, 0.05, folded, T)
    monkeypatch.setattr(oracle, "COLLOCATION_CHUNK_STEPS", 7)
    chunked = ivp_discriminant(3.0, 0.05, folded, T)
    assert abs(chunked - whole) <= 1e-12 * max(1.0, abs(whole))


@settings(max_examples=20)
@given(st.sampled_from(FLOQUET_OMEGAS),
       st.lists(st.floats(0.05, 60.0), min_size=1, max_size=6))
def test_magnus_free_equation(omega, energies):
    lat = QuotientLattice(FrequencyVector.parse(list(omega)))
    folded = fold(cosine([1] * lat.omega.nu, kappa0=1.0, alpha0=1.0,
                         amplitude=None), lat,
                  enforce_bound=False)
    T = float(period(lat.omega))
    data = floquet_scan(energies, 0.0, folded, period(lat.omega))
    for E, delta in zip(energies, data.discriminant):
        exact = 2.0 * math.cos(math.sqrt(E) * T)
        assert abs(delta - exact) <= 1e-9 * max(1.0, abs(exact))


@pytest.mark.parametrize("grid", [np.linspace(0.5, 25.0, 120),
                                  np.linspace(0.5, 60.0, 90)])
def test_floquet_scan_bands_match_ivp_scan(line_lattice, cosine_folded, grid):
    T = period(line_lattice.omega)
    data = floquet_scan(grid, 0.05, cosine_folded, T)
    reference = [dop853_discriminant(float(E), 0.05, cosine_folded, T)
                 for E in grid]
    assert list(data.bands) == ivp_scan_bands(grid, reference)
    assert data.E_grid == tuple(float(E) for E in grid)
    assert all(abs(d - r) <= 1e-10 * max(1.0, abs(r))
               for d, r in zip(data.discriminant, reference))
    assert all(type(d) is float for d in data.discriminant)
    assert 0.0 <= data.wronskian_drift <= 1e-9


def _gap(line_lattice, cosine_folded, toy_schedule, m):
    from hillbands.band import gap_edges

    from conftest import make_context

    ctx = make_context(line_lattice, cosine_folded, toy_schedule)
    return gap_edges(ctx, line_lattice.canonicalize(m))


def test_floquet_gap_edges_match_ivp_path(line_lattice, cosine_folded,
                                          toy_schedule):
    # solve_ivp's edge in a bracket of 2e-6 around each Magnus edge: the
    # m = -1 gap is 0.037 wide, so |Delta| - 2 changes sign across it
    gap = _gap(line_lattice, cosine_folded, toy_schedule, [-1])
    T = period(line_lattice.omega)
    fast = floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded, T)
    slow = [ivp_edge((E - 1e-6, E + 1e-6), 0.05, cosine_folded, T)
            for E in fast]
    assert fast == pytest.approx(slow, abs=1e-9)


def test_unconverged_floquet_edge_raises_no_convergence(
        line_lattice, cosine_folded, toy_schedule, monkeypatch):
    gap = _gap(line_lattice, cosine_folded, toy_schedule, [-1])
    monkeypatch.setattr(oracle, "BRENT_MAXITER", 2)
    with pytest.raises(NoConvergence, match="after 2 iterations"):
        floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded,
                          period(line_lattice.omega))


def test_floquet_gap_edges_integrate_each_energy_once(
        line_lattice, cosine_folded, toy_schedule, monkeypatch):
    # the sign checks, Brent's first steps and the end the two brackets
    # share all read one value per energy
    gap = _gap(line_lattice, cosine_folded, toy_schedule, [-1])
    T = period(line_lattice.omega)
    want = floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded, T)
    energies = []
    real = oracle.floquet_discriminant

    def counted(E, *args):
        energies.append(E)
        return real(E, *args)

    monkeypatch.setattr(oracle, "floquet_discriminant", counted)
    assert floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded,
                             T) == want
    assert len(energies) == len(set(energies)) > 3


def test_nan_discriminant_is_no_convergence(line_lattice, cosine_folded,
                                            toy_schedule, monkeypatch):
    gap = _gap(line_lattice, cosine_folded, toy_schedule, [-1])
    monkeypatch.setattr(oracle, "floquet_discriminant",
                        lambda E, *args: math.nan)
    with pytest.raises(NoConvergence, match="NaN|nan"):
        floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded,
                          period(line_lattice.omega))


def test_floquet_gap_edges_on_second_order_gap(line_lattice, cosine_folded,
                                               toy_schedule):
    # The m = -2 gap is 1.7e-5 wide, so |Delta| - 2 is flat at its edges and
    # an error in Delta moves an edge by far more. The Magnus edges stay within
    # 1e-8 of the dual-matrix edges; the solve_ivp ones are off by about 1e-6.
    gap = _gap(line_lattice, cosine_folded, toy_schedule, [-2])
    T = period(line_lattice.omega)
    fast = floquet_gap_edges(gap.E_minus, gap.E_plus, 0.05, cosine_folded, T)
    assert fast == pytest.approx((gap.E_minus, gap.E_plus), abs=1e-8)


def test_floquet_scan_crosscheck_is_live(line_lattice, cosine_folded,
                                         monkeypatch):
    T = period(line_lattice.omega)
    grid = np.linspace(0.5, 25.0, 30)
    floquet_scan(grid, 0.05, cosine_folded, T)
    real = oracle.ivp_discriminant
    monkeypatch.setattr(oracle, "ivp_discriminant",
                        lambda *a, **kw: real(*a, **kw) + 1e-6)
    with pytest.raises(IntegratorFailure, match="collocation"):
        floquet_scan(grid, 0.05, cosine_folded, T)


def test_magnus_step_cap_is_live(line_lattice, cosine_folded, monkeypatch):
    T = period(line_lattice.omega)
    # the first step count, 8 T sqrt(1e12), is already past the cap
    with pytest.raises(IntegratorFailure, match="did not settle"):
        floquet_discriminant(1e12, 0.05, cosine_folded, T)
    # a tolerance no doubling meets runs into the cap
    monkeypatch.setattr(oracle, "STEP_DOUBLING_TOL", 0.0)
    monkeypatch.setattr(oracle, "MAX_STEPS", 4096)
    with pytest.raises(IntegratorFailure, match="did not settle"):
        floquet_scan([1.0, 20.0], 0.05, cosine_folded, T)
    # the collocation has a cap of its own: 8 doublings of its first count,
    # ceil(2 T sqrt(20)) = 9 steps, whatever MAX_STEPS; each run fits one
    # chunk, so V is called once per run, on (steps, 4) nodes
    monkeypatch.setattr(oracle, "MAX_STEPS", 16)
    steps = []
    real = oracle.potential_callable

    def counted(folded):
        V = real(folded)

        def traced(x):
            steps.append(len(x))
            return V(x)
        return traced

    monkeypatch.setattr(oracle, "potential_callable", counted)
    with pytest.raises(IntegratorFailure,
                       match="collocation step doubling .* within 2304 steps"):
        ivp_discriminant(20.0, 0.05, cosine_folded, T)
    assert steps == [9 << i for i in range(9)]


def test_wronskian_check_scales_with_the_monodromy(monkeypatch):
    # T = 14 below the spectrum: |Delta| reaches 4e8, and forming det M
    # loses about 1e-16 |M|^2, far above an absolute 1e-9
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    folded = fold(cosine([1, 0], kappa0=1.0,
                         alpha0=1.0, amplitude=None), lat, enforce_bound=False)
    T = period(lat.omega)
    energies = [-2.0, -0.5]
    delta, drift = oracle._discriminants(energies, 0.05, folded, T)
    assert drift[0] > 1.0
    for E, d in zip(energies, delta):
        reference = ivp_discriminant(E, 0.05, folded, T)
        assert abs(reference) > 1e4
        assert abs(d - reference) <= 1e-8 * abs(reference)
    # a drift beyond the scaled bound still raises, on both paths
    monkeypatch.setattr(oracle, "WRONSKIAN_TOL", 1e-30)
    with pytest.raises(IntegratorFailure, match="Wronskian"):
        oracle._discriminants(energies, 0.05, folded, T)
    with pytest.raises(IntegratorFailure, match="Wronskian"):
        ivp_discriminant(-0.5, 0.05, folded, T)

@pytest.mark.parametrize("E", [math.nan, math.inf])
def test_floquet_rejects_nonfinite_energy(line_lattice, cosine_folded, E):
    T = period(line_lattice.omega)
    with pytest.raises(PreconditionFailed, match="finite"):
        floquet_discriminant(E, 0.05, cosine_folded, T)


@settings(max_examples=30)
@given(st.sampled_from([("1",), ("2/5", "3/7")]), st.integers(0, 2**32 - 1),
       st.floats(-0.5, 0.5), st.floats(-5.0, 60.0),
       st.sampled_from([0.0, 0.05]))
def test_bloch_residual_matches_loop(omega, seed, k, E, eps):
    lat = QuotientLattice(FrequencyVector.parse(list(omega)))
    folded = fold(random_phase(2, nu=lat.omega.nu, kappa0=1.0, seed=seed % 97,
                               alpha0=1.0, amplitude_scale=1.0),
                  lat, enforce_bound=False)
    domain = lat.ball(3)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(len(domain)) + 1j * rng.standard_normal(len(domain))
    T = period(lat.omega)
    fast = bloch_residual(domain, phi, k, E, eps, folded, T)
    slow = loop_bloch_residual(domain, phi, k, E, eps, folded, T)
    # every term of the residual is bounded by this, so both sums carry
    # rounding errors far below 1e-12 of it
    vmax = sum(abs(c) for c in folded.entries.values())
    bound = sum(abs(p) * ((2 * math.pi * (float(e.xi) + k)) ** 2 + abs(E)
                          + abs(eps) * vmax)
                for p, e in zip(phi, domain))
    assert abs(fast - slow) <= 1e-12 * bound


# --- refine_root against scipy's public brentq ---

@st.composite
def brent_cases(draw):
    """(f, a, b, xtol): a steep exponential, a cubic or a flat tanh, scaled
    by 1 or by 1e-250 (whose differences underflow), on a bracket around
    its root r."""
    r = draw(st.floats(-0.9, 0.9))
    kind = draw(st.sampled_from(["exp", "cubic", "tanh"]))
    if kind == "exp":
        slope = draw(st.floats(1.0, 60.0))
        g = lambda x: math.expm1(slope * (x - r))
    elif kind == "cubic":
        c = draw(st.floats(-3.0, 3.0))
        g = lambda x: (x - r) * ((x - c) ** 2 + 0.1)
    else:
        steepness = draw(st.floats(0.01, 1e4))
        g = lambda x: math.tanh(steepness * (x - r))
    scale = draw(st.sampled_from([1.0, -1.0, 1e-250]))
    a, b = draw(st.floats(-1.0, r)), draw(st.floats(r, 1.0))
    if draw(st.booleans()):
        a, b = b, a
    return (lambda x: scale * g(x)), a, b, draw(
        st.sampled_from([1e-13, 1e-12, 1e-10]))


@settings(max_examples=300)
@given(brent_cases())
def test_refine_root_is_scipy_brentq_bit_for_bit(case):
    f, a, b, xtol = case
    try:
        x, result = brentq(f, a, b, xtol=xtol, full_output=True, disp=False)
    except ValueError:
        with pytest.raises(NoConvergence):
            refine_root(f, a, b, xtol)
        return
    if not result.converged:
        with pytest.raises(NoConvergence):
            refine_root(f, a, b, xtol)
        return
    got = refine_root(f, a, b, xtol)
    assert got.hex() == x.hex()
    if f(a) == 0.0 or f(b) == 0.0:
        # a root at an end is that end
        assert got == (a if f(a) == 0.0 else b)


def test_refine_root_exhausts_its_iterations_as_brentq_does():
    # a step function on [-1e300, 1e300] leaves Brent's method bisecting
    # down to 1e-13 for far more than 100 steps
    f = lambda x: 1.0 if x > 0.3 else -1.0
    x, result = brentq(f, -1e300, 1e300, xtol=1e-13, full_output=True,
                       disp=False)
    assert not result.converged
    with pytest.raises(NoConvergence) as exc:
        refine_root(f, -1e300, 1e300, 1e-13)
    assert exc.value.iterations == 100
    assert exc.value.last_residual == abs(f(x))


def test_refine_root_rejects_nan_and_an_unsigned_bracket():
    for f in (lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5,
              lambda x: x * x + 1.0):
        with pytest.raises(NoConvergence) as exc:
            refine_root(f, -1.0, 2.0, 1e-12)
        assert exc.value.iterations == 0
        assert math.isnan(exc.value.last_residual)
    # an exact zero at an end is the root, with no iteration
    assert refine_root(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    assert refine_root(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0
