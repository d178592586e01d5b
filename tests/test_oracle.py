import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hillbands.errors import IntegratorFailure, PreconditionFailed
from hillbands.lattice import FrequencyVector
from hillbands.oracle import (bloch_residual, dense_spectrum,
                              floquet_discriminant, floquet_gap_edges,
                              floquet_scan, period)
from hillbands.potential import cosine, fold


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
                           sigma_scale=1e-8, truncate=True)
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

    folded = fold(random_phase(4, nu=1, kappa0=1.0, seed=12), line_lattice)
    T = period(line_lattice.omega)
    m = assemble(line_lattice.ball(10.0), OperatorSpec(epsilon=0.05, k=0.27),
                 folded, line_lattice)
    pair = solve_simple(m, line_lattice.identity)
    r = bloch_residual(m.domain, pair.phi, 0.27, pair.E, 0.05, folded, T)
    assert r <= 1e-9


def test_floquet_gap_edges_bracket_check(line_lattice, cosine_folded):
    T = period(line_lattice.omega)
    with pytest.raises(PreconditionFailed):
        floquet_gap_edges(9.87, (9.0, 9.1), (10.9, 11.0), 0.05,
                          cosine_folded, T)
