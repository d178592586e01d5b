import dataclasses
import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hillbands.eigensolve import (ROOT_TOL, CffNode, PuncturedResolvent,
                                  _eigh_chains, _stevd, _sign_change_roots,
                                  cff_branch_solve, cff_build,
                                  dichotomy_core, leaf, refine_root,
                                  solve_pair, solve_simple)
from hillbands.errors import (AdmissibilityFailed, HypothesisFailed,
                              NoConvergence, OrderingFailed,
                              PreconditionFailed,
                              RootCountMismatch, SingularBlock)
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.operators import TWO_PI_SQ, OperatorSpec, assemble
from hillbands.oracle import dense_spectrum
from hillbands.potential import cosine, fold, random_phase

from oracles import dense_q_g, translated_domain, whole_dstevd

EPS = float(np.finfo(float).eps)

# --- the punctured resolvent: t-order phases and Householder reductions ---

@functools.lru_cache(maxsize=None)
def _lattice(*omega):
    return QuotientLattice(FrequencyVector.parse(list(omega)))


@st.composite
def tridiagonal_cases(draw):
    """nu = 1 data with folded support radius 1: cosine, or complex
    random_phase, on ball, translated and ball+mirror domains."""
    lat = _lattice(draw(st.sampled_from(["1", "2/3"])))
    if draw(st.booleans()):
        coeffs = cosine([1], kappa0=draw(st.sampled_from([0.3, 1.0])),
                        alpha0=1.0, amplitude=None)
    else:
        coeffs = random_phase(1, nu=1, kappa0=0.5,
                              seed=draw(st.integers(0, 99)), alpha0=1.0,
                              amplitude_scale=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    ball = lat.ball(draw(st.integers(1, 8)))
    shape = draw(st.sampled_from(["ball", "translate", "mirror"]))
    shift = lat.canonicalize([draw(st.integers(-6, 6))])
    if shape == "translate":
        domain = translated_domain(ball, shift, lat)
    elif shape == "mirror":
        domain = list(ball) + [lat.sub(shift, e) for e in ball]
    else:
        domain = ball
    spec = OperatorSpec(epsilon=draw(st.sampled_from([0.05, 0.3, 2.0])),
                        k=draw(st.floats(-1.9, 1.9)))
    matrix = assemble(domain, spec, folded, lat)
    by_t = sorted(range(matrix.size), key=lambda i: matrix.domain[i].t)
    ends = [by_t[0], by_t[-1]]
    pick = st.sampled_from(range(matrix.size))
    kind = draw(st.sampled_from([
        "one", "first", "last", "ends", "adjacent", "two"]))
    if kind == "one":
        principal = [draw(pick)]
    elif kind in ("first", "last"):
        principal = [ends[kind == "last"]]
    elif kind == "ends":
        principal = ends
    elif kind == "adjacent":
        pos = draw(st.integers(0, matrix.size - 2))
        principal = [by_t[pos], by_t[pos + 1]]
    else:
        principal = draw(st.lists(pick, min_size=2, max_size=2, unique=True))
    assume(len(set(principal)) < matrix.size)
    return matrix, principal, draw(st.floats(0.0, 1.0))


@given(tridiagonal_cases())
def test_tridiagonal_resolvent_matches_dense_q_g(case):
    matrix, principal, where = case
    assert matrix.bandwidth <= 1
    res = PuncturedResolvent(matrix, principal)
    H = matrix.values
    others = res.others
    w = np.linalg.eigvalsh(H[np.ix_(others, others)])
    scale = max(1.0, float(np.max(np.abs(w))))
    E = float(w[0] - 1.0 + where * (w[-1] - w[0] + 2.0))
    assume(np.min(np.abs(E - w)) > 1e-3 * scale)
    # the same decomposition, up to eigenvector phases, as the dense path
    assert np.allclose(res.w, w, rtol=0, atol=1e-12 * scale)
    Q, G, F = dense_q_g(H, principal, E)
    for p in res.principal:
        assert res.Q(p, E) == pytest.approx(Q[p], rel=1e-10)
        assert np.linalg.norm(res.tail(E, res.proj[p]) - F[p]) \
            <= 1e-10 * np.linalg.norm(F[p])
    if len(res.principal) == 2:
        p, q = res.principal
        assert res.G(p, q, E) == pytest.approx(G[(p, q)], rel=1e-10)


def test_tridiagonal_and_dense_resolvent_agree(line_lattice):
    # complex tridiagonal data, with a domain gap that zeroes a subdiagonal
    folded = fold(random_phase(1, nu=1, kappa0=0.5, seed=7,
                               alpha0=1.0, amplitude_scale=1.0), line_lattice,
                  enforce_bound=False)
    domain = [line_lattice.canonicalize([v])
              for v in (-5, -4, -3, -1, 0, 1, 2, 6, 7)]
    tri = assemble(domain, OperatorSpec(epsilon=0.3, k=0.21), folded,
                   line_lattice)
    assert tri.bandwidth == 1 and np.any(tri.values.imag != 0)
    dense = dataclasses.replace(tri, bandwidth=tri.size)
    i0 = tri.row_of(line_lattice.identity)
    a, b = PuncturedResolvent(tri, [i0, 2]), PuncturedResolvent(dense, [i0, 2])
    assert a.others == b.others
    assert np.allclose(a.w, b.w, rtol=1e-13)
    # the tails of the coupling columns and of random vectors agree: both
    # paths apply the same resolvent, whatever the phases of their bases
    rng = np.random.default_rng(7)
    n = len(a.others)
    vectors = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    for E in (0.0, 3.3, 50.0):
        assert a.Q(i0, E) == pytest.approx(b.Q(i0, E), rel=1e-12)
        assert a.G(i0, 2, E) == pytest.approx(b.G(i0, 2, E), rel=1e-12)
        pairs = [(a.proj[p], b.proj[p]) for p in (i0, 2)]
        pairs += [(a.project(x), b.project(x)) for x in vectors]
        for xa, xb in pairs:
            ta, tb = a.tail(E, xa), b.tail(E, xb)
            assert np.linalg.norm(ta - tb) <= 1e-12 * np.linalg.norm(tb)


@st.composite
def householder_cases(draw):
    """nu = 2 complex random_phase data on the first points of a ball, with
    one or two principals and punctured blocks of 1, 2, 3 or 50 points; the
    bandwidth is set to the matrix size so that even a tiny block takes the
    zhetrd path."""
    lat = _lattice("1", "3/7")
    coeffs = random_phase(2, nu=2, kappa0=0.5, seed=draw(st.integers(0, 99)),
                          amplitude_scale=0.5, alpha0=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    count = draw(st.integers(1, 2))
    domain = list(lat.ball(4))[:draw(st.sampled_from([1, 2, 3, 50])) + count]
    spec = OperatorSpec(epsilon=draw(st.sampled_from([0.05, 0.3, 2.0])),
                        k=draw(st.floats(-0.45, 0.45)))
    matrix = assemble(domain, spec, folded, lat)
    matrix = dataclasses.replace(matrix, bandwidth=matrix.size)
    principal = draw(st.lists(st.sampled_from(range(matrix.size)),
                              min_size=count, max_size=count, unique=True))
    return matrix, principal, draw(st.floats(0.0, 1.0))


@given(householder_cases())
def test_householder_resolvent_matches_dense_q_g(case):
    matrix, principal, where = case
    res = PuncturedResolvent(matrix, principal)
    H = matrix.values
    others = res.others
    w = np.linalg.eigvalsh(H[np.ix_(others, others)])
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs(res.w - w)) <= 1e-13 * scale
    E = float(w[0] - 1.0 + where * (w[-1] - w[0] + 2.0))
    assume(np.min(np.abs(E - w)) > 1e-3 * scale)
    Q, G, F = dense_q_g(H, principal, E)
    for p in res.principal:
        assert res.Q(p, E) == pytest.approx(Q[p], rel=1e-10)
        assert np.linalg.norm(res.tail(E, res.proj[p]) - F[p]) \
            <= 1e-10 * np.linalg.norm(F[p])
    if len(res.principal) == 2:
        p, q = res.principal
        assert res.G(p, q, E) == pytest.approx(G[(p, q)], rel=1e-10)
        assert res.G(q, p, E) == pytest.approx(G[(q, p)], rel=1e-10)


def _scipy_stevd(d, e):
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(d, e, lapack_driver="stevd")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tridiagonal_eigensolve_is_scipy_stevd_bit_for_bit(data):
    # the path it replaces: scipy.linalg.eigh_tridiagonal, whose "auto"
    # driver is stevd on scipy 1.17
    n = data.draw(st.integers(1, 40), label="n")
    finite = st.floats(-1e3, 1e3)
    d = data.draw(arrays(np.float64, n, elements=finite), label="d")
    e = data.draw(arrays(np.float64, n - 1, elements=finite), label="e")
    for got, want in zip(_stevd(d, e), _scipy_stevd(d, e)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    i = data.draw(st.integers(0, 2 * n - 2), label="index into d then e")
    d_bad, e_bad = d.copy(), e.copy()
    if i < n:
        d_bad[i] = bad
    else:
        e_bad[i - n] = bad
    for solve in (_eigh_chains, whole_dstevd, _scipy_stevd):
        with pytest.raises(ValueError):
            solve(d_bad, e_bad)


# entries of d and e: small integers give ties, the floats stay clear of the
# range where dstevd rescales a whole chain (norm below 1e-146)
_ENTRIES = st.one_of(st.integers(-4, 4).map(float),
                     st.floats(-1e3, 1e3).filter(
                         lambda x: x == 0 or abs(x) > 1e-100))


@st.composite
def split_tridiagonals(draw):
    """d and e with exact zeros in e: anywhere, at both ends, and next to
    each other, which leaves 1x1 chains; chains longer than dstedc's
    25-row switch to divide and conquer occur too."""
    n = draw(st.integers(2, 80), label="n")
    d = draw(arrays(np.float64, n, elements=_ENTRIES), label="d")
    e = draw(arrays(np.float64, n - 1, elements=_ENTRIES), label="e")
    zeros = draw(st.lists(st.integers(0, n - 2), min_size=1), label="zeros")
    if draw(st.booleans(), label="both ends and a pair"):
        pos = draw(st.integers(0, n - 2))
        zeros += [0, n - 2, pos, min(pos + 1, n - 2)]
    e[zeros] = 0.0
    return d, e


def _columns_by_value(w, Z):
    """For each distinct w, the columns of Z that belong to it, sorted
    lexicographically: Z up to the order of equal eigenvalues."""
    out = []
    for value in np.unique(w):
        block = Z[:, w == value]
        out.append(block[:, np.lexsort(block[::-1])])
    return out


@given(split_tridiagonals())
def test_chains_reproduce_the_whole_dstevd_call(case):
    d, e = case
    w_whole, Z_whole = whole_dstevd(d, e)
    w, order, chains = _eigh_chains(d, e)
    assert w.tobytes() == w_whole.tobytes()
    Z = np.zeros((len(d), len(d)))
    for start, block in chains:
        Z[start:start + len(block), start:start + len(block)] = block
    assert [start for start, _ in chains] == \
        [0, *(np.flatnonzero(e == 0) + 1)]
    Z = Z[:, order]
    # bit for bit (array_equal: a zero's sign aside); dstevd's own selection
    # sort may order equal eigenvalues of two chains otherwise
    assert len(np.unique(w)) < len(w) or np.array_equal(Z, Z_whole)
    for got, want in zip(_columns_by_value(w, Z),
                         _columns_by_value(w_whole, Z_whole)):
        assert np.array_equal(got, want)


def test_one_chain_takes_the_whole_call_unsorted():
    rng = np.random.default_rng(5)
    d, e = rng.normal(size=30), rng.normal(size=29)
    w, order, chains = _eigh_chains(d, e)
    # dstevd returns w ascending, so the stable sort leaves one chain as is
    assert np.array_equal(order, np.arange(30)) and len(chains) == 1
    w_whole, Z_whole = whole_dstevd(d, e)
    assert w.tobytes() == w_whole.tobytes()
    assert chains[0][1].tobytes() == Z_whole.tobytes()
    with pytest.raises(ValueError):
        _eigh_chains(np.array([1.0, math.nan]), np.array([0.0]))


@st.composite
def chain_cases(draw):
    """nu = 1 matrices tridiagonal in t on a ball with holes in t, punctured
    at one or two points inside a chain: the punctured block splits into
    chains at the holes and at the principals."""
    lat = _lattice(draw(st.sampled_from(["1", "2/3"])))
    if draw(st.booleans()):
        coeffs = cosine([1], kappa0=draw(st.sampled_from([0.3, 1.0])),
                        alpha0=1.0, amplitude=None)
    else:
        coeffs = random_phase(1, nu=1, kappa0=0.5,
                              seed=draw(st.integers(0, 99)), alpha0=1.0,
                              amplitude_scale=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    ball = lat.ball(draw(st.integers(3, 12)))
    keep = draw(st.lists(st.booleans(), min_size=len(ball),
                         max_size=len(ball)))
    domain = [e for e, k in zip(ball, keep) if k]
    assume(len(domain) >= 4)
    spec = OperatorSpec(epsilon=draw(st.sampled_from([0.05, 0.3, 2.0])),
                        k=draw(st.floats(-1.9, 1.9)))
    matrix = assemble(domain, spec, folded, lat)
    by_t = sorted(range(matrix.size), key=lambda i: matrix.domain[i].t)
    inner = st.sampled_from(by_t[1:-1])
    principal = draw(st.lists(inner, min_size=1, max_size=2, unique=True))
    return matrix, principal, draw(st.floats(0.0, 1.0))


@given(chain_cases())
def test_chained_resolvent_matches_dense_solves(case):
    matrix, principal, where = case
    assert matrix.bandwidth <= 1
    res = PuncturedResolvent(matrix, principal)
    H = matrix.values
    others = res.others
    block = H[np.ix_(others, others)]
    # one chain per run of t-neighbours that a nonzero entry couples
    by_t = sorted(range(len(others)), key=lambda i: matrix.domain[
        others[i]].t)
    cuts = sum(block[i, j] == 0 for i, j in zip(by_t[1:], by_t[:-1]))
    assert len(res._chains) == 1 + cuts
    w = np.linalg.eigvalsh(block)
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.allclose(res.w, w, rtol=0, atol=1e-12 * scale)
    E = float(w[0] - 1.0 + where * (w[-1] - w[0] + 2.0))
    assume(np.min(np.abs(E - w)) > 1e-3 * scale)
    Q, G, F = dense_q_g(H, principal, E)
    for p in res.principal:
        assert res.Q(p, E) == pytest.approx(Q[p], rel=1e-10)
        assert np.linalg.norm(res.tail(E, res.proj[p]) - F[p]) \
            <= 1e-10 * np.linalg.norm(F[p])
    if len(res.principal) == 2:
        p, q = res.principal
        assert res.G(p, q, E) == pytest.approx(G[(p, q)], rel=1e-10)
        lam = np.linalg.eigvalsh(H)
        tol = 1e-14 * max(1.0, matrix.norm_bound())
        x = np.concatenate(([E], res.w, lam))
        count = res.count_below(x)
        assert np.all(np.searchsorted(lam, x - tol) <= count)
        assert np.all(count <= np.searchsorted(lam, x + tol))


def test_count_below_on_an_eigenvalue_of_a_decoupled_principal():
    # t = -1 couples to no other point and t = 2 only to t = 3: at x = the
    # eigenvalue near v(2), G = 0 and det S = 0 exactly, and one eigenvalue
    # of H, v(-1), lies below x
    lat = _lattice("1")
    folded = fold(random_phase(1, nu=1, kappa0=0.5, seed=0, alpha0=1.0,
                               amplitude_scale=1.0), lat,
                  enforce_bound=False)
    matrix = assemble([lat.canonicalize([v]) for v in (-1, 2, -3, 3)],
                      OperatorSpec(epsilon=0.05, k=0.0), folded, lat)
    lam = np.linalg.eigvalsh(matrix.values)
    for pair in ((2, -1), (-1, 2)):
        res = PuncturedResolvent(matrix, [matrix.row_of(lat.canonicalize([v]))
                                          for v in pair])
        assert list(res.count_below(lam[:2])) == [0, 1]


@given(st.one_of(tridiagonal_cases(), householder_cases()))
def test_array_energies_match_scalar_calls_bit_for_bit(case):
    matrix, principal, _ = case
    res = PuncturedResolvent(matrix, principal)
    grid = np.linspace(res.w[0] - 1.0, res.w[-1] + 1.0, 33)
    assume(np.min(np.abs(grid[:, None] - res.w)) > 1e-9)
    p = res.principal[0]
    q = res.principal[-1]
    Q, G = res.Q(p, grid), res.G(p, q, grid)
    assert Q.shape == G.shape == grid.shape
    for i, E in enumerate(grid):
        assert Q[i] == res.Q(p, float(E))
        assert G[i] == res.G(p, q, float(E))
    if len(res.principal) == 2:
        chi = res.chi(grid)
        assert [float(x) for x in chi] == [res.chi(float(E)) for E in grid]


def test_resolvent_at_punctured_eigenvalue_raises_singular_block(
        line_lattice, cosine_folded):
    m = assemble(line_lattice.ball(5), OperatorSpec(epsilon=0.05, k=0.3),
                 cosine_folded, line_lattice)
    res = PuncturedResolvent(m, [0])
    with pytest.raises(SingularBlock):
        res.Q(0, res.w[0])


def test_resolvent_products_never_copy_z_to_complex(line_lattice,
                                                   cosine_folded):
    # project and tail multiply the real eigenvectors Z of dstevd by the real
    # and imaginary parts of a complex vector: no n x n array is allocated,
    # where a complex copy of Z alone would take 16 n^2 bytes
    m = assemble(line_lattice.ball(400), OperatorSpec(epsilon=0.05, k=0.21),
                 cosine_folded, line_lattice)
    res = PuncturedResolvent(m, [m.row_of(line_lattice.identity)])
    n = len(res.others)
    assert n == 800 and m.bandwidth == 1
    rng = np.random.default_rng(3)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    E = 0.5 * (res.w[0] + res.w[1])
    tracemalloc.start()
    try:
        y = res.tail(E, res.project(x))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n
    block = m.values[np.ix_(res.others, res.others)]
    ref = np.linalg.solve(E * np.eye(n) - block, x)
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


def test_resolvent_of_a_punctured_ball_keeps_only_its_chain_blocks(
        line_lattice, cosine_folded):
    # punctured at 0, the 1001-point cosine ball is two chains of 500: two
    # dstevd calls of 500 rows, whose Z blocks and workspace take 6 n^2
    # bytes at the peak, where one call on all n = 1000 rows takes 16 n^2
    m = assemble(line_lattice.ball(500), OperatorSpec(epsilon=0.05, k=0.11),
                 cosine_folded, line_lattice)
    i0 = m.row_of(line_lattice.identity)
    gc.collect()
    tracemalloc.start()
    try:
        res = PuncturedResolvent(m, [i0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = len(res.others)
    assert n == 1000 and peak < 8 * n * n
    assert [len(Z) for _, Z in res._chains] == [500, 500]
    E = solve_simple(m, line_lattice.identity).E
    assert res.Q(i0, E) == pytest.approx(
        dense_q_g(m.values, [i0], E)[0][i0], rel=1e-10)


def test_simple_route_on_a_big_ball_never_builds_the_dense_view(
        line_lattice, cosine_folded):
    # strict mode's matrix: the cosine ball B(500), n = 1001. Assembly stores
    # the diagonal and two offsets, and the t-order resolvent and the
    # residual read them: the dense view alone would take 16 n^2 bytes. The
    # lattice caches its balls, so the ball is built outside the trace
    line_lattice.ball(500)
    gc.collect()
    tracemalloc.start()
    try:
        m = assemble(line_lattice.ball(500),
                     OperatorSpec(epsilon=0.05, k=0.11), cosine_folded,
                     line_lattice)
        pair = solve_simple(m, line_lattice.identity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = m.size
    assert n == 1001 and peak < 16 * n * n
    assert "values" not in vars(m)
    dense = np.max(np.abs(m.values @ pair.phi - pair.E * pair.phi))
    assert pair.residual == pytest.approx(dense, abs=1e-15 * m.norm_bound())


def test_solve_simple_zero_coupling(line_lattice, cosine_folded):
    m = assemble(line_lattice.ball(5), OperatorSpec(epsilon=0.0, k=0.3),
                 cosine_folded, line_lattice)
    pair = solve_simple(m, line_lattice.identity)
    assert pair.E == pytest.approx(TWO_PI_SQ * 0.09)
    phi = np.zeros(m.size)
    phi[m.row_of(line_lattice.identity)] = 1.0
    assert np.allclose(pair.phi, phi)


def test_solve_simple_matches_dense(line_lattice, cosine_folded):
    m = assemble(line_lattice.ball(10), OperatorSpec(epsilon=0.01, k=0.3),
                 cosine_folded, line_lattice)
    pair = solve_simple(m, line_lattice.identity)
    w, _ = dense_spectrum(m)
    target = TWO_PI_SQ * 0.09
    nearest = float(w[np.argmin(np.abs(w - target))])
    assert abs(pair.E - nearest) <= 1e-10
    assert pair.residual <= 1e-10
    # perturbation bound |E - v(m0)| < eps
    assert abs(pair.E - target) < 0.01


def test_pair_chi_zero_coupling(line_lattice, cosine_folded):
    # at eps = 0, Q and G vanish: chi = (E - v+)(E - v-)
    k = -0.47
    n0 = line_lattice.canonicalize([1])
    m = assemble(line_lattice.ball(4), OperatorSpec(epsilon=0.0, k=k),
                 cosine_folded, line_lattice)
    i0 = m.row_of(line_lattice.identity)
    i1 = m.row_of(n0)
    vp, vm = m.values[i0, i0].real, m.values[i1, i1].real
    res = PuncturedResolvent(m, [i0, i1])
    for E in (vp - 0.2, 0.5 * (vp + vm), vm + 0.3):
        assert res.chi(E) == pytest.approx((E - vp) * (E - vm), rel=1e-12)


def test_pair_chi_vanishes_at_dense_eigenvalue(line_lattice, cosine_folded):
    k = -0.5
    n0 = line_lattice.canonicalize([1])
    ball = line_lattice.ball(6)
    dom = sorted(set(list(ball) + [line_lattice.sub(n0, e) for e in ball]),
                 key=lambda e: e.key())
    m = assemble(dom, OperatorSpec(epsilon=0.05, k=k), cosine_folded,
                 line_lattice)
    w, _ = dense_spectrum(m)
    v0 = TWO_PI_SQ * 0.25
    root = float(w[np.argmin(np.abs(w - v0))])
    scale = max(1.0, abs(root))
    res = PuncturedResolvent(m, [m.row_of(line_lattice.identity),
                                 m.row_of(n0)])
    assert abs(res.chi(root)) <= 1e-9 * scale


def test_solve_pair_zero_coupling(line_lattice, cosine_folded):
    # distinct diagonals at k near (not at) the resonance; at eps=0 the roots
    # are exactly v(m0+-). |k| < |k_{n0}| puts the larger diagonal at n0, so
    # n0 plays m0+ (the ordering hypothesis fixes the orientation).
    k = -0.48
    n0 = line_lattice.canonicalize([1])
    m = assemble(line_lattice.ball(4), OperatorSpec(epsilon=0.0, k=k),
                 cosine_folded, line_lattice)
    i0, i1 = m.row_of(line_lattice.identity), m.row_of(n0)
    vp, vm = m.values[i0, i0].real, m.values[i1, i1].real
    lo, hi = min(vp, vm) - 0.05, max(vp, vm) + 0.05
    br = solve_pair(PuncturedResolvent(m, [i1, i0]), n0,
                    line_lattice.identity, (lo, hi), tau0_required=0.0)
    assert br.E_minus == pytest.approx(min(vp, vm), abs=1e-11)
    assert br.E_plus == pytest.approx(max(vp, vm), abs=1e-11)


def test_solve_pair_matches_dense(line_lattice, cosine_folded):
    k = -0.5
    n0 = line_lattice.canonicalize([1])
    ball = line_lattice.ball(12)
    dom = sorted(set(list(ball) + [line_lattice.sub(n0, e) for e in ball]),
                 key=lambda e: e.key())
    m = assemble(dom, OperatorSpec(epsilon=0.05, k=k), cosine_folded,
                 line_lattice)
    w, _ = dense_spectrum(m)
    v0 = TWO_PI_SQ * 0.25
    two = np.sort(w[np.argsort(np.abs(w - v0))[:2]])
    spread = two[1] - two[0]
    pair = [m.row_of(line_lattice.identity), m.row_of(n0)]
    br = solve_pair(PuncturedResolvent(m, pair), line_lattice.identity, n0,
                    (two[0] - 0.1 * spread, two[1] + 0.1 * spread),
                    tau0_required=0.0)
    assert br.E_minus == pytest.approx(two[0], abs=1e-9)
    assert br.E_plus == pytest.approx(two[1], abs=1e-9)
    assert br.E_minus < br.E_plus
    assert br.residual_minus <= 1e-9 and br.residual_plus <= 1e-9
    assert abs(br.beta_minus) <= 1.0 + 1e-9
    assert abs(br.beta_plus) <= 1.0 + 1e-9
    # splitting is of order 2 eps |c(1)|
    assert br.E_plus - br.E_minus == pytest.approx(2 * 0.05 * math.exp(-1),
                                                   rel=0.05)


def test_solve_pair_root_count_mismatch(line_lattice, cosine_folded):
    k = -0.5
    n0 = line_lattice.canonicalize([1])
    m = assemble(line_lattice.ball(3), OperatorSpec(epsilon=0.05, k=k),
                 cosine_folded, line_lattice)
    pair = [m.row_of(line_lattice.identity), m.row_of(n0)]
    with pytest.raises(RootCountMismatch):
        solve_pair(PuncturedResolvent(m, pair), line_lattice.identity, n0,
                   (-1000.0, -999.0), tau0_required=0.0)


def test_solve_pair_ordering_hypothesis(line_lattice, cosine_folded):
    # with m+ and m- swapped the ordering margin goes negative
    k = -0.45  # away from exact resonance: v(n0) > v(0)
    n0 = line_lattice.canonicalize([1])
    m = assemble(line_lattice.ball(6), OperatorSpec(epsilon=0.01, k=k),
                 cosine_folded, line_lattice)
    i0, i1 = m.row_of(line_lattice.identity), m.row_of(n0)
    vp, vm = m.values[i0, i0].real, m.values[i1, i1].real
    assert vm > vp
    lo, hi = vp - 0.05, vm + 0.05
    punctured = PuncturedResolvent(m, [i0, i1])
    with pytest.raises(OrderingFailed):
        solve_pair(punctured, line_lattice.identity, n0, (lo, hi),
                   tau0_required=1e-6)
    # correct orientation passes
    br = solve_pair(punctured, n0, line_lattice.identity, (lo, hi),
                    tau0_required=1e-6)
    assert br.E_minus < br.E_plus


def test_quadratic_dichotomy_examples():
    # (a1, a2, b, u): u = a1 is plus_case, u = a2 minus_case; a1 <= a2 and
    # u exactly at the midpoint are outside the dichotomy
    r = dichotomy_core(np.array([1.0, 1.0, 0.0, 1.0]),
                       np.array([0.0, 0.0, 1.0, 0.0]), np.zeros(4),
                       np.array([1.0, 0.0, 0.5, 0.5]))
    assert list(r.classified) == [True, True, False, False]
    assert list(r.plus[:2]) == [True, False]
    assert list(r.minus[:2]) == [False, True]
    assert r.lam[0] == 0.0 and r.gamma[0] == 0.0
    assert not r.ordered[2] and r.ordered[3] and not r.in_range[3]


def dichotomy_oracle(a1, a2, b, u):
    """Reference path: the dichotomy in Python floats, check by check; the
    case with lam and gamma, or the exception of the first failed check."""
    if not a1 > a2:
        raise PreconditionFailed("require a1 > a2")
    gap = a1 - a2
    expr = (u - a1) * (u - a2) - b * b
    scale = max(abs(a1), abs(a2), abs(b), abs(u))
    margin = (16.0 * EPS * scale) * (abs(u - a1) + abs(u - a2))
    if not abs(expr) < gap * gap / 4.0 - margin:
        raise PreconditionFailed(
            f"|(u-a1)(u-a2) - b^2| = {abs(expr):.3e} not < (a1-a2)^2/4 = "
            f"{gap * gap / 4.0:.3e} less the rounding margin {margin:.3e}")
    lam = expr / (gap * gap)
    root = math.sqrt(1.0 + 4.0 * lam)
    gamma = (root - 1.0) / 2.0
    spread, width = abs(gamma) * gap, gap * root
    # each threshold compared with u within the margin carried to u-units
    plus = (u - max(a1 - spread, 0.5 * (a1 + a2 + 2.0 * abs(b)))) * width \
        >= -margin
    minus = (min(a2 + spread, 0.5 * (a1 + a2 - 2.0 * abs(b))) - u) * width \
        >= -margin
    if plus == minus:
        raise HypothesisFailed("dichotomy exclusivity",
                               f"plus={plus} minus={minus} at u={u}")
    bracket_ok = ((a2 - spread - abs(b) - u) * width <= margin
                  and (u - a1 - spread - abs(b)) * width <= margin)
    if not bracket_ok:
        raise HypothesisFailed("dichotomy bracket", f"u={u} escapes the bracket")
    return "plus_case" if plus else "minus_case", lam, gamma


def _outcome(*args):
    """The oracle's case with lam and gamma as bit patterns, or the
    exception type and message."""
    try:
        case, lam, gamma = dichotomy_oracle(*args)
    except (PreconditionFailed, HypothesisFailed) as exc:
        return type(exc), str(exc)
    return case, float(lam).hex(), float(gamma).hex()


_reals = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
_wide = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dichotomy_tuples(draw):
    """(a1, a2, b, u): admissible tuples as in the verify suite, u at the
    midpoint, |expr| at the bound, a1 <= a2, and arbitrary floats."""
    kind = draw(st.sampled_from(["admissible", "midpoint", "at_bound",
                                 "threshold", "unordered", "any", "wide"]))
    if kind == "wide":
        return tuple(draw(_wide) for _ in range(4))
    a1, a2, b, u = (draw(_reals) for _ in range(4))
    if kind == "any":
        return a1, a2, b, u
    if kind == "unordered":
        return min(a1, a2), max(a1, a2), b, u
    gap = draw(st.floats(1e-6, 2.0))
    a2 = a1 - gap
    if kind == "midpoint":
        return a1, a2, b * gap, (a1 + a2) / 2.0
    if kind == "at_bound":
        # b = 0 and u at the midpoint: (u-a1)(u-a2) = -(a1-a2)^2/4 up to
        # rounding; exactly so on dyadic data
        if draw(st.booleans()):
            a1, gap = float(round(a1)), 2.0 ** draw(st.integers(-20, 1))
            a2 = a1 - gap
        return a1, a2, 0.0, (a1 + a2) / 2.0
    b = draw(st.floats(0.0, 1.0)) * gap / 4.0
    if kind == "threshold":
        # u within a few ulps of a case threshold (a1 + a2 +- 2|b|)/2, where
        # |expr| sits at the bound up to rounding
        u = 0.5 * (a1 + a2 + draw(st.sampled_from([-2.0, 2.0])) * abs(b))
        for _ in range(draw(st.integers(-3, 3)) % 7):
            u = math.nextafter(u, draw(st.sampled_from([-math.inf, math.inf])))
        return a1, a2, b, u
    t = draw(st.floats(-0.999, 0.999))
    disc = gap * gap / 4.0 + b * b + t * gap * gap / 4.0
    side = draw(st.sampled_from([-1.0, 1.0]))
    return a1, a2, b, (a1 + a2) / 2.0 + side * math.sqrt(max(disc, 0.0))


@settings(max_examples=300)
@given(st.lists(dichotomy_tuples(), min_size=1, max_size=40))
# u at a case threshold, where the rounding of (a1 + a2 +- 2|b|)/2 decides
# the case (the first tuple falls inside the rounding margin)
@example([(-15.266314576329023, -17.115159879299416, 0.31627684907351344,
           -15.874460378740705),
          (1.066265319979152, -0.7723407366441521, 0.08408930433865333,
           0.06287298732884664)])
def test_dichotomy_core_matches_scalar_oracle(tuples):
    a1, a2, b, u = (np.array(col) for col in zip(*tuples))
    r = dichotomy_core(a1, a2, b, u)
    for i, args in enumerate(tuples):
        want = _outcome(*args)
        # the array core element by element, read in the oracle's order
        if not r.ordered[i] or not r.in_range[i]:
            got = PreconditionFailed
        elif r.plus[i] == r.minus[i] or not r.bracket_ok[i]:
            got = HypothesisFailed
        else:
            got = ("plus_case" if r.plus[i] else "minus_case",
                   float(r.lam[i]).hex(), float(r.gamma[i]).hex())
        assert got == (want if isinstance(want[0], str) else want[0])
        assert bool(r.classified[i]) == isinstance(want[0], str)


def test_dichotomy_threshold_tuple_is_on_the_boundary():
    # u = (a1 + a2 + 2|b|)/2 up to rounding: |expr| is the bound in exact
    # arithmetic, and without the rounding margin this tuple met neither case
    args = (-15.266314576329023, -17.115159879299416, 0.31627684907351344,
            -15.874460378740705)
    with pytest.raises(PreconditionFailed, match="rounding margin"):
        dichotomy_oracle(*args)
    r = dichotomy_core(*(np.float64(x) for x in args))
    assert abs(r.expr) < r.bound and not r.in_range and not r.classified


@settings(max_examples=300)
@given(st.floats(-1e3, 1e3), st.floats(1e-6, 2.0), st.floats(0.0, 1.0),
       st.sampled_from([-1.0, 1.0]), st.integers(1, 4),
       st.sampled_from([-math.inf, math.inf]))
def test_dichotomy_never_fails_exclusivity_near_a_threshold(
        a1, gap, b_frac, side, ulps, direction):
    # u at (a1 + a2 +- 2|b|)/2 moved 1-4 ulps: inside the rounding of the
    # boundary, so a single case or outside the inequality, never both
    # cases, neither or outside the bracket
    a2 = a1 - gap
    b = b_frac * gap / 4.0
    u = 0.5 * (a1 + a2 + side * 2.0 * b)
    for _ in range(ulps):
        u = math.nextafter(u, direction)
    r = dichotomy_core(*(np.float64(x) for x in (a1, a2, b, u)))
    if not (r.ordered and r.in_range):
        return
    assert r.classified and r.plus == (side > 0)


def test_dichotomy_bound_is_exclusive():
    # |expr| exactly (a1-a2)^2/4: u at the midpoint with b = 0 is outside
    assert _outcome(1.0, 0.0, 0.0, 0.5)[0] is PreconditionFailed
    r = dichotomy_core(np.array([1.0, 3.0]), np.array([0.0, 1.0]),
                       np.array([0.0, 0.0]), np.array([0.5, 2.0]))
    assert list(r.expr) == [-0.25, -1.0] and list(r.bound) == [0.25, 1.0]
    assert not r.in_range.any() and not r.classified.any()


def test_dichotomy_at_zero_coupling_regression():
    # b = 0 puts u exactly on a threshold, a1 - |gamma|(a1 - a2) here:
    # without the margin on the thresholds rounding left it in neither case
    r = dichotomy_core(np.float64(0.9108850619643629),
                       np.float64(-0.3031060739581761), np.float64(0.0),
                       np.float64(-0.14530864354001088))
    assert r.classified and r.minus


@pytest.mark.parametrize("b_scale", [0.0, 1e-9])
def test_dichotomy_sweep_with_vanishing_coupling(b_scale):
    # the verify suite's draw with b = 0, and with 0 <= b <= 1e-9 (a1 - a2):
    # no admissible tuple fails exclusivity or the bracket
    rng = np.random.default_rng(0)
    count = 100000
    a1 = rng.uniform(-1.0, 2.0, count)
    gap = rng.uniform(1e-6, 2.0, count)
    a2 = a1 - gap
    b = rng.uniform(0.0, 1.0, count) * gap * b_scale
    t = rng.uniform(-0.999, 0.999, count)
    disc = gap * gap / 4.0 + b * b + t * gap * gap / 4.0
    side = rng.integers(0, 2, count) * 2 - 1
    u = (a1 + a2) / 2.0 + side * np.sqrt(np.maximum(disc, 0.0))
    r = dichotomy_core(a1, a2, b, u)
    admissible = r.ordered & r.in_range
    assert admissible.sum() > 0.99 * count
    assert not (admissible & (r.plus == r.minus)).any()
    assert not (admissible & ~r.bracket_ok).any()


def test_refine_root_converges_where_a_secant_stalls():
    # a secant that keeps one end of [-1, 1] fixed still has |f| = 2 on
    # exp(10 x) - 2 after 200 steps; Brent's method brackets ln 2 / 10
    f = lambda x: np.exp(10.0 * x) - 2.0
    want = math.log(2.0) / 10.0
    assert abs(refine_root(f, -1.0, 1.0, ROOT_TOL) - want) <= ROOT_TOL
    for points in (2, 9):
        roots = _sign_change_roots(f, -1.0, 1.0, points)
        assert len(roots) == 1 and abs(roots[0] - want) <= ROOT_TOL


def test_refine_root_frees_f_on_return():
    # nothing may hold f in a reference cycle, or each pair solve keeps its
    # resolvent until the cycle collector runs (peak RSS of the resonant_2d
    # run went 100 -> 126 MB when scipy's brentq did)
    f = lambda x: x - 0.3
    ref = weakref.ref(f)
    gc.disable()
    try:
        assert abs(refine_root(f, 0.0, 1.0, ROOT_TOL) - 0.3) <= ROOT_TOL
        del f
        assert ref() is None
    finally:
        gc.enable()


def test_refine_root_failures_are_no_convergence():
    # 100 iterations of bisection on [-1e300, 1e300] stay far above 1e-13
    with pytest.raises(NoConvergence) as exc:
        refine_root(lambda x: 1.0 if x > 0.3 else -1.0, -1e300, 1e300, 1e-13)
    assert exc.value.iterations == 100 and exc.value.last_residual == 1.0
    nan_inside = lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5
    no_sign_change = lambda x: x * x + 1.0
    for f in (nan_inside, no_sign_change):
        with pytest.raises(NoConvergence) as exc:
            refine_root(f, -1.0, 2.0, ROOT_TOL)
        assert exc.value.iterations == 0
        assert math.isnan(exc.value.last_residual)


@st.composite
def known_root_cases(draw):
    """(grid points, function, its roots in [-1, 1]): a steep exponential
    e^{a(x - r)} - 1, or (x - r1)(x - r2) e^{bx} with the roots at least two
    grid spacings apart, so that each sits in its own sign change."""
    points = draw(st.integers(9, 257))
    if draw(st.booleans()):
        a = draw(st.floats(1.0, 40.0))
        r = draw(st.floats(-0.99, 0.99))
        return points, lambda x: np.exp(a * (x - r)) - 1.0, [r]
    spacing = 2.0 / (points - 1)
    r1 = draw(st.floats(-0.99, 0.9))
    r2 = draw(st.floats(r1 + 2.0 * spacing, 2.0 * spacing + 0.99))
    assume(r2 <= 0.99)
    b = draw(st.floats(-5.0, 5.0))
    return points, lambda x: (x - r1) * (x - r2) * np.exp(b * x), [r1, r2]


@given(known_root_cases())
def test_sign_change_roots_finds_every_simple_root(case):
    points, f, want = case
    roots = _sign_change_roots(f, -1.0, 1.0, points)
    assert roots == _scalar_scan(f, -1.0, 1.0, points)
    assert len(roots) == len(want)
    for got, r in zip(roots, want):
        # brentq stops once the root is bracketed to xtol + 4 eps |x|
        assert abs(got - r) <= ROOT_TOL + 4.0 * EPS * abs(r)


def test_sign_change_roots_raise_on_nan():
    # the bracket [0.25, 0.5] changes sign, but f is NaN inside it around
    # the root 0.3: no refinement may return a point there as a root
    g = lambda x: np.where((0.25 < x) & (x < 0.35), np.nan, x - 0.3)
    with pytest.raises(NoConvergence):
        _sign_change_roots(g, -1.0, 1.0, 9)


def test_sign_change_roots_raise_on_nan_grid_value():
    # g is NaN at the grid point 0.25, next to the root 0.3: the sign change
    # of [0.25, 0.5] is hidden, so no scan may report that there is no root
    g = lambda x: np.where(np.abs(x - 0.25) < 0.01, np.nan, x - 0.3)
    with pytest.raises(NoConvergence):
        _sign_change_roots(g, -1.0, 1.0, 9)


def _scalar_scan(f, lo, hi, grid_points):
    """The sign-change scan one grid point at a time: the reference for the
    one-call grid of _sign_change_roots."""
    xs = np.linspace(lo, hi, grid_points)
    vals = [f(float(x)) for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        a, b = float(xs[i]), float(xs[i + 1])
        if vals[i] == 0.0:
            roots.append(a)
        elif vals[i] * vals[i + 1] < 0:
            roots.append(refine_root(f, a, b, ROOT_TOL))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


@given(st.one_of(tridiagonal_cases(), householder_cases()))
def test_pair_chi_scan_matches_the_scalar_scan(case):
    matrix, principal, _ = case
    assume(len(principal) == 2)
    res = PuncturedResolvent(matrix, principal)
    lo, hi = res.w[0] - 1.0, res.w[min(3, len(res.w) - 1)] + 1.0
    try:
        want = _scalar_scan(res.chi, lo, hi, 257)
    except SingularBlock:
        assume(False)
    assert _sign_change_roots(res.chi, lo, hi, 257) == want


def _pair_matrix(family, seed, radius, n_index, eps, k):
    """A pair matrix as the band builds it: the ball of the radius and its
    mirror n - e, punctured at (0, n), n the n_index-th point of the ball
    after 0. nu = 1 cosine takes the t-order phases; nu = 2 cosine, whose
    one harmonic leaves sites of the domain decoupled (their diagonals are
    exact eigenvalues of H and of the punctured block alike), and nu = 2
    complex random_phase take zhetrd."""
    if family == "cosine_1d":
        lat = _lattice("1")
        coeffs = cosine([1], kappa0=1.0, alpha0=1.0, amplitude=None)
    else:
        lat = _lattice("1", "3/7")
        coeffs = cosine([1, 0], kappa0=1.0, alpha0=1.0, amplitude=None) \
            if family == "cosine_2d" else \
            random_phase(2, nu=2, kappa0=0.5, seed=seed, amplitude_scale=0.5,
                         alpha0=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    ball = lat.ball(radius)
    rest = [e for e in ball if e != lat.identity]
    n = rest[n_index % len(rest)]
    spec = OperatorSpec(epsilon=eps, k=k)
    matrix = assemble(list(ball) + [lat.sub(n, e) for e in ball], spec,
                      folded, lat)
    assert (matrix.bandwidth <= 1) == (family == "cosine_1d")
    return matrix, [matrix.row_of(lat.identity), matrix.row_of(n)]


pair_matrix_params = st.tuples(
    st.sampled_from(["cosine_1d", "cosine_2d", "random_phase_2d"]),
    st.integers(0, 99), st.integers(1, 5), st.integers(0, 200),
    st.sampled_from([0.05, 0.3, 2.0]), st.floats(-0.45, 0.45))


def _target(matrix, principal):
    p, q = principal
    return 0.5 * (matrix.values[p, p].real + matrix.values[q, q].real)


@settings(max_examples=60)
@given(pair_matrix_params, st.lists(st.floats(0.0, 1.0), max_size=8))
# two w one ulp apart at k = 0: the nudge off the first must pass the second
@example(("cosine_1d", 0, 4, 0, 0.05, 0.0), [])
# a w near 0, whose ulp puts its pole term 1e16 times the others
@example(("random_phase_2d", 28, 1, 86, 2.0, -0.1971421247836615), [])
@example(("random_phase_2d", 1, 1, 2, 0.3, 0.21468299104832483), [])
def test_inertia_count_matches_dense_eigenvalues(params, where):
    # #{lambda(H) < x} at the target, exactly on every eigenvalue of the
    # punctured block and of H, and at random x; an eigenvalue within tol
    # of x may fall on either side
    matrix, principal = _pair_matrix(*params)
    res = PuncturedResolvent(matrix, principal)
    lam = np.linalg.eigvalsh(matrix.values)
    tol = 1e-14 * max(1.0, matrix.norm_bound())
    spread = lam[0] - 1.0 + np.asarray(where) * (lam[-1] - lam[0] + 2.0)
    x = np.concatenate(([_target(matrix, principal)], res.w, lam, spread))
    for count in (res.count_below(x),
                  [int(res.count_below(float(v))) for v in x]):
        assert np.all(np.searchsorted(lam, x - tol) <= count)
        assert np.all(count <= np.searchsorted(lam, x + tol))


@settings(max_examples=60)
@given(pair_matrix_params)
def test_counted_eigenvalues_match_eigvalsh(params):
    matrix, principal = _pair_matrix(*params)
    res = PuncturedResolvent(matrix, principal)
    lam = np.linalg.eigvalsh(matrix.values)
    tol = 1e-14 * max(1.0, matrix.norm_bound())
    assert np.max(np.abs(res.eigenvalues(np.arange(len(lam))) - lam)) <= tol
    # the eigenvalues around the target hold the two nearest it
    target = _target(matrix, principal)
    around = res.eigenvalues_around(target)
    assert 2 <= len(around) <= 4
    for value in lam[np.argsort(np.abs(lam - target))[:2]]:
        assert np.min(np.abs(around - value)) <= tol


def test_cff_leaf_and_degenerate_composite():
    a1 = lambda x, u: 0.004
    a2 = lambda x, u: -0.004
    zero = lambda x, u: 0.0
    grid = [(0.0, u) for u in (-0.006, 0.0, 0.006)]
    n1, n2 = cff_build(leaf(a1), leaf(a2), zero, grid)
    # b = 0: f(.,1) = u - a1 and chi = (u-a2)(u-a1)
    for u in (-0.005, 0.0, 0.005):
        assert n1.f(0.0, u) == pytest.approx(u - 0.004)
        assert n1.chi(0.0, u) == pytest.approx((u + 0.004) * (u - 0.004))
        assert n2.f(0.0, u) == pytest.approx(u + 0.004)
        assert n1.tau(0.0, u) == pytest.approx(0.008)


def test_cff_tau_formula_on_polynomials():
    # audit tau^{(f)} = (chi2 - chi1) tau1 tau2 against an independent
    # polynomial expansion at low degree
    a11 = lambda x, u: 0.003 + 0.01 * x
    a12 = lambda x, u: -0.003 + 0.01 * x
    a21 = lambda x, u: 0.004 - 0.01 * x
    a22 = lambda x, u: -0.004 - 0.01 * x
    b2_small = lambda x, u: 1e-40
    grid = [(x, u) for x in (0.0, 0.001) for u in (-0.005, 0.0, 0.005)]
    f1, _ = cff_build(leaf(a11), leaf(a12), b2_small, grid)
    f2, _ = cff_build(leaf(a21), leaf(a22), b2_small, grid)
    for (x, u) in grid:
        chi1 = (u - a11(x, u)) * (u - a12(x, u)) - b2_small(x, u)
        chi2 = (u - a21(x, u)) * (u - a22(x, u)) - b2_small(x, u)
        tau1 = a11(x, u) - a12(x, u)
        tau2 = a21(x, u) - a22(x, u)
        node = CffNode(level=2, kind="composite", f1=f1, f2=f2,
                       b2=lambda x, u: 0.0, choice=1)
        assert node.tau(x, u) == pytest.approx((chi2 - chi1) * tau1 * tau2,
                                               rel=1e-9)


def test_cff_admissibility_violation_named():
    a1 = lambda x, u: 0.004
    a2 = lambda x, u: 0.005  # a1 < a2 violates (iii)
    grid = [(0.0, 0.0)]
    with pytest.raises(AdmissibilityFailed) as exc:
        cff_build(leaf(a1), leaf(a2), lambda x, u: 0.0, grid)
    assert "(iii)" in exc.value.condition


def test_cff_build_takes_leaf_children_only():
    # the level-1 construction: a composite child is no input of cff_build
    grid = [(0.0, u) for u in (-0.006, 0.0, 0.006)]
    zero = lambda x, u: 0.0
    n1, n2 = cff_build(leaf(lambda x, u: 0.004), leaf(lambda x, u: -0.004),
                       zero, grid)
    assert n1.level == n2.level == 1
    for children in ((n1, n2), (n1, leaf(lambda x, u: -0.004)),
                     (leaf(lambda x, u: 0.004), n2)):
        with pytest.raises(AdmissibilityFailed) as exc:
            cff_build(*children, zero, grid)
        assert exc.value.condition == "leaf children"


def test_cff_branch_solve_constant_roots():
    # chi = (u - a)(u - a') with no x dependence: zeta(+-) constant
    a1 = lambda x, u: 0.004
    a2 = lambda x, u: -0.004
    grid = [(x, u) for x in (0.0, 0.01) for u in (-0.006, 0.0, 0.006)]
    n1, _ = cff_build(leaf(a1), leaf(a2), lambda x, u: 0.0, grid)
    res = cff_branch_solve(n1, [0.0, 0.005, 0.01],
                           lambda x: (-0.01, 0.01))
    assert np.allclose(res.zeta_minus, -0.004, atol=1e-12)
    assert np.allclose(res.zeta_plus, 0.004, atol=1e-12)
    assert res.derivative_split_ok and res.convexity_ok


def test_cff_branch_solve_symmetric_model():
    c = 0.4
    xs = [i / 1000.0 for i in range(1, 8)]
    grid = [(x, u) for x in xs for u in (-0.005, 0.0, 0.005)]
    n1, _ = cff_build(leaf(lambda x, u: x), leaf(lambda x, u: -x),
                      lambda x, u: (c * x) ** 2, grid)
    res = cff_branch_solve(n1, xs, lambda x: (-0.02, 0.02))
    for x, zm, zp in zip(xs, res.zeta_minus, res.zeta_plus):
        expected = math.sqrt(x * x * (1 + c * c))
        assert zp == pytest.approx(expected, abs=1e-10)
        assert zm == pytest.approx(-expected, abs=1e-10)
    assert res.derivative_split_ok
    assert res.convexity_ok
    assert res.continuity_ok
