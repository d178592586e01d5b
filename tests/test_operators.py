import functools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hillbands.eigensolve import punctured_block
from hillbands.errors import ValidationFailed
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.operators import (TWO_PI_SQ, OperatorSpec, assemble, gamma_for,
                                 order_domain)
from hillbands.potential import cosine, exp_decay, fold, random_phase

from conftest import make_context
from oracles import (dense_dual_matrix, gathered_assemble, negated_domain,
                     symmetry_conjugation_check, translated_domain,
                     translation_conjugation_check)


# --- reference oracle: pairwise assembly, one lat.sub per pair ---

def pairwise_assemble(domain, spec, folded, lat):
    """Fill the upper triangle pair by pair and mirror-conjugate it."""
    dom = order_domain(domain)
    if not dom:
        raise ValueError("domain must be nonempty")
    n = len(dom)
    H = np.zeros((n, n), dtype=np.complex128)
    scale = spec.epsilon
    zero_mode = scale * folded.value(lat.identity)
    for i, a in enumerate(dom):
        H[i, i] = spec.diagonal(float(a.xi)) + zero_mode
        for j in range(i + 1, n):
            diff = lat.sub(a, dom[j])  # H[row, col] = eps * c(row - col)
            val = scale * folded.value(diff)
            if val != 0:
                H[i, j] = val
                H[j, i] = val.conjugate()
    return dense_dual_matrix(dom, spec, H, len(dom))


def folded_decay_violations(coeffs, lat):
    """The cosets d != 0, sorted by key, whose sum of c over the coset,
    taken entry by entry over c's support, exceeds exp(-kappa0 |d|^alpha0)."""
    sums = {}
    for n, v in coeffs.entries.items():
        d = lat.canonicalize(n)
        sums[d] = sums.get(d, 0j) + v
    return sorted((d for d, v in sums.items() if not d.is_identity and abs(v)
                   > math.exp(-coeffs.kappa0 * d.norm**coeffs.alpha0)
                   * (1 + 1e-12)), key=lambda d: d.key())


OMEGAS = [("1",), ("2/3",), ("1", "3/7"), ("1/2", "1/2"), ("2/5", "3/7"),
          ("1", "1/2"), ("1", "2")]


@functools.lru_cache(maxsize=None)
def _lattice(omega):
    return QuotientLattice(FrequencyVector.parse(omega))


@st.composite
def folding_cases(draw):
    """(coefficients, lattice): the data that assembly_cases folds."""
    omega = draw(st.sampled_from(OMEGAS))
    lat = _lattice(omega)
    nu = lat.nu
    kind = draw(st.sampled_from(["cosine", "random_phase", "exp_decay"]))
    kappa0 = draw(st.sampled_from([0.3, 1.0]))
    radius = draw(st.integers(1, 3 if nu == 1 else 2))
    if kind == "cosine":
        n0 = draw(st.lists(st.integers(-radius, radius), min_size=nu,
                           max_size=nu).filter(any))
        coeffs = cosine(n0, kappa0=kappa0, alpha0=1.0, amplitude=None)
    elif kind == "random_phase":
        coeffs = random_phase(radius, nu=nu, kappa0=kappa0,
                              seed=draw(st.integers(0, 99)), alpha0=1.0,
                              amplitude_scale=1.0)
    else:
        coeffs = exp_decay(radius, nu=nu, kappa0=kappa0, alpha0=1.0)
    return coeffs, lat


@st.composite
def assembly_cases(draw):
    coeffs, lat = draw(folding_cases())
    nu = lat.nu
    folded = fold(coeffs, lat, enforce_bound=False)

    ball = lat.ball(draw(st.integers(0, 6 if nu == 1 else 3)))
    pick = st.lists(st.integers(-4, 4), min_size=nu, max_size=nu)
    shape = draw(st.sampled_from(["ball", "translate", "negate", "mirror"]))
    if shape == "translate":
        domain = translated_domain(ball, lat.canonicalize(draw(pick)), lat)
    elif shape == "negate":
        domain = negated_domain(translated_domain(
            ball, lat.canonicalize(draw(pick)), lat), lat)
    elif shape == "mirror":
        n_top = lat.canonicalize(draw(pick))
        domain = list(ball) + [lat.sub(n_top, e) for e in ball]
    else:
        domain = ball

    k = draw(st.floats(0.01, 1.9)) * draw(st.sampled_from([1, -1]))
    spec = OperatorSpec(epsilon=draw(st.sampled_from([0.05, 0.3, 2.0])), k=k)
    return domain, spec, folded, lat


@given(assembly_cases())
def test_assemble_matches_pairwise_oracle(case):
    fast = assemble(*case)
    ref = pairwise_assemble(*case)
    assert fast.domain == ref.domain
    assert np.array_equal(fast.values, ref.values)
    assert np.array_equal(fast.values, fast.values.conj().T)



@given(assembly_cases(), st.data())
def test_punctured_block_is_the_pairwise_oracle_restricted(case, data):
    # the block that zhetrd reduces in place, scattered from the stored
    # nonzeros with 0, 1 or 2 principals removed
    matrix = assemble(*case)
    dense = pairwise_assemble(*case).values
    principal = data.draw(st.lists(
        st.integers(0, matrix.size - 1), unique=True,
        max_size=min(2, matrix.size - 1)))
    others = [i for i in range(matrix.size) if i not in principal]
    block = punctured_block(matrix, others)
    assert block.flags.f_contiguous
    assert np.array_equal(block, dense[np.ix_(others, others)])

@st.composite
def gapped_domain_cases(draw):
    """nu in {1, 2}, omega components with denominators up to 13, cosine or
    random_phase data, and a ball with a random part of its points left out,
    so that the domain has gaps in t."""
    nu = draw(st.sampled_from([1, 2]))
    component = st.builds(Fraction, st.integers(-13, 13), st.integers(1, 13))
    omega = draw(st.lists(component, min_size=nu, max_size=nu).filter(any))
    lat = _lattice(tuple(str(c) for c in omega))
    if draw(st.booleans()):
        n0 = draw(st.lists(st.integers(-2, 2), min_size=nu,
                           max_size=nu).filter(any))
        coeffs = cosine(n0, kappa0=0.5, alpha0=1.0, amplitude=None)
    else:
        coeffs = random_phase(draw(st.integers(1, 2)), nu=nu, kappa0=0.5,
                              seed=draw(st.integers(0, 99)), alpha0=1.0,
                              amplitude_scale=1.0)
    folded = fold(coeffs, lat, enforce_bound=False)
    ball = lat.ball(draw(st.integers(0, 8 if nu == 1 else 3)))
    keep = draw(st.lists(st.booleans(), min_size=len(ball),
                         max_size=len(ball)))
    domain = [e for e, k in zip(ball, keep) if k] or ball[:1]
    spec = OperatorSpec(epsilon=draw(st.sampled_from([0.0, 0.05, 0.3, -2.0])),
                        k=draw(st.floats(-1.9, 1.9)))
    return domain, spec, folded, lat


@given(gapped_domain_cases())
def test_assemble_by_offset_is_the_row_gather_bit_for_bit(case):
    fast = assemble(*case)
    ref = gathered_assemble(*case)
    assert fast.domain == ref.domain
    assert fast.values.tobytes() == ref.values.tobytes()
    assert fast.bandwidth == ref.bandwidth
    # row sums of nonnegative terms in another order: within a few ulps
    terms = len(case[2].entries) + 1
    assert fast.norm_bound() == pytest.approx(
        ref.norm_bound(), rel=2 * terms * np.finfo(float).eps)


@given(gapped_domain_cases(), st.integers(0, 2**32 - 1))
def test_matvec_is_the_dense_product(case, seed):
    # H x from the stored nonzeros, one scatter-add per offset, against the
    # dense view's BLAS product: the sums differ only in their order
    m = assemble(*case)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    y = m.matvec(x)
    assert "values" not in vars(m)
    tol = 1e-15 * m.norm_bound() * np.max(np.abs(x))
    assert np.max(np.abs(y - m.values @ x)) <= tol


def test_dual_matrices_compare_and_hash_by_identity(line_lattice,
                                                    cosine_folded):
    spec = OperatorSpec(epsilon=0.05, k=0.3)
    m = assemble(line_lattice.ball(3), spec, cosine_folded, line_lattice)
    twin = assemble(line_lattice.ball(3), spec, cosine_folded, line_lattice)
    assert m == m and m != twin and not m == twin
    assert hash(m) == hash(m) and len({m, twin, m}) == 2


def test_norm_bound_is_read_off_the_assembled_row_sums(line_lattice,
                                                       cosine_folded):
    # assemble sums |H| row by row as it writes the offsets: norm_bound()
    # makes no n x n pass, where |H| alone would take 8 n^2 bytes
    m = assemble(line_lattice.ball(500), OperatorSpec(epsilon=0.05, k=0.11),
                 cosine_folded, line_lattice)
    n = m.size
    tracemalloc.start()
    try:
        norm = m.norm_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n
    assert norm == pytest.approx(np.linalg.norm(m.values, np.inf), rel=1e-15)


def brute_force_bandwidth(matrix):
    """Largest |i - j| over the nonzero entries of H permuted to t order."""
    order = np.argsort([e.t for e in matrix.domain])
    i, j = np.nonzero(matrix.values[np.ix_(order, order)])
    return int(np.max(np.abs(i - j)))


@given(assembly_cases())
def test_bandwidth_matches_brute_force(case):
    matrix = assemble(*case)
    assert matrix.bandwidth == brute_force_bandwidth(matrix)


def test_bandwidth_of_cosine_ball_and_oracle_default(line_lattice,
                                                     cosine_folded):
    spec = OperatorSpec(epsilon=0.05, k=0.3)
    assert assemble(line_lattice.ball(5), spec, cosine_folded,
                    line_lattice).bandwidth == 1
    assert assemble(line_lattice.ball(0), spec, cosine_folded,
                    line_lattice).bandwidth == 0
    assert assemble(line_lattice.ball(5), OperatorSpec(epsilon=0.0, k=0.3),
                    cosine_folded, line_lattice).bandwidth == 0
    # built without assemble: the matrix size, which the resolvent treats
    # as dense
    ref = pairwise_assemble(line_lattice.ball(5), spec, cosine_folded,
                            line_lattice)
    assert ref.bandwidth == ref.size == 11


def test_assemble_diagonal_at_zero_coupling(line_lattice, cosine_folded):
    spec = OperatorSpec(epsilon=0.0, k=0.3)
    m = assemble(line_lattice.ball(3), spec, cosine_folded, line_lattice)
    H = m.values
    assert np.allclose(H - np.diag(np.diag(H)), 0.0)
    for i, e in enumerate(m.domain):
        assert H[i, i].real == pytest.approx(TWO_PI_SQ * (e.rep[0] + 0.3) ** 2)


def test_assemble_three_by_three_entries(line_lattice):
    # c(+-1) = e^-1
    folded = fold(cosine([1], kappa0=1.0, alpha0=1.0, amplitude=None),
                  line_lattice)
    spec = OperatorSpec(epsilon=0.1, k=0.3)
    m = assemble(line_lattice.ball(1), spec, folded, line_lattice)
    # domain ordering: [(0), (-1), (1)]
    assert [e.rep for e in m.domain] == [(0,), (-1,), (1,)]
    H = m.values
    assert H[0, 0].real == pytest.approx(TWO_PI_SQ * 0.09)
    assert H[1, 1].real == pytest.approx(TWO_PI_SQ * 0.49)
    assert H[2, 2].real == pytest.approx(TWO_PI_SQ * 1.69)
    assert abs(H[0, 1]) == pytest.approx(0.1 * math.exp(-1))
    assert abs(H[0, 2]) == pytest.approx(0.1 * math.exp(-1))
    assert H[1, 2] == 0  # distance 2: no coefficient
    assert np.allclose(H, H.conj().T)


def test_gamma_bracketing():
    assert gamma_for(0.3) == 1.0
    assert gamma_for(1.0) == 1.0
    assert gamma_for(1.7) == 2.0


def test_translation_identity_element(line_lattice, cosine_folded):
    spec = OperatorSpec(epsilon=0.05, k=0.3)
    rep = translation_conjugation_check(line_lattice.ball(3),
                                        line_lattice.identity, spec,
                                        cosine_folded, line_lattice)
    assert rep.passed and rep.max_eig_difference <= 1e-12


def test_translation_conjugation(line_lattice):
    folded = fold(exp_decay(4, nu=1, kappa0=1.0, alpha0=1.0), line_lattice)
    spec = OperatorSpec(epsilon=0.05, k=0.3)
    m = line_lattice.canonicalize([2])
    rep = translation_conjugation_check(line_lattice.ball(3), m, spec,
                                        folded, line_lattice)
    assert rep.passed


def test_translation_conjugation_random_domain(line_lattice):
    rng = np.random.default_rng(1)
    folded = fold(random_phase(4, nu=1, kappa0=1.0, seed=9,
                               alpha0=1.0, amplitude_scale=1.0), line_lattice)
    picks = rng.choice(np.arange(-5, 6), size=6, replace=False)
    domain = [line_lattice.canonicalize([int(v)]) for v in picks]
    m = line_lattice.canonicalize([int(rng.integers(-3, 4))])
    spec = OperatorSpec(epsilon=0.02, k=0.37)
    rep = translation_conjugation_check(domain, m, spec, folded, line_lattice)
    assert rep.passed


def test_symmetry_conjugation(line_lattice, half_lattice):
    folded = fold(exp_decay(4, nu=1, kappa0=1.0, alpha0=1.0), line_lattice)
    spec = OperatorSpec(epsilon=0.05, k=0.37)
    rep = symmetry_conjugation_check(line_lattice.ball(4), spec, folded,
                                     line_lattice)
    assert rep.passed

    c2 = random_phase(3, nu=2, kappa0=0.6, seed=2, amplitude_scale=0.5,
                      alpha0=1.0)
    folded2 = fold(c2, half_lattice, enforce_bound=False)
    rep2 = symmetry_conjugation_check(half_lattice.ball(2),
                                      OperatorSpec(epsilon=0.05, k=0.25),
                                      folded2, half_lattice)
    assert rep2.passed


def test_symmetric_domain_at_k_zero(line_lattice, cosine_folded):
    rep = symmetry_conjugation_check(line_lattice.ball(3),
                                     OperatorSpec(epsilon=0.05, k=0.0),
                                     cosine_folded, line_lattice)
    assert rep.passed and rep.max_eig_difference <= 1e-12


def test_offdiagonal_decay_enforced(half_lattice):
    # folding stacks cosets: on omega = (1/2, 1/2) the coset of (0, 1) holds
    # (1, 0), (0, 1), (2, -1) and (-1, 2), so c sums to 2e^-1 + 2e^-2, above
    # the envelope e^-1 of every matrix entry eps*c(d), and fold must reject
    # it by name
    with pytest.raises(ValidationFailed) as exc:
        fold(exp_decay(2, nu=2, kappa0=1.0, alpha0=1.0), half_lattice)
    assert (f"folded decay bound fails at [0,1]: |c| = "
            f"{2 * math.exp(-1) + 2 * math.exp(-2):.3e} > "
            f"{math.exp(-1):.3e}") in str(exc.value)


@given(folding_cases())
def test_fold_rejects_exactly_the_cosets_above_the_decay_bound(case):
    coeffs, lat = case
    bad = folded_decay_violations(coeffs, lat)
    if bad:
        with pytest.raises(ValidationFailed) as exc:
            fold(coeffs, lat)
        named = re.findall(r"folded decay bound fails at (\[[-\d,]+\])",
                           str(exc.value))
        assert named == [repr(d) for d in bad]
    else:
        fold(coeffs, lat)
    # without the bound, the same data assembles on any domain
    folded = fold(coeffs, lat, enforce_bound=False)
    m = assemble(lat.ball(3 if lat.nu == 1 else 2),
                 OperatorSpec(epsilon=0.3, k=0.2), folded, lat)
    assert np.array_equal(m.values, m.values.conj().T)


@pytest.mark.parametrize("enforce_bound", [False, True])
def test_assemble_diagonal_carries_folded_zero_mode(half_lattice,
                                                    enforce_bound):
    # (1, -1) spans the null lattice of omega = (1/2, 1/2): folding sums c
    # over its multiples into the identity coset, the constant c(0); the
    # decay bound, which holds here, leaves the folded data alone
    coeffs = random_phase(2, nu=2, kappa0=0.5, seed=1, amplitude_scale=0.5,
                          alpha0=1.0)
    folded = fold(coeffs, half_lattice, enforce_bound=enforce_bound)
    c0 = sum(coeffs.value((j, -j)) for j in (-2, -1, 1, 2))
    assert abs(c0) > 0.1
    assert folded.value(half_lattice.identity) == pytest.approx(c0, abs=1e-15)
    spec = OperatorSpec(epsilon=0.05, k=0.3)
    m = assemble(half_lattice.ball(3), spec, folded, half_lattice)
    want = [spec.diagonal(float(e.xi)) + spec.epsilon * c0.real
            for e in m.domain]
    assert np.diag(m.values).real == pytest.approx(want, abs=1e-15)
    assert not np.diag(m.values).imag.any()


def test_assemble_hermitian_bit_for_bit(half_lattice):
    # complex folded data on a rank-1 quotient; no mirror step is applied
    folded = fold(random_phase(3, nu=2, kappa0=0.6, seed=5,
                               amplitude_scale=0.5, alpha0=1.0), half_lattice,
                  enforce_bound=False)
    m = assemble(half_lattice.ball(3), OperatorSpec(epsilon=0.05, k=-0.3),
                 folded, half_lattice)
    H = m.values
    assert np.any(H.imag != 0)
    assert np.array_equal(H, H.conj().T)


@pytest.mark.parametrize("field", ["epsilon", "k"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("via_context", [False, True])
def test_spec_rejects_nonfinite(field, bad, via_context, line_lattice,
                                cosine_folded, toy_schedule):
    # via_context: through BandContext.spec, the constructor the sweep uses
    kwargs = {"epsilon": 0.05, "k": 0.3, field: bad}
    with pytest.raises(ValueError, match="finite"):
        if via_context:
            make_context(line_lattice, cosine_folded, toy_schedule,
                         eps=kwargs["epsilon"]).spec(kwargs["k"])
        else:
            OperatorSpec(**kwargs)


def test_eigenvalues_real(line_lattice):
    folded = fold(random_phase(4, nu=1, kappa0=1.0, seed=4,
                               alpha0=1.0, amplitude_scale=1.0), line_lattice)
    m = assemble(line_lattice.ball(5), OperatorSpec(epsilon=0.05, k=0.21),
                 folded, line_lattice)
    w = np.linalg.eigvalsh(m.values)
    assert np.all(np.isreal(w))
