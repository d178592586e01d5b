import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hillbands.errors import SingularBlock
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.schur import (WeightLemmaReport, WeightProfile, _hop_table,
                             _trajectories, hop_sum_constant, mu_of_set,
                             q_g_functions, schur_block_inverse,
                             verify_weight_lemma, weight_sum_upper_bound_audit,
                             weight_sums)


@pytest.fixture(scope="module")
def lat():
    return QuotientLattice(FrequencyVector.parse(["1"]))


def random_hermitian(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (A + A.conj().T) / 2.0


def test_schur_inverse_diagonal_blockwise():
    H = np.diag([1.0, 3.0]).astype(complex)
    out = schur_block_inverse(H, ([0], [1]), E=5.0)
    assert np.allclose(out, np.diag([1 / 4.0, 1 / 2.0]))


def test_schur_inverse_matches_direct():
    rng = np.random.default_rng(0)
    H = random_hermitian(rng, 8)
    E = float(np.max(np.linalg.eigvalsh(H))) + 1.5
    out = schur_block_inverse(H, ([0, 1, 2, 3, 4], [5, 6, 7]), E)
    direct = np.linalg.inv(E * np.eye(8) - H)
    rel = np.linalg.norm(out - direct) / np.linalg.norm(direct)
    assert rel <= 1e-10


def test_schur_inverse_singular_raises():
    rng = np.random.default_rng(1)
    H = random_hermitian(rng, 6)
    E = float(np.linalg.eigvalsh(H)[2])  # exactly on the spectrum
    with pytest.raises(SingularBlock):
        schur_block_inverse(H, ([0, 1, 2], [3, 4, 5]), E)


def test_q_g_zero_coupling(lat):
    H = np.diag([0.0, 2.0, 5.0]).astype(complex)
    qg = q_g_functions(H, [0, 1], E=0.3)
    assert qg.Q == {0: 0.0, 1: 0.0}
    assert qg.G == {(0, 1): 0.0, (1, 0): 0.0}


def test_q_scalar_closed_form():
    # |Lambda| = 3, one point left after the pair: Q(p) = |h(p, 2)|^2 /
    # (E - v2) and G(0, 1) = h(0, 1) + h(0, 2) h(2, 1) / (E - v2)
    eps_c, eps_d = 0.3 + 0.1j, 0.2 - 0.05j
    H = np.array([[1.0, 0.1, eps_c], [0.1, 1.5, eps_d],
                  [np.conj(eps_c), np.conj(eps_d), 4.0]])
    qg = q_g_functions(H, [0, 1], E=2.0)
    assert qg.Q[0] == pytest.approx(abs(eps_c) ** 2 / (2.0 - 4.0))
    assert qg.Q[1] == pytest.approx(abs(eps_d) ** 2 / (2.0 - 4.0))
    assert qg.G[(0, 1)] == pytest.approx(
        0.1 + eps_c * np.conj(eps_d) / (2.0 - 4.0))


@pytest.mark.parametrize("principal", [[0], [1, 1], [0, 1, 2]])
def test_q_g_takes_two_distinct_principals(principal):
    H = np.diag([0.0, 2.0, 5.0, 7.0]).astype(complex)
    with pytest.raises(ValueError, match="two distinct indices"):
        q_g_functions(H, principal, 0.3)


def test_q_g_pair_against_dense_punctured_inverse():
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 5)
    E = float(np.max(np.linalg.eigvalsh(H))) + 2.0
    qg = q_g_functions(H, [0, 2], E)
    others = [1, 3, 4]
    K = np.linalg.inv(E * np.eye(3) - H[np.ix_(others, others)])
    for p in (0, 2):
        expected = (H[p, others] @ K @ H[others, p]).real
        assert qg.Q[p] == pytest.approx(expected)
    expected_g = H[0, 2] + H[0, others] @ K @ H[others, 2]
    assert qg.G[(0, 2)] == pytest.approx(expected_g)
    assert qg.G[(0, 2)] == pytest.approx(np.conj(qg.G[(2, 0)]))


@given(st.integers(0, 2**32 - 1), st.sampled_from([(0, 3), (6, 2)]),
       st.floats(0.0, 1.0))
def test_q_g_solve_matches_explicit_inverses(seed, principal, where):
    # SingularBlock on every eigenvalue of the punctured block; elsewhere
    # Q and G equal their values through an explicit inverse
    H = random_hermitian(np.random.default_rng(seed), 7)
    others = [i for i in range(7) if i not in principal]
    w = np.linalg.eigvalsh(H[np.ix_(others, others)])
    for E in w:
        with pytest.raises(SingularBlock):
            q_g_functions(H, principal, float(E))
    E = float(w[0] - 1.0 + where * (w[-1] - w[0] + 2.0))
    assume(np.min(np.abs(E - w)) > 1e-3)
    K = np.linalg.inv(E * np.eye(len(others)) - H[np.ix_(others, others)])
    qg = q_g_functions(H, principal, E)
    for p in principal:
        expected = (H[p, others] @ K @ H[others, p]).real
        assert qg.Q[p] == pytest.approx(expected, rel=1e-10, abs=1e-12)
    p, q = principal
    expected = H[p, q] + H[p, others] @ K @ H[others, q]
    assert qg.G[(p, q)] == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_q_g_singular_threshold_is_relative_to_the_one_norm():
    # A = E - H_punctured = diag(1, d): 1/||A^-1||_1 = d against
    # 1e-13 max(1, ||A||_1) = 1e-13
    for d, singular in ((1e-14, True), (1e-12, False)):
        H = np.diag([5.0, -1.0, -d, 7.0]).astype(complex)
        H[0, 1] = H[1, 0] = 0.5
        if singular:
            with pytest.raises(SingularBlock):
                q_g_functions(H, [0, 3], 0.0)
        else:
            assert q_g_functions(H, [0, 3], 0.0).Q[0] == pytest.approx(0.25)


def _near_diagonal(n):
    """An exactly Hermitian n x n matrix: a diagonal in [1, 2] plus couplings
    1e-40 e^{-0.9 |i-j|}."""
    H = np.diag(np.linspace(1.0, 2.0, n)).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            H[i, j] = H[j, i] = 1e-40 * math.exp(-0.9 * abs(i - j))
    return H


def test_checked_inverse_singular_and_regular():
    # every inverse goes through the one checked Hermitian solve
    def rel(out, want):
        return np.linalg.norm(out - want) / np.linalg.norm(want)

    rng = np.random.default_rng(11)
    A = random_hermitian(rng, 6)
    # E = 0 and H = -A: E - H is A exactly
    out = schur_block_inverse(-A, ([0, 1, 2], [3, 4, 5]), 0.0)
    assert rel(out, np.linalg.inv(A)) <= 1e-12

    B = A.copy()
    B[5, :] = B[0, :]           # rank 5, still exactly Hermitian
    B[:, 5] = B[:, 0]
    with pytest.raises(SingularBlock, match="singular block H2~") as exc:
        schur_block_inverse(-B, ([0, 1, 2], [3, 4, 5]), 0.0)
    # the number is zhecon's estimate of 1/||A^-1||_1, not a singular value
    assert "distance to singularity 1/||A^-1||_1" in str(exc.value)
    assert "singular value" not in str(exc.value)
    assert exc.value.norm == "1"
    assert exc.value.distance_to_singularity <= 1e-13
    # the threshold is relative to max(1, sigma_max): a 1 x 1 block H2~ of
    # 1e-14 is singular, one of 1e-12 is not
    with pytest.raises(SingularBlock, match="H2~"):
        schur_block_inverse(-np.diag([1.0, 1e-14]), ([0], [1]), 0.0)
    small = np.diag([1.0, 1e-12])
    assert rel(schur_block_inverse(-small, ([0], [1]), 0.0),
               np.linalg.inv(small)) <= 1e-12


@pytest.mark.parametrize("entry", ["schur_block_inverse", "q_g_functions"])
@pytest.mark.parametrize("defect", ["off-diagonal", "diagonal"])
def test_non_hermitian_input_is_rejected(entry, defect):
    # the solves read one triangle of each block, so without the check a
    # matrix that is not exactly Hermitian would silently be solved as
    # another one
    H = _near_diagonal(5)
    if defect == "off-diagonal":
        H[3, 1] += 1e-3
    else:
        H[2, 2] += 1e-3j
    call = {
        "schur_block_inverse":
            lambda: schur_block_inverse(H, ([0, 1], [2, 3, 4]), 5.0),
        "q_g_functions": lambda: q_g_functions(H, [0, 4], 5.0),
    }[entry]
    with pytest.raises(ValueError, match="exactly Hermitian"):
        call()


# --- element-based reference path: one trajectory set per (m, n) pair ---

def path_norm(points, lat, alpha0):
    """||gamma|| = sum |n_i - n_{i+1}|^alpha0 (0 for single-point trajectories)."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += float(lat.dist(a, b)) ** alpha0
    return total


def admissible_plain(points, profile, lat):
    """Plain class: min(D_i, D_j) <= T ||(n_i..n_j)||^{alpha0/5} for every i<j
    with min(D_i, D_j) >= 4T/kappa0."""
    M = profile.M
    k = len(points)
    for i in range(k):
        for j in range(i + 1, k):
            dmin = min(profile.D[points[i]], profile.D[points[j]])
            if dmin >= M:
                seg = path_norm(points[i:j + 1], lat, profile.alpha0)
                if not dmin <= profile.T * seg ** (profile.alpha0 / 5.0):
                    return False
    return True


def admissible_resonant(points, profile, lat):
    """R-class: the plain condition exempting adjacent pairs, plus the
    compensating four-way conditions when an adjacent pair is exempt."""
    M = profile.M
    T = profile.T
    a5 = profile.alpha0 / 5.0
    k = len(points)
    D = profile.D
    for i in range(k):
        for j in range(i + 2, k):
            dmin = min(D[points[i]], D[points[j]])
            if dmin >= M:
                seg = path_norm(points[i:j + 1], lat, profile.alpha0)
                if not dmin <= T * seg ** a5:
                    return False
    for i in range(k - 1):
        dmin = min(D[points[i]], D[points[i + 1]])
        if dmin < M:
            continue
        hop = float(lat.dist(points[i], points[i + 1])) ** profile.alpha0
        if dmin <= T * hop ** a5:
            continue
        # exempt adjacent resonant hop: compensating conditions
        for jp in range(i):
            if not min(D[points[jp]], D[points[i]]) <= \
                    T * path_norm(points[jp:i + 1], lat, profile.alpha0) ** a5:
                return False
            if not min(D[points[jp]], D[points[i + 1]]) <= \
                    T * path_norm(points[jp:i + 2], lat, profile.alpha0) ** a5:
                return False
        for jpp in range(i + 2, k):
            if not min(D[points[i]], D[points[jpp]]) <= \
                    T * path_norm(points[i:jpp + 1], lat, profile.alpha0) ** a5:
                return False
            if not min(D[points[i + 1]], D[points[jpp]]) <= \
                    T * path_norm(points[i + 1:jpp + 1], lat, profile.alpha0) ** a5:
                return False
    return True


def trajectory_majorant(points, profile, lat):
    """W_{D,kappa0}(gamma) = exp(-kappa0 ||gamma|| + sum D)."""
    total = math.fsum(profile.D[p] for p in points)
    return math.exp(-profile.kappa0 * path_norm(points, lat, profile.alpha0) + total)


def enumerate_trajectories(domain, m, n, k_max):
    """All point sequences m -> n of length <= k_max with consecutive distinct."""
    if len(domain) > 12:
        raise ValueError("enumeration capped at |Lambda| <= 12")
    out = []
    if m == n:
        out.append((m,))
    frontier = [(m,)]
    for _ in range(1, k_max):
        nxt = []
        for traj in frontier:
            for p in domain:
                if p == traj[-1]:
                    continue
                extended = traj + (p,)
                nxt.append(extended)
                if p == n:
                    out.append(extended)
        frontier = nxt
    return out


def geometric_tail(domain, profile, k_max, eps0, lat):
    w_max = 0.0
    for a in domain:
        for b in domain:
            if a != b:
                w_max = max(w_max, math.exp(
                    -profile.kappa0 * float(lat.dist(a, b)) ** profile.alpha0))
    d_max = max(profile.D[p] for p in domain)
    ratio = eps0 * max(1, len(domain) - 1) * w_max * math.exp(d_max)
    if ratio >= 1.0:
        return math.inf
    first = math.exp(d_max) * ratio ** k_max
    return first / (1.0 - ratio)


def weight_sum_bruteforce(domain, profile, m, n, cls, k_max, eps0, lat):
    """(sum, tail, count, rejected) for one pair m -> n."""
    admissible = admissible_plain if cls == "plain" else admissible_resonant
    total = 0.0
    count = 0
    rejected = 0
    for pts in enumerate_trajectories(domain, m, n, k_max):
        if not admissible(pts, profile, lat):
            rejected += 1
            continue
        count += 1
        total += eps0 ** (len(pts) - 1) * trajectory_majorant(pts, profile, lat)
    return total, geometric_tail(domain, profile, k_max, eps0, lat), count, rejected


def small_profile(lat, reps, D=None, T=8.0, kappa0=0.9):
    domain = [lat.canonicalize([r]) for r in reps]
    if D is None:
        D = {e: 1.0 for e in domain}
    else:
        D = {lat.canonicalize([r]): v for r, v in D.items()}
    return domain, WeightProfile(D=D, T=T, kappa0=kappa0, alpha0=1.0)


def test_weight_sum_length_one(lat):
    domain, prof = small_profile(lat, [0, 1, 2], D={0: 1.5, 1: 1.0, 2: 1.0})
    ws = weight_sums(domain, prof, "R", 1, 0.1, lat)
    assert ws.lower_bound[0, 0] == pytest.approx(math.exp(1.5))
    assert ws.lower_bound[0, 1] == 0.0


def test_weight_sum_matches_independent_enumeration(lat):
    # 4 points, uniform D=1, k_max=3: independent second path via products
    reps = [0, 1, 2, 3]
    domain, prof = small_profile(lat, reps)
    eps0 = 0.05
    ws = weight_sums(domain, prof, "R", 3, eps0, lat)
    # independent enumeration: length 2 and 3 sequences via product loops
    def w(a, b):
        return math.exp(-prof.kappa0 * abs(a - b))

    total = 0.0
    if 0 != 3:
        total += eps0 * w(0, 3) * math.exp(2.0)  # (0, 3)
    for mid in reps:
        if mid != 0 and mid != 3:
            total += eps0**2 * w(0, mid) * w(mid, 3) * math.exp(3.0)
    assert ws.lower_bound[0, 3] == pytest.approx(total, rel=1e-12)
    assert ws.tail_bound < math.inf


def test_trajectory_admissibility_filters(lat):
    # far-apart large-D interior points make some trajectories inadmissible
    reps = [0, 1000, 2000]
    domain, prof = small_profile(
        lat, reps, D={0: 200.0, 1000: 200.0, 2000: 200.0}, T=8.0, kappa0=0.9)
    res_plain = weight_sums(domain, prof, "plain", 3, 0.1, lat)
    res_r = weight_sums(domain, prof, "R", 3, 0.1, lat)
    # adjacent large-D hops are exempt only in the R class, so R admits more
    assert res_r.trajectory_count[0, 2] >= res_plain.trajectory_count[0, 2]
    assert res_plain.rejected_count[0, 2] > 0


def test_admissibility_at_equality_follows_python_pow(lat):
    # D = T |m - n|^(1/5) meets min(D_m, D_n) <= T ||gamma||^(alpha0/5) with
    # equality, so the hop (0, x) is admissible in the plain class. x is a
    # distance where np.power(x, 0.2) falls below x ** 0.2, if there is one,
    # so the verdict depends on which pow evaluates the condition
    xs = [x for x in range(1100, 3000)
          if np.power(float(x), 0.2) < float(x) ** 0.2]
    x = xs[0] if xs else 1113
    T, kappa0 = 8.0, 0.99
    d = T * float(x) ** 0.2         # above M = 4T/kappa0: the condition applies
    domain, prof = small_profile(lat, [0, x], D={0: d, x: d}, T=T,
                                 kappa0=kappa0)
    ws = weight_sums(domain, prof, "plain", 2, 0.1, lat)
    assert ws.trajectory_count[0, 1] == 1 and ws.rejected_count[0, 1] == 0
    _, _, count, rejected = weight_sum_bruteforce(
        domain, prof, domain[0], domain[1], "plain", 2, 0.1, lat)
    assert (count, rejected) == (1, 0)


def test_verify_weight_lemma_bound_and_hop_sums(lat):
    rng = np.random.default_rng(7)
    reps = sorted(rng.choice(np.arange(-20, 21), size=5, replace=False).tolist())
    domain = [lat.canonicalize([int(r)]) for r in reps]
    prof = WeightProfile(D={e: float(rng.uniform(1, 60)) for e in domain},
                         T=9.0, kappa0=0.8, alpha0=1.0)
    rep = verify_weight_lemma(domain, prof, lat, k_max=4)
    assert rep.passed
    assert rep.hop_sum_ok
    assert rep.checked > 0


def two_pass_verify_weight_lemma(domain, profile, lat, k_max=5):
    """Reference path: the lemma over every trajectory set, then a second
    enumeration of the same sets for the hop sums."""
    M = profile.M
    worst = math.inf
    checked = 0
    cor_viol = []
    kap_eff = profile.kappa0 * (1.0 - 2.0 ** (-9))
    for a in domain:
        for b in domain:
            for pts in enumerate_trajectories(domain, a, b, k_max):
                k = len(pts)
                gnorm = path_norm(pts, lat, profile.alpha0)
                if not admissible_resonant(pts, profile, lat):
                    continue
                checked += 1
                dbar = max(profile.D[p] for p in pts)
                log_bound = k * M**2 - kap_eff * gnorm + 2.0 * dbar
                log_W = -profile.kappa0 * gnorm + math.fsum(profile.D[p] for p in pts)
                worst = min(worst, log_bound - log_W)
                if dbar <= M**5:
                    if log_W > -profile.kappa0 * gnorm + k * M**5 + 1e-9:
                        cor_viol.append(("case-small-Dbar", pts))
                else:
                    if log_W > -(15.0 / 16.0) * profile.kappa0 * gnorm \
                            + 2.0 * dbar + k * M**2 + 1e-9:
                        cor_viol.append(("case-large-Dbar", pts))
    C = hop_sum_constant(lat, profile.kappa0 * (1 - 2.0 ** (-9)), profile.alpha0)
    hop_ok = True
    for a in domain:
        for b in domain:
            by_k = {}
            for pts in enumerate_trajectories(domain, a, b, k_max):
                k = len(pts)
                by_k[k] = by_k.get(k, 0.0) + math.exp(
                    -kap_eff * path_norm(pts, lat, profile.alpha0))
            for k, s in by_k.items():
                if k >= 2 and s >= C ** (k - 1):
                    hop_ok = False
    return WeightLemmaReport(
        passed=(worst >= -1e-9), checked=checked, worst_margin=worst,
        corollary_violations=tuple(cor_viol), hop_sum_constant=C, hop_sum_ok=hop_ok,
    )


@functools.lru_cache(maxsize=None)
def _lattice(omega):
    return QuotientLattice(FrequencyVector.parse(omega))


@st.composite
def weight_lemma_cases(draw):
    omega = draw(st.sampled_from([("1",), ("1/2", "1/2")]))
    lat = _lattice(omega)
    vecs = st.lists(st.integers(-30, 30), min_size=len(omega),
                    max_size=len(omega))
    domain = {lat.canonicalize(v) for v in draw(st.lists(vecs, min_size=1,
                                                          max_size=5))}
    domain = sorted(domain, key=lambda e: e.key())
    T = draw(st.floats(8.0, 12.0))
    kappa0 = draw(st.floats(0.5, 0.99))
    M = 4.0 * T / kappa0
    D = {e: draw(st.floats(1.0, 1.8 * M)) for e in domain}
    profile = WeightProfile(D=D, T=T, kappa0=kappa0,
                            alpha0=draw(st.sampled_from([1.0, 0.5])))
    return domain, profile, lat, draw(st.integers(1, 4))


@given(weight_lemma_cases())
def test_verify_weight_lemma_matches_two_pass_oracle(case):
    domain, profile, lat, k_max = case
    got = verify_weight_lemma(domain, profile, lat, k_max=k_max)
    want = two_pass_verify_weight_lemma(domain, profile, lat, k_max=k_max)
    for f in dataclasses.fields(WeightLemmaReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


@dataclasses.dataclass(frozen=True)
class _LowThreshold(WeightProfile):
    """A profile with M = 1: every point is resonant, and the corollary
    cases, which hold at the true M, fail on many trajectories."""

    @property
    def M(self) -> float:
        return 1.0


def test_verify_weight_lemma_lists_violations_in_oracle_order(lat):
    domain = [lat.canonicalize([r]) for r in (-7, 0, 3, 11)]
    D = dict(zip(domain, (5.0, 6.5, 4.0, 7.25)))
    profile = _LowThreshold(D=D, T=9.0, kappa0=0.8, alpha0=1.0)
    got = verify_weight_lemma(domain, profile, lat, k_max=4)
    want = two_pass_verify_weight_lemma(domain, profile, lat, k_max=4)
    assert len(want.corollary_violations) > 10
    assert got == want


@st.composite
def weight_sum_cases(draw):
    omega = draw(st.sampled_from([("1",), ("1/2", "1/2"), ("2/5", "3/7")]))
    lat = _lattice(omega)
    size = draw(st.integers(1, 6))
    vecs = st.lists(st.integers(-30, 30), min_size=len(omega),
                    max_size=len(omega))
    domain = {lat.canonicalize(v) for v in draw(st.lists(vecs, min_size=size,
                                                          max_size=size))}
    domain = sorted(domain, key=lambda e: e.key())
    T = draw(st.floats(8.0, 12.0))
    kappa0 = draw(st.floats(0.5, 0.99))
    M = 4.0 * T / kappa0
    # D below 4T lands on either side of T ||gamma||^(alpha0/5); D >= M
    # makes a point resonant
    D = {e: draw(st.floats(1.0, 4.0 * T) | st.floats(M, 1.8 * M))
         for e in domain}
    profile = WeightProfile(D=D, T=T, kappa0=kappa0,
                            alpha0=draw(st.sampled_from([1.0, 0.5])))
    return domain, profile, lat, draw(st.floats(1e-6, 0.5))


@pytest.mark.parametrize("cls", ["plain", "R"])
@pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5])
@settings(max_examples=25)
@given(case=weight_sum_cases())
def test_weight_sums_match_per_pair_oracle(case, k_max, cls):
    domain, profile, lat, eps0 = case
    ws = weight_sums(domain, profile, cls, k_max, eps0, lat)
    for i, a in enumerate(domain):
        for j, b in enumerate(domain):
            total, tail, count, rejected = weight_sum_bruteforce(
                domain, profile, a, b, cls, k_max, eps0, lat)
            assert ws.lower_bound[i, j] == total
            assert ws.tail_bound == tail
            assert ws.trajectory_count[i, j] == count
            assert ws.rejected_count[i, j] == rejected


def walk(start, hop, D, profile, cls, k_max):
    """Reference path: every trajectory from index ``start`` of length
    <= k_max (consecutive points distinct), walked tuple by tuple and
    bucketed by end point: walks[b] lists (indices, ||gamma||, admissible)
    by length, then lexicographically.

    Admissibility in class cls: min(D_i, D_j) <= T ||(n_i..n_j)||^{alpha0/5}
    for every i < j with min(D_i, D_j) >= M. The R class exempts an adjacent
    pair that fails it, provided both of its points meet that inequality,
    unguarded, against every other point of the trajectory. Segment norms
    are summed left to right from n_i; a trajectory extends an admissible
    prefix, so only the conditions that involve its last point are checked.
    """
    T, M, a5 = profile.T, profile.M, profile.alpha0 / 5.0

    def fits(i, j, norm):
        return min(D[i], D[j]) <= T * norm ** a5

    def guarded(i, j, norm):
        return min(D[i], D[j]) < M or fits(i, j, norm)

    walks = [[] for _ in hop]
    # (points, seg, admissible, exempt): seg[i] = ||(n_i..n_last)||, and
    # exempt holds the positions i of the exempt pairs (i, i+1)
    level = [((start,), (0.0,), True, ())]
    for length in range(1, k_max + 1):
        for pts, seg, ok, _ in level:
            walks[pts[-1]].append((pts, seg[0], ok))
        if length == k_max:
            break
        nxt = []
        for pts, seg, ok, exempt in level:
            last, q = pts[-1], len(pts)
            for p in range(len(hop)):
                if p == last:
                    continue
                h = hop[last][p]
                new = tuple(s + h for s in seg)
                fine, extended = ok, exempt
                if ok:
                    # p against every earlier point but the last, and against
                    # both points of each exempt pair
                    fine = all(guarded(pts[i], p, new[i])
                               for i in range(q - 1)) and all(
                        fits(pts[e], p, new[e]) and fits(pts[e + 1], p, new[e + 1])
                        for e in exempt)
                    if fine and not guarded(last, p, h):
                        # the new adjacent pair fails: only R exempts it
                        fine = cls == "R" and all(
                            fits(pts[j], last, seg[j]) and fits(pts[j], p, new[j])
                            for j in range(q - 1))
                        extended = exempt + (q - 1,)
                nxt.append((pts + (p,), new + (0.0,), fine, extended))
        level = nxt
    return walks


@settings(max_examples=60)
@given(case=weight_sum_cases(), k_max=st.integers(1, 5),
       cls=st.sampled_from(["plain", "R"]))
def test_walk_lists_each_pair_in_enumeration_order(case, k_max, cls):
    # the array enumeration, read per (start, end) pair in length then row
    # order, reproduces the tuple walk and each per-pair trajectory list in
    # order, so corollary_violations keeps its (m, n, enumeration) order
    domain, profile, lat, _ = case
    hop = _hop_table(domain, lat, profile.alpha0)
    D = [profile.D[e] for e in domain]
    levels = _trajectories(hop, D, profile, cls, k_max)
    for a, m in enumerate(domain):
        walks = walk(a, hop.tolist(), D, profile, cls, k_max)
        for b, n in enumerate(domain):
            got = [(tuple(int(i) for i in tr.rows[r]), tr.gnorm[r],
                    tr.admissible[r], tr.dsum[r])
                   for tr in levels
                   for r in np.flatnonzero((tr.rows[:, 0] == a)
                                           & (tr.rows[:, -1] == b))]
            assert [g[:3] for g in got] == walks[b]
            points = [tuple(domain[i] for i in pts) for pts, _, _, _ in got]
            assert points == enumerate_trajectories(domain, m, n, k_max)
            for pts, (_, gnorm, ok, dsum) in zip(points, got):
                assert gnorm == path_norm(pts, lat, profile.alpha0)
                admissible = admissible_plain if cls == "plain" \
                    else admissible_resonant
                assert ok == admissible(pts, profile, lat)
                assert dsum == math.fsum(profile.D[p] for p in pts)


def test_weight_sum_upper_bounds(lat):
    domain, prof = small_profile(lat, [-2, -1, 0, 1, 2],
                                 D={r: 2.0 for r in [-2, -1, 0, 1, 2]},
                                 T=8.0, kappa0=0.9)
    rep = weight_sum_upper_bound_audit(domain, prof, eps0=1e-120, lat=lat,
                                       k_max=5)
    assert rep.passed and rep.worst_ratio <= 1.0 + 1e-9


def test_mu_of_set(lat):
    domain = [lat.canonicalize([r]) for r in range(-3, 4)]
    assert mu_of_set(domain, lat.canonicalize([0]), lat) == 4
    assert mu_of_set(domain, lat.canonicalize([3]), lat) == 1


def test_path_norm_and_weights(lat):
    pts = [lat.canonicalize([r]) for r in (0, 2, 5)]
    prof = WeightProfile(D={p: 1.0 for p in pts}, T=8.0, kappa0=0.9,
                         alpha0=1.0)
    ws = weight_sums(pts, prof, "plain", 3, 1.0, lat)
    # 0 -> 5 directly and through 2: ||gamma|| = 5 both ways
    assert ws.lower_bound[0, 2] == pytest.approx(
        math.exp(-0.9 * 5) * (math.exp(2.0) + math.exp(3.0)))
    # single-point trajectories have ||gamma|| = 0
    assert weight_sums(pts, prof, "plain", 1, 1.0, lat).lower_bound[1, 1] \
        == math.exp(1.0)


def test_enumerate_trajectories_counts(lat):
    domain = [lat.canonicalize([r]) for r in (0, 1, 2)]
    prof = WeightProfile(D={p: 1.0 for p in domain}, T=8.0, kappa0=0.9,
                         alpha0=1.0)
    ws = weight_sums(domain, prof, "R", 3, 0.1, lat)
    # 0 -> 1: (0,1) and (0,2,1); 0 -> 0: (0,), (0,1,0) and (0,2,0)
    assert ws.trajectory_count[0, 1] == 2
    assert ws.trajectory_count[0, 0] == 3
    assert not ws.rejected_count.any()
    big = [lat.canonicalize([r]) for r in range(13)]
    with pytest.raises(ValueError):
        weight_sums(big, WeightProfile(D={p: 1.0 for p in big}, T=8.0,
                                       kappa0=0.9, alpha0=1.0),
                    "R", 2, 0.1, lat)
