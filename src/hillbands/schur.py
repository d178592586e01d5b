"""Schur-complement resolvent engine, Q/G functions, trajectory weights.

The weight bookkeeping follows the combinatorial definitions exactly: a
trajectory is a sequence of points of Lambda with consecutive points distinct,
path size ||gamma|| = sum |n_i - n_{i+1}|^alpha0 and weight
W_{D,kappa0}(gamma) = exp(-kappa0 ||gamma|| + sum D), which equals w_D(gamma)
for the canonical hop weight w(m,n) = exp(-kappa0 |m-n|^alpha0). Weight sums
carry eps0^{k-1} per trajectory of length k; brute-force enumeration is capped
at 12 points, and the discarded lengths get an explicit geometric tail bound.

The enumeration is one int array of index rows per length, and admissibility
is a boolean mask over the rows. Its sums and margins equal, bit for bit, a
walk over index tuples in Python floats (kept as the oracle in
tests/test_schur.py), because the numpy-side arithmetic is IEEE-exact and in
the same order, and the rest goes through Python:

- exp and x ** a are evaluated by ``math.exp`` and float ``**`` (libm), once
  per distinct value. numpy's own kernels are not libm's: on an x86-64 host
  with numpy 2.4, np.exp differs from math.exp (by 1 ulp) on 45,981 of 1e6
  uniform inputs in [-50, 50], and np.power(x, 0.2) from x ** 0.2 on 48,562
  of 1e6 in [0, 100].
- sum D over a trajectory is one ``math.fsum`` per multiset of points, which
  is correctly rounded and so independent of the point order.
- the sum over the trajectories of a pair (m, n) adds the terms one at a time
  in enumeration order (``np.cumsum``); np.sum adds pairwise, and on rows of
  100 uniform terms it differs from the sequential sum on 747 of 1000 rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lapack import flapack
from .errors import HypothesisFailed, SingularBlock
from .lattice import GroupElement, QuotientLattice

# Q real and G_pq = conj(G_qp), relative to max(1, |value|): both hold
# exactly for a Hermitian H
HERMITIAN_TOL = 1e-12
# hop_sum_constant sums the ball of this radius exactly and bounds the shells
# beyond it
HOP_SUM_RADIUS = 40
# the ball growth constant C of the eps0 smallness condition
# (epscond_threshold)
BALL_GROWTH = 3.0

# --- dense linear algebra with singularity reporting ---

def _require_hermitian(H: np.ndarray) -> None:
    """ValueError unless H == H^H exactly: the solves read one triangle."""
    if not np.array_equal(H, H.conj().T):
        raise ValueError("H must be exactly Hermitian (H == H^H)")


def _hermitian_solve(A: np.ndarray, B: np.ndarray, label: str) -> np.ndarray:
    """X with A X = B for a Hermitian A, by LAPACK zhesv (Bunch-Kaufman);
    zhesv reads only the upper triangle of A, and overwrites A with its
    factor when A is Fortran-ordered: the callers pass blocks of their own.

    The one singularity rule: SingularBlock(label) when zhesv meets an
    exactly singular factor, or when zhecon's estimate of
    1/||A^-1||_1 = rcond ||A||_1 is at most 1e-13 max(1, ||A||_1), the 1-norm
    form of sigma_min <= 1e-13 max(1, sigma_max).
    """
    a_norm = float(np.linalg.norm(A, 1))
    lwork = int(flapack.zhesv_lwork(len(A))[0].real)
    factor, ipiv, X, info = flapack.zhesv(A, B, lwork=lwork, overwrite_a=1)
    if info > 0:
        raise SingularBlock(label, 0.0, "1")
    if info < 0:
        raise np.linalg.LinAlgError(f"zhesv info {info}")
    rcond, info = flapack.zhecon(factor, ipiv, a_norm)
    if info != 0:
        raise np.linalg.LinAlgError(f"zhecon info {info}")
    if rcond * a_norm <= 1e-13 * max(1.0, a_norm):
        raise SingularBlock(label, rcond * a_norm, "1")
    return X


def schur_block_inverse(H: np.ndarray, split: tuple[Sequence[int], Sequence[int]],
                        E: float) -> np.ndarray:
    """(E - H)^{-1} assembled from the four Schur blocks.

    split = (indices of block 1, indices of block 2); H exactly Hermitian.
    Raises SingularBlock when (E - H)_11 or the reduced block H2~ is
    numerically singular (the rule of _hermitian_solve).
    """
    _require_hermitian(H)
    n = H.shape[0]
    idx1 = np.asarray(split[0], dtype=int)
    idx2 = np.asarray(split[1], dtype=int)
    if sorted(list(idx1) + list(idx2)) != list(range(n)):
        raise ValueError("split must partition the index range")
    M = E * np.eye(n, dtype=np.complex128) - H
    H1 = M[np.ix_(idx1, idx1)]
    H2 = M[np.ix_(idx2, idx2)]
    G12 = M[np.ix_(idx1, idx2)]
    G21 = M[np.ix_(idx2, idx1)]
    H1_inv = _hermitian_solve(H1, np.eye(len(idx1)), "H1 = (E-H)_11")
    H2_tilde = H2 - G21 @ H1_inv @ G12
    H2t_inv = _hermitian_solve(H2_tilde, np.eye(len(idx2)),
                               "H2~ = H2 - G21 H1^-1 G12")
    out = np.zeros_like(M)
    top_left = H1_inv + H1_inv @ G12 @ H2t_inv @ G21 @ H1_inv
    out[np.ix_(idx1, idx1)] = top_left
    out[np.ix_(idx1, idx2)] = -H1_inv @ G12 @ H2t_inv
    out[np.ix_(idx2, idx1)] = -H2t_inv @ G21 @ H1_inv
    out[np.ix_(idx2, idx2)] = H2t_inv
    return out


@dataclass(frozen=True)
class QGResult:
    """Q values and G couplings of a pair of principal points."""

    Q: dict                             # principal index -> Q value (real for real data)
    G: dict                             # (p, q) and (q, p) -> G value


def q_g_functions(H: np.ndarray, principal: Sequence[int], E: float) -> QGResult:
    """Q and G relative to a pair of principal points, from one Hermitian
    solve (E - H_punctured) X = h(., principal); no inverse is formed.

    Q(p) = h(p,.) X(., p); G(p,q) = h(p,q) + h(p,.) X(., q). ValueError
    unless principal is two distinct indices. H exactly Hermitian;
    SingularBlock by the rule of _hermitian_solve. Self-adjointness (Q real,
    G_{pq} = conj(G_{qp})) verified for real inputs.
    """
    _require_hermitian(H)
    principal = tuple(int(p) for p in principal)
    if len(principal) != 2 or principal[0] == principal[1]:
        raise ValueError(f"principal {principal} is not two distinct indices")
    rows = [i for i in range(H.shape[0]) if i not in principal]
    if not rows:
        raise ValueError("puncturing removed the whole domain")
    # E - H_punctured, gathered column by column in the Fortran order in
    # which zhesv factors it in place, so that the block is held once
    n = len(rows)
    A = np.empty((n, n), dtype=np.complex128, order="F")
    for j, col in enumerate(rows):
        np.negative(H[rows, col], out=A[:, j])
        A[j, j] += E
    X = _hermitian_solve(A, H[np.ix_(rows, principal)],
                         "punctured block (E - H_punctured)")
    column = dict(zip(principal, X.T))
    Q: dict = {}
    for p in principal:
        q_val = complex(H[p, rows] @ column[p])
        if abs(q_val.imag) > HERMITIAN_TOL * max(1.0, abs(q_val)):
            raise HypothesisFailed("Q self-adjointness",
                                   f"Im Q = {q_val.imag:.3e}")
        Q[p] = q_val.real
    p, q = principal
    G = {(a, b): complex(H[a, b] + H[a, rows] @ column[b])
         for a, b in ((p, q), (q, p))}
    mismatch = abs(G[(p, q)] - np.conj(G[(q, p)]))
    if mismatch > HERMITIAN_TOL * max(1.0, abs(G[(p, q)])):
        raise HypothesisFailed("G conjugate symmetry",
                               f"|G_pq - conj(G_qp)| = {mismatch:.3e}")
    return QGResult(Q=Q, G=G)


# --- trajectory weights ---

@dataclass(frozen=True)
class WeightProfile:
    """D profile with threshold T and decay parameters; M = 4T/kappa0."""

    D: dict
    T: float
    kappa0: float
    alpha0: float

    def __post_init__(self):
        if self.T < 8.0:
            raise ValueError("T must be >= 8")
        if not (0 < self.kappa0 < 1):
            raise ValueError("kappa0 must lie in (0,1) for the weight scheme")
        for m, d in self.D.items():
            if d < 1.0:
                raise ValueError(f"D({m}) = {d} < 1")

    @property
    def M(self) -> float:
        return 4.0 * self.T / self.kappa0


def _hop_table(domain: Sequence[GroupElement], lat: QuotientLattice,
               alpha0: float) -> np.ndarray:
    """hop[i, j] = |n_i - n_j|^alpha0 over the domain order."""
    if len(domain) > 12:
        raise ValueError("enumeration capped at |Lambda| <= 12")
    return np.array([[float(lat.dist(a, b)) ** alpha0 for b in domain]
                     for a in domain])


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (a Python float function) at every entry of x, called once per
    distinct value; see the module docstring for why not the numpy ufunc."""
    values, inverse = np.unique(x, return_inverse=True)
    out = np.fromiter(map(fn, values.tolist()), dtype=float, count=len(values))
    return out[inverse].reshape(x.shape)


@functools.lru_cache(maxsize=32)
def _index_rows(n: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every index sequence over 0..n-1 of the given length with consecutive
    entries distinct, in lexicographic order: (rows, bag, bags).

    Row r extends row r // (n-1) of length - 1. bags holds each distinct
    multiset of indices once, as a sorted row, and bag[r] is the multiset
    of row r. The arrays are shared between calls and read-only.
    """
    if length == 1:
        rows = np.arange(n).reshape(n, 1)
    else:
        prev = _index_rows(n, length - 1)[0]
        step = np.tile(np.arange(n - 1), len(prev))
        last = np.repeat(prev[:, -1], n - 1)
        rows = np.column_stack([np.repeat(prev, n - 1, axis=0),
                                step + (step >= last)])
    ordered = np.sort(rows, axis=1)
    code = ordered @ n ** np.arange(length)
    _, first, bag = np.unique(code, return_index=True, return_inverse=True)
    out = (rows, bag.reshape(-1), ordered[first])
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Trajectories:
    """Every trajectory of one length over a domain, in lexicographic order."""

    rows: np.ndarray        # (count, length) domain indices
    gnorm: np.ndarray       # ||gamma||, summed left to right
    dsum: np.ndarray        # math.fsum of D over the points
    admissible: np.ndarray  # bool, in the weight class asked for


def _trajectories(hop: np.ndarray, D: Sequence[float], profile: WeightProfile,
                  cls: str, k_max: int) -> list[_Trajectories]:
    """Every trajectory of length 1..k_max over the domain (consecutive
    points distinct), one entry per length.

    Admissibility in class cls: min(D_i, D_j) <= T ||(n_i..n_j)||^{alpha0/5}
    for every i < j with min(D_i, D_j) >= M. The R class exempts an adjacent
    pair that fails it, provided both of its points meet that inequality,
    unguarded, against every other point of the trajectory. A row extends
    its prefix of one point less, inherits the prefix's verdict, and adds
    only the conditions that involve its last point. Segment norms
    ||(n_i..n_last)|| are summed left to right from n_i.
    """
    n = len(D)
    T, M, a5 = profile.T, profile.M, profile.alpha0 / 5.0
    Dv = np.asarray(D, dtype=float)
    out = []
    for length in range(1, k_max + 1):
        rows, bag, bags = _index_rows(n, length)
        dsum = np.array([math.fsum(D[i] for i in b) for b in bags.tolist()])[bag]
        if length == 1:
            seg = np.zeros((n, 1))
            ok = np.ones(n, dtype=bool)
            fit = np.zeros((n, 0), dtype=bool)
            exempt = np.zeros((n, 0), dtype=bool)
        else:
            parent = np.arange(len(rows)) // (n - 1)
            j = length - 1                  # the new point's position
            h = hop[rows[:, j - 1], rows[:, j]]
            seg = np.column_stack([seg[parent] + h[:, None], np.zeros(len(rows))])
            # fits and guarded of the new point against each earlier one
            dmin = np.minimum(Dv[rows[:, :j]], Dv[rows[:, j:]])
            fit_new = dmin <= T * _libm(lambda x: x ** a5, seg[:, :j])
            guard = (dmin < M) | fit_new
            exempt = exempt[parent]
            # every earlier point but the last, and both points of each
            # exempt pair (e, e+1)
            fine = guard[:, :j - 1].all(axis=1) & ~(
                exempt & ~(fit_new[:, :j - 1] & fit_new[:, 1:])).any(axis=1)
            adjacent = guard[:, j - 1]
            if cls == "R":
                # a failing new adjacent pair is exempt when both of its
                # points fit against every earlier point
                adjacent = adjacent | (fit[parent] & fit_new[:, :j - 1]).all(axis=1)
            ok = ok[parent] & fine & adjacent
            fit = fit_new
            exempt = np.column_stack([exempt, ~guard[:, j - 1]])
        out.append(_Trajectories(rows=rows, gnorm=seg[:, 0], dsum=dsum,
                                 admissible=ok))
    return out


def _bucket_sums(keys: np.ndarray, terms: np.ndarray,
                 buckets: int) -> np.ndarray:
    """For each bucket b, ((0 + t_1) + t_2) + ... over the terms with key b,
    in the order given: the running sums of np.cumsum, not np.sum's pairwise
    reduction."""
    order = np.argsort(keys, kind="stable")
    keys, terms = keys[order], terms[order]
    counts = np.bincount(keys, minlength=buckets)
    start = np.cumsum(counts) - counts
    table = np.zeros((buckets, max(1, int(counts.max(initial=0)))))
    table[keys, np.arange(len(keys)) - start[keys]] = terms
    return np.cumsum(table, axis=1)[:, -1]


@dataclass(frozen=True)
class WeightSums:
    """Weight sums s(m, n) over every pair of a domain, in the domain order."""

    lower_bound: np.ndarray       # enumerated finite sums (lower bounds of the series)
    tail_bound: float             # geometric majorant of the discarded lengths
    trajectory_count: np.ndarray  # admissible trajectories per pair
    rejected_count: np.ndarray    # inadmissible ones per pair

    @property
    def upper_bound(self) -> np.ndarray:
        return self.lower_bound + self.tail_bound


def weight_sums(domain: Sequence[GroupElement], profile: WeightProfile,
                cls: str, k_max: int, eps0: float,
                lat: QuotientLattice) -> WeightSums:
    """s_{D,T,kappa0,eps0; Lambda}(m,n) for every pair: the sum of
    eps0^{k-1} W_{D,kappa0}(gamma) over admissible trajectories m -> n of
    length <= k_max, plus one geometric tail bound for k > k_max.

    cls is "plain" or "R". One enumeration of the domain's trajectories
    covers every pair.
    """
    hop = _hop_table(domain, lat, profile.alpha0)
    D = [profile.D[e] for e in domain]
    n = len(domain)
    keys, terms = [], []
    count = np.zeros(n * n, dtype=int)
    rejected = np.zeros(n * n, dtype=int)
    for length, tr in enumerate(_trajectories(hop, D, profile, cls, k_max), 1):
        key = tr.rows[:, 0] * n + tr.rows[:, -1]     # the pair (start, end)
        ok = tr.admissible
        count += np.bincount(key[ok], minlength=n * n)
        rejected += np.bincount(key[~ok], minlength=n * n)
        keys.append(key[ok])
        terms.append(eps0 ** (length - 1) * _libm(
            math.exp, -profile.kappa0 * tr.gnorm[ok] + tr.dsum[ok]))
    total = _bucket_sums(np.concatenate(keys), np.concatenate(terms), n * n)
    w_max = max((math.exp(-profile.kappa0 * float(hop[a, b]))
                 for a in range(n) for b in range(n) if a != b), default=0.0)
    d_max = max(D)
    ratio = eps0 * max(1, n - 1) * w_max * math.exp(d_max)
    tail = math.inf if ratio >= 1.0 else \
        math.exp(d_max) * ratio ** k_max / (1.0 - ratio)
    return WeightSums(lower_bound=total.reshape(n, n), tail_bound=tail,
                      trajectory_count=count.reshape(n, n),
                      rejected_count=rejected.reshape(n, n))


@dataclass(frozen=True)
class WeightLemmaReport:
    passed: bool
    checked: int
    worst_margin: float            # min over trajectories of bound/weight
    corollary_violations: tuple    # audited (reported), not fatal
    hop_sum_constant: float        # measured C with sum_gamma e^{-kappa||gamma||} < C^{k-1}
    hop_sum_ok: bool


def verify_weight_lemma(domain: Sequence[GroupElement], profile: WeightProfile,
                        lat: QuotientLattice, k_max: int) -> WeightLemmaReport:
    """Check W_{D,kappa0}(gamma) <= exp(k M^2 - kappa0 (1 - 2^-9) ||gamma|| + 2 Dbar)
    for every admissible R-class trajectory; audit the corollary cases and the
    hop-sum growth constant."""
    M = profile.M
    kap_eff = profile.kappa0 * (1.0 - 2.0 ** (-9))
    # hop-sum constant: sum over length-k trajectories of e^{-kappa ||gamma||}
    # between fixed endpoints should stay < C^{k-1}
    C = hop_sum_constant(lat, kap_eff, profile.alpha0)
    hop_ok = True
    hop = _hop_table(domain, lat, profile.alpha0)
    D = [profile.D[e] for e in domain]
    Dv = np.asarray(D)
    n = len(domain)
    worst = math.inf
    checked = 0
    found = []      # (pair key, length, row, case) of each corollary violation
    levels = _trajectories(hop, D, profile, "R", k_max)
    for k, tr in enumerate(levels, 1):
        key = tr.rows[:, 0] * n + tr.rows[:, -1]
        if k >= 2:
            by_pair = _bucket_sums(key, _libm(math.exp, -kap_eff * tr.gnorm),
                                   n * n)
            hop_ok = hop_ok and not np.any(by_pair >= C ** (k - 1))
        ok = np.flatnonzero(tr.admissible)
        if not len(ok):
            continue
        checked += len(ok)
        gnorm, dsum = tr.gnorm[ok], tr.dsum[ok]
        dbar = Dv[tr.rows[ok]].max(axis=1)
        log_bound = k * M**2 - kap_eff * gnorm + 2.0 * dbar
        log_W = -profile.kappa0 * gnorm + dsum
        worst = min(worst, float(np.min(log_bound - log_W)))
        # corollary cases (audited):
        small = dbar <= M**5
        viol_small = small & (log_W > -profile.kappa0 * gnorm + k * M**5 + 1e-9)
        viol_large = ~small & (log_W > -(15.0 / 16.0) * profile.kappa0 * gnorm
                               + 2.0 * dbar + k * M**2 + 1e-9)
        for case, viol in (("case-small-Dbar", viol_small),
                           ("case-large-Dbar", viol_large)):
            found.extend((int(key[r]), k, int(r), case) for r in ok[viol])
    # in the order of the per-pair enumeration: (m, n), length, lexicographic
    cor_viol = [(case, tuple(domain[i] for i in levels[k - 1].rows[r]))
                for _, k, r, case in sorted(found)]
    return WeightLemmaReport(
        passed=(worst >= -1e-9), checked=checked, worst_margin=worst,
        corollary_violations=tuple(cor_viol), hop_sum_constant=C, hop_sum_ok=hop_ok,
    )


def hop_sum_constant(lat: QuotientLattice, kappa: float, alpha0: float) -> float:
    """C(nu, alpha0, kappa) = sum over the group of exp(-kappa |n|^alpha0),
    computed over a ball with an explicit geometric remainder."""
    total = 0.0
    for e in lat.ball(HOP_SUM_RADIUS):
        total += math.exp(-kappa * float(e.norm) ** alpha0)
    # remainder: shells r > HOP_SUM_RADIUS have <= C_growth ((r+1)^nu - r^nu + ...) points;
    # crude but safe: count <= 3^nu r^(nu-1) * 2nu per shell for the box lattice
    rem = 0.0
    r = HOP_SUM_RADIUS + 1
    while True:
        term = (2 * r + 1) ** lat.nu * math.exp(-kappa * r**alpha0)
        rem += term
        if term < 1e-18 or r > HOP_SUM_RADIUS + 2000:
            break
        r += 1
    return total + rem


def epscond_threshold(lat: QuotientLattice, profile: WeightProfile) -> float:
    """The smallness threshold for eps0: min(e^{-B}/(2 C_hop), 2^-8 C^-4 (T/kappa)^{-8 nu/alpha0})
    with B = 8 T / kappa0 and C = BALL_GROWTH."""
    C_hop = hop_sum_constant(lat, profile.kappa0 * (1 - 2.0 ** (-9)), profile.alpha0)
    B = 8.0 * profile.T / profile.kappa0
    t1 = math.exp(-B) / (2.0 * C_hop) if B < 700 else 0.0
    t2 = 2.0 ** (-8) * BALL_GROWTH ** (-4) * \
        (profile.T / profile.kappa0) ** (-8.0 * lat.nu / profile.alpha0)
    return min(t1, t2)


def mu_of_set(elements, m: GroupElement, lat: QuotientLattice) -> int:
    """dist(m, complement of the set) in the quotient metric."""
    members = set(elements)
    if m not in members:
        return 0
    r = 1
    while True:
        for d in lat.ball(r):
            if d.norm < r:
                continue
            if lat.add(m, d) not in members:
                return r
        r += 1


@dataclass(frozen=True)
class WeightSumBoundReport:
    passed: bool
    eps0: float
    eps0_threshold: float
    worst_pair: tuple | None
    worst_ratio: float  # max over pairs of (finite sum + tail) / bound


def weight_sum_upper_bound_audit(domain: Sequence[GroupElement],
                                 profile: WeightProfile, eps0: float,
                                 lat: QuotientLattice,
                                 k_max: int) -> WeightSumBoundReport:
    """Audit the closed-form weight-sum upper bounds against brute force:

    S(m,n) <= min[ 3 eps0^(1/2) exp(-(7/8) kappa0 |m-n|^alpha0 + 2T (min mu)^(1/5)),
                   2 eps0^(1/2) exp(-(1/4) kappa0 |m-n|^alpha0 + 2 Dbar) ]  (m != n)
    S(m,m) <= min[ exp(D(m)) + 3 eps0^(1/2) exp(2T mu(m)^(1/5)), 2 exp(2 Dbar) ]

    valid under the eps0 smallness condition (ball growth constant 3), which
    is evaluated and reported.
    """
    threshold = epscond_threshold(lat, profile)
    dbar = max(profile.D[p] for p in domain)
    mu = {a: mu_of_set(domain, a, lat) for a in domain}
    total = weight_sums(domain, profile, "R", k_max, eps0, lat).upper_bound
    worst_ratio = 0.0
    worst_pair = None
    for i, a in enumerate(domain):
        for j, b in enumerate(domain):
            mu_a, mu_b = mu[a], mu[b]
            if a == b:
                bound = min(
                    math.exp(profile.D[a]) + 3.0 * eps0**0.5
                    * math.exp(2.0 * profile.T * mu_a ** 0.2),
                    2.0 * math.exp(2.0 * dbar),
                )
            else:
                dist = float(lat.dist(a, b)) ** profile.alpha0
                bound = min(
                    3.0 * eps0**0.5 * math.exp(
                        -(7.0 / 8.0) * profile.kappa0 * dist
                        + 2.0 * profile.T * min(mu_a, mu_b) ** 0.2),
                    2.0 * eps0**0.5 * math.exp(
                        -(1.0 / 4.0) * profile.kappa0 * dist + 2.0 * dbar),
                )
            ratio = float(total[i, j]) / bound if bound > 0 else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_pair = (a, b)
    return WeightSumBoundReport(
        passed=(worst_ratio <= 1.0 + 1e-9) and eps0 <= threshold,
        eps0=eps0, eps0_threshold=threshold,
        worst_pair=worst_pair, worst_ratio=worst_ratio,
    )
