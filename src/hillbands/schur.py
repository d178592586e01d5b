"""Schur-complement resolvent engine, Q/G/K/F functions, trajectory weights.

The weight bookkeeping follows the combinatorial definitions exactly: a
trajectory is a sequence of points of Lambda with consecutive points distinct,
path size ||gamma|| = sum |n_i - n_{i+1}|^alpha0, plain weight
w_D(gamma) = prod w(n_j, n_{j+1}) * exp(sum D(n_j)) and the majorant
W_{D,kappa0}(gamma) = exp(-kappa0 ||gamma|| + sum D). Weight sums carry
eps0^{k-1} per trajectory of length k; brute-force enumeration is capped and
the discarded lengths get an explicit geometric tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import HypothesisFailed, SingularBlock
from .lattice import GroupElement, QuotientLattice


# --- dense linear algebra with singularity reporting ---

def _checked_inverse(A: np.ndarray, label: str, rcond: float = 1e-13) -> np.ndarray:
    """inv(A), or SingularBlock when sigma_min <= rcond * max(1, sigma_max);
    both singular values come from one SVD."""
    sigma = np.linalg.svd(A, compute_uv=False)
    s_min = float(sigma[-1])
    scale = max(1.0, float(sigma[0]))
    if s_min <= rcond * scale:
        raise SingularBlock(label, s_min)
    return np.linalg.inv(A)


def schur_block_inverse(H: np.ndarray, split: tuple[Sequence[int], Sequence[int]],
                        E: float, audit: bool | None = None,
                        audit_tol: float = 1e-9) -> np.ndarray:
    """(E - H)^{-1} assembled from the four Schur blocks.

    split = (indices of block 1, indices of block 2). Raises SingularBlock when
    (E - H)_11 or the reduced block H2~ is numerically singular. For |Lambda|
    <= 64 (or audit=True) the result is checked against direct dense inversion.
    """
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
    H1_inv = _checked_inverse(H1, "H1 = (E-H)_11")
    H2_tilde = H2 - G21 @ H1_inv @ G12
    H2t_inv = _checked_inverse(H2_tilde, "H2~ = H2 - G21 H1^-1 G12")
    out = np.zeros_like(M)
    top_left = H1_inv + H1_inv @ G12 @ H2t_inv @ G21 @ H1_inv
    out[np.ix_(idx1, idx1)] = top_left
    out[np.ix_(idx1, idx2)] = -H1_inv @ G12 @ H2t_inv
    out[np.ix_(idx2, idx1)] = -H2t_inv @ G21 @ H1_inv
    out[np.ix_(idx2, idx2)] = H2t_inv
    if audit is None:
        audit = n <= 64
    if audit:
        direct = np.linalg.inv(M)
        rel = np.linalg.norm(out - direct) / max(np.linalg.norm(direct), 1e-300)
        if rel > audit_tol:
            raise SingularBlock(f"schur-vs-direct relative error {rel:.3e}", rel)
    return out


@dataclass(frozen=True)
class QGResult:
    """Q values, G couplings, punctured resolvent K and the F vector."""

    principal: tuple[int, ...]          # indices into the domain ordering
    others: tuple[int, ...]
    K: np.ndarray                       # resolvent of the punctured block
    Q: dict                             # principal index -> Q value (real for real data)
    G: dict                             # (i, j) principal pairs -> G value
    F: np.ndarray | None                # F(m0, n) over others (single principal only)


def q_g_functions(H: np.ndarray, principal: Sequence[int], E: float,
                  herm_tol: float = 1e-12) -> QGResult:
    """Q, G, K, F relative to one or two principal points.

    K = (E - H_punctured)^{-1}; Q(p) = sum h(p,.) K h(.,p);
    G(p,q) = h(p,q) + sum h(p,.) K h(.,q); F(p,n) = sum_m K(n,m) h(m,p).
    Self-adjointness (Q real, G_{pq} = conj(G_{qp})) verified for real inputs.
    """
    n = H.shape[0]
    principal = tuple(int(p) for p in principal)
    others = tuple(i for i in range(n) if i not in principal)
    if not others:
        raise ValueError("puncturing removed the whole domain")
    Hp = H[np.ix_(others, others)]
    M = E * np.eye(len(others), dtype=np.complex128) - Hp
    K = _checked_inverse(M, "punctured block (E - H_punctured)")
    Q: dict = {}
    G: dict = {}
    for p in principal:
        row = H[p, list(others)]
        col = H[list(others), p]
        q_val = complex(row @ K @ col)
        if abs(q_val.imag) > herm_tol * max(1.0, abs(q_val)):
            raise HypothesisFailed("Q self-adjointness",
                                   f"Im Q = {q_val.imag:.3e}")
        Q[p] = q_val.real
    for p in principal:
        for q in principal:
            if p == q:
                continue
            row = H[p, list(others)]
            col = H[list(others), q]
            G[(p, q)] = complex(H[p, q] + row @ K @ col)
    if len(principal) == 2:
        p, q = principal
        mismatch = abs(G[(p, q)] - np.conj(G[(q, p)]))
        scale = max(1.0, abs(G[(p, q)]))
        if mismatch > herm_tol * scale:
            raise HypothesisFailed("G conjugate symmetry",
                                   f"|G_pq - conj(G_qp)| = {mismatch:.3e}")
    F = None
    if len(principal) == 1:
        p = principal[0]
        F = K @ H[list(others), p]
    return QGResult(principal=principal, others=others, K=K, Q=Q, G=G, F=F)


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


def path_norm(points: Sequence[GroupElement], lat: QuotientLattice,
              alpha0: float) -> float:
    """||gamma|| = sum |n_i - n_{i+1}|^alpha0 (0 for single-point trajectories)."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += float(lat.dist(a, b)) ** alpha0
    return total


def admissible_plain(points: Sequence[GroupElement], profile: WeightProfile,
                     lat: QuotientLattice) -> bool:
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


def admissible_resonant(points: Sequence[GroupElement], profile: WeightProfile,
                        lat: QuotientLattice) -> bool:
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


def default_hop_weight(profile: WeightProfile, lat: QuotientLattice):
    """w(m,n) = exp(-kappa0 |m-n|^alpha0), the canonical bound-saturating weight."""

    def w(a: GroupElement, b: GroupElement) -> float:
        return math.exp(-profile.kappa0 * float(lat.dist(a, b)) ** profile.alpha0)

    return w


def trajectory_weight(points, profile: WeightProfile, lat: QuotientLattice,
                      w: Callable | None = None) -> float:
    """w_D(gamma) = [prod hop weights] * exp(sum D)."""
    if w is None:
        w = default_hop_weight(profile, lat)
    total = math.fsum(profile.D[p] for p in points)
    prod = 1.0
    for a, b in zip(points, points[1:]):
        prod *= w(a, b)
    return prod * math.exp(total)


def trajectory_majorant(points, profile: WeightProfile, lat: QuotientLattice) -> float:
    """W_{D,kappa0}(gamma) = exp(-kappa0 ||gamma|| + sum D)."""
    total = math.fsum(profile.D[p] for p in points)
    return math.exp(-profile.kappa0 * path_norm(points, lat, profile.alpha0) + total)


def enumerate_trajectories(domain: Sequence[GroupElement], m: GroupElement,
                           n: GroupElement, k_max: int):
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


@dataclass(frozen=True)
class WeightSumResult:
    lower_bound: float     # enumerated finite sum (a lower bound of the series)
    tail_bound: float      # geometric majorant of the discarded lengths
    trajectory_count: int
    rejected_count: int


def weight_sum_bruteforce(domain: Sequence[GroupElement], profile: WeightProfile,
                          m: GroupElement, n: GroupElement, cls: str,
                          k_max: int, eps0: float, lat: QuotientLattice,
                          w: Callable | None = None,
                          use_majorant: bool = False) -> WeightSumResult:
    """s_{D,T,kappa0,eps0; Lambda}(m,n): sum of eps0^{k-1} w_D over admissible
    trajectories of length <= k_max, plus a geometric tail bound for k > k_max.

    cls is "plain" or "R". With the canonical hop weight, w_D == W_{D,kappa0}.
    """
    admissible = admissible_plain if cls == "plain" else admissible_resonant
    weight = trajectory_majorant if use_majorant else (
        lambda pts, pr, la: trajectory_weight(pts, pr, la, w=w))
    total = 0.0
    count = 0
    rejected = 0
    for pts in enumerate_trajectories(domain, m, n, k_max):
        if not admissible(pts, profile, lat):
            rejected += 1
            continue
        count += 1
        total += eps0 ** (len(pts) - 1) * weight(pts, profile, lat)
    tail = _geometric_tail(domain, profile, k_max, eps0, lat)
    return WeightSumResult(lower_bound=total, tail_bound=tail,
                           trajectory_count=count, rejected_count=rejected)


def _geometric_tail(domain, profile, k_max, eps0, lat) -> float:
    w = default_hop_weight(profile, lat)
    w_max = 0.0
    for a in domain:
        for b in domain:
            if a != b:
                w_max = max(w_max, w(a, b))
    d_max = max(profile.D[p] for p in domain)
    ratio = eps0 * max(1, len(domain) - 1) * w_max * math.exp(d_max)
    if ratio >= 1.0:
        return math.inf
    first = math.exp(d_max) * ratio ** k_max
    return first / (1.0 - ratio)


@dataclass(frozen=True)
class WeightLemmaReport:
    passed: bool
    checked: int
    worst_margin: float            # min over trajectories of bound/weight
    corollary_violations: tuple    # audited (reported), not fatal
    hop_sum_constant: float        # measured C with sum_gamma e^{-kappa||gamma||} < C^{k-1}
    hop_sum_ok: bool


def verify_weight_lemma(domain: Sequence[GroupElement], profile: WeightProfile,
                        lat: QuotientLattice, k_max: int = 5) -> WeightLemmaReport:
    """Check W_{D,kappa0}(gamma) <= exp(k M^2 - kappa0 (1 - 2^-9) ||gamma|| + 2 Dbar)
    for every admissible R-class trajectory; audit the corollary cases and the
    hop-sum growth constant."""
    M = profile.M
    worst = math.inf
    checked = 0
    cor_viol = []
    kap_eff = profile.kappa0 * (1.0 - 2.0 ** (-9))
    # hop-sum constant: sum over length-k trajectories of e^{-kappa ||gamma||}
    # between fixed endpoints should stay < C^{k-1}
    C = hop_sum_constant(lat, kap_eff, profile.alpha0)
    hop_ok = True
    for a in domain:
        for b in domain:
            by_k: dict[int, float] = {}
            for pts in enumerate_trajectories(domain, a, b, k_max):
                k = len(pts)
                gnorm = path_norm(pts, lat, profile.alpha0)
                by_k[k] = by_k.get(k, 0.0) + math.exp(-kap_eff * gnorm)
                if not admissible_resonant(pts, profile, lat):
                    continue
                checked += 1
                dbar = max(profile.D[p] for p in pts)
                log_bound = k * M**2 - kap_eff * gnorm + 2.0 * dbar
                log_W = -profile.kappa0 * gnorm + math.fsum(profile.D[p] for p in pts)
                margin = log_bound - log_W
                worst = min(worst, margin)
                # corollary cases (audited):
                if dbar <= M**5:
                    if log_W > -profile.kappa0 * gnorm + k * M**5 + 1e-9:
                        cor_viol.append(("case-small-Dbar", pts))
                else:
                    if log_W > -(15.0 / 16.0) * profile.kappa0 * gnorm \
                            + 2.0 * dbar + k * M**2 + 1e-9:
                        cor_viol.append(("case-large-Dbar", pts))
            for k, s in by_k.items():
                if k >= 2 and s >= C ** (k - 1):
                    hop_ok = False
    return WeightLemmaReport(
        passed=(worst >= -1e-9), checked=checked, worst_margin=worst,
        corollary_violations=tuple(cor_viol), hop_sum_constant=C, hop_sum_ok=hop_ok,
    )


def hop_sum_constant(lat: QuotientLattice, kappa: float, alpha0: float,
                     radius: int = 40) -> float:
    """C(nu, alpha0, kappa) = sum over the group of exp(-kappa |n|^alpha0),
    computed over a ball with an explicit geometric remainder."""
    total = 0.0
    for e in lat.ball(radius):
        total += math.exp(-kappa * float(e.norm) ** alpha0)
    # remainder: shells r > radius have <= C_growth ((r+1)^nu - r^nu + ...) points;
    # crude but safe: count <= 3^nu r^(nu-1) * 2nu per shell for the box lattice
    rem = 0.0
    r = radius + 1
    while True:
        term = (2 * r + 1) ** lat.nu * math.exp(-kappa * r**alpha0)
        rem += term
        if term < 1e-18 or r > radius + 2000:
            break
        r += 1
    return total + rem


def epscond_threshold(lat: QuotientLattice, profile: WeightProfile,
                      C_growth: float) -> float:
    """The smallness threshold for eps0: min(e^{-B}/(2 C_hop), 2^-8 C^-4 (T/kappa)^{-8 nu/alpha0})
    with B = 8 T / kappa0."""
    C_hop = hop_sum_constant(lat, profile.kappa0 * (1 - 2.0 ** (-9)), profile.alpha0)
    B = 8.0 * profile.T / profile.kappa0
    t1 = math.exp(-B) / (2.0 * C_hop) if B < 700 else 0.0
    t2 = 2.0 ** (-8) * C_growth ** (-4) * \
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
                                 lat: QuotientLattice, k_max: int = 5,
                                 C_growth: float = 3.0) -> WeightSumBoundReport:
    """Audit the closed-form weight-sum upper bounds against brute force:

    S(m,n) <= min[ 3 eps0^(1/2) exp(-(7/8) kappa0 |m-n|^alpha0 + 2T (min mu)^(1/5)),
                   2 eps0^(1/2) exp(-(1/4) kappa0 |m-n|^alpha0 + 2 Dbar) ]  (m != n)
    S(m,m) <= min[ exp(D(m)) + 3 eps0^(1/2) exp(2T mu(m)^(1/5)), 2 exp(2 Dbar) ]

    valid under the eps0 smallness condition, which is evaluated and reported.
    """
    threshold = epscond_threshold(lat, profile, C_growth)
    dbar = max(profile.D[p] for p in domain)
    mu = {a: mu_of_set(domain, a, lat) for a in domain}
    worst_ratio = 0.0
    worst_pair = None
    for a in domain:
        for b in domain:
            ws = weight_sum_bruteforce(domain, profile, a, b, "R", k_max,
                                       eps0, lat, use_majorant=True)
            total = ws.lower_bound + ws.tail_bound
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
            ratio = total / bound if bound > 0 else math.inf
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_pair = (a, b)
    return WeightSumBoundReport(
        passed=(worst_ratio <= 1.0 + 1e-9) and eps0 <= threshold,
        eps0=eps0, eps0_threshold=threshold,
        worst_pair=worst_pair, worst_ratio=worst_ratio,
    )


@dataclass(frozen=True)
class MsaResult:
    resolvent: np.ndarray
    merged_D: dict
    audited: bool
    audit_ok: bool
    floor_substituted: bool


def msa_step(H: np.ndarray, domain: Sequence[GroupElement],
             blocks: Sequence[tuple[Sequence[GroupElement], WeightProfile]],
             E: float, eps0: float, lat: QuotientLattice,
             T: float, kappa0: float, alpha0: float,
             diagonal_floor: float | None = None,
             k_max: int = 4) -> MsaResult:
    """One general multi-scale step: verify the hypotheses, return the full
    resolvent and the merged D profile.

    Hypotheses: (a) each block resolvent is entrywise below its weight sums
    (verified by brute force for |block| <= 12); (b) leftover diagonals of
    (E - H) at least exp(-4T/kappa0) (or the practical floor, flagged);
    (epscond) smallness of eps0. The conclusion is audited on |Lambda| <= 12.
    """
    domain = list(domain)
    index = {e: i for i, e in enumerate(domain)}
    n = len(domain)
    M = E * np.eye(n, dtype=np.complex128) - H

    # the eps0 smallness condition is the standing assumption; check it first
    C_growth = max(2.0, (2.0 ** lat.nu) * 1.5)
    threshold = epscond_threshold(
        lat, WeightProfile(D={e: 1.0 for e in domain}, T=T, kappa0=kappa0,
                           alpha0=alpha0), C_growth)
    if eps0 > threshold:
        raise HypothesisFailed(
            "epscond", f"eps0 = {eps0:.3e} above threshold {threshold:.3e}")

    covered: set[GroupElement] = set()
    for elems, prof in blocks:
        elems = list(elems)
        covered.update(elems)
        idx = [index[e] for e in elems]
        sub = M[np.ix_(idx, idx)]
        try:
            sub_inv = _checked_inverse(sub, f"block {elems}")
        except SingularBlock as exc:
            raise HypothesisFailed("a", f"block not invertible: {exc}")
        if len(elems) <= 12:
            for i, a in enumerate(elems):
                for j, b in enumerate(elems):
                    ws = weight_sum_bruteforce(elems, prof, a, b, "R", k_max,
                                               eps0, lat)
                    bound = ws.lower_bound + ws.tail_bound
                    if abs(sub_inv[i, j]) > bound * (1 + 1e-9) + 1e-15:
                        raise HypothesisFailed(
                            "a", f"block resolvent entry ({a},{b}) = "
                            f"{abs(sub_inv[i, j]):.3e} above weight sum {bound:.3e}")

    verbatim_floor = math.exp(-4.0 * T / kappa0) if 4.0 * T / kappa0 < 700 else 0.0
    floor = verbatim_floor if diagonal_floor is None else diagonal_floor
    substituted = diagonal_floor is not None and diagonal_floor != verbatim_floor
    for e in domain:
        if e in covered:
            continue
        if abs(M[index[e], index[e]]) < floor:
            raise HypothesisFailed(
                "b", f"leftover diagonal at {e}: {abs(M[index[e], index[e]]):.3e} "
                f"< floor {floor:.3e}")

    resolvent = _checked_inverse(M, "full (E - H)")
    merged: dict = {}
    for elems, prof in blocks:
        for e in elems:
            merged[e] = prof.D[e]
    default = 4.0 * T / kappa0
    for e in domain:
        merged.setdefault(e, default)

    audited = n <= 12
    audit_ok = True
    if audited:
        prof = WeightProfile(D=merged, T=T, kappa0=kappa0, alpha0=alpha0)
        for i, a in enumerate(domain):
            for j, b in enumerate(domain):
                ws = weight_sum_bruteforce(domain, prof, a, b, "R", k_max,
                                           eps0, lat)
                if abs(resolvent[i, j]) > ws.lower_bound + ws.tail_bound + 1e-15:
                    audit_ok = False
    return MsaResult(resolvent=resolvent, merged_D=merged, audited=audited,
                     audit_ok=audit_ok, floor_substituted=substituted)


@dataclass(frozen=True)
class TwoPointResult:
    resolvent: np.ndarray
    extended_D: dict
    D0: float
    audited: bool
    audit_ok: bool


def two_point_extension(H: np.ndarray, domain: Sequence[GroupElement],
                        m_plus: GroupElement, m_minus: GroupElement,
                        profile: WeightProfile, E: float, eps0: float,
                        lat: QuotientLattice,
                        boundary_distance: float,
                        k_max: int = 4) -> TwoPointResult:
    """Two-point extension: D0 = log||(E-H)^-1|| + log eps0^-1 + kappa0 |m+ - m-|^alpha0
    must clear T * dist(Lambda2, complement)^{alpha0/5}; the profile extended by
    D(m+-) = D0 stays in the class and bounds the full resolvent (audited small).

    m_plus == m_minus is allowed (single puncture).
    """
    domain = list(domain)
    index = {e: i for i, e in enumerate(domain)}
    n = len(domain)
    M = E * np.eye(n, dtype=np.complex128) - H
    pair = [m_plus] if m_plus == m_minus else [m_plus, m_minus]
    others = [e for e in domain if e not in pair]
    idx_others = [index[e] for e in others]
    try:
        _checked_inverse(M[np.ix_(idx_others, idx_others)], "punctured block")
    except SingularBlock as exc:
        raise HypothesisFailed("punctured resolvent", str(exc))
    try:
        full_inv = _checked_inverse(M, "full matrix")
    except SingularBlock as exc:
        raise HypothesisFailed("full invertibility", str(exc))
    hop = float(lat.dist(m_plus, m_minus)) ** profile.alpha0
    D0 = math.log(np.linalg.norm(full_inv, 2)) + math.log(1.0 / eps0) \
        + profile.kappa0 * hop
    D0 = max(D0, 1.0)
    limit = profile.T * boundary_distance ** (profile.alpha0 / 5.0)
    if not D0 <= limit:
        raise HypothesisFailed(
            "D0", f"D0 = {D0:.3f} above T dist^(alpha0/5) = {limit:.3f}")
    extended = dict(profile.D)
    for e in pair:
        extended[e] = D0
    ext_profile = WeightProfile(D=extended, T=profile.T, kappa0=profile.kappa0,
                                alpha0=profile.alpha0)
    audited = n <= 12
    audit_ok = True
    if audited:
        for i, a in enumerate(domain):
            for j, b in enumerate(domain):
                ws = weight_sum_bruteforce(domain, ext_profile, a, b, "R",
                                           k_max, eps0, lat)
                if abs(full_inv[i, j]) > ws.lower_bound + ws.tail_bound + 1e-15:
                    audit_ok = False
    return TwoPointResult(resolvent=full_inv, extended_D=extended, D0=D0,
                          audited=audited, audit_ok=audit_ok)
