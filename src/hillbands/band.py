"""Band function E(k), gap edges, and the band-level audit suite.

Per k the pipeline builds the resonance profile, routes to the matching class
(simple root on the inductive domain, pair solving on the T-symmetrized
domain for a resonance, iterated pair solving for chains validated to nesting
depth 2), and records E at every feasible scale together with the
scale-increment convergence certificate. Audits compare against the paper-level
bounds on the normalized energy axis and against the dense and Floquet oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .domains import DomainBuilder, symmetrize_S, symmetrize_T
from .errors import (ExcludedK, HillbandsError, HypothesisFailed,
                     PreconditionFailed)
from .lattice import GroupElement, QuotientLattice
from .operators import TWO_PI_SQ, OperatorSpec, assemble, gamma_for
from .potential import FoldedCoefficients
from .scales import (ModeTable, ResonanceProfile, ScaleSchedule, k_of,
                     mode_table, resonance_profile)
from .schur import q_g_functions
from .eigensolve import PuncturedResolvent, solve_simple, solve_pair
from .oracle import (CROSSCHECK_TOL, dense_spectrum, floquet_gap_edges,
                     floquet_scan, period, refine_root)

# increments at desk scale sit below float64 resolution; audits use this floor
NOISE_FLOOR_ULPS = 256.0
# gap edges: allowed |Q, G (resolvent) - Q, G (dense)| per max(1, |E|); with
# the dense side a Hermitian solve, the reference gaps, the resonant_2d gap
# on seeds 1-3 and the omega = (1, 5/8), (1, 8/13) gaps measured at most
# 1.6e-16
GAP_EDGE_CROSSCHECK_TOL = 1e-9
# E(k) = E(-k) and phi(n; -k) = conj(phi(-n; k)) hold exactly; this is the
# allowed difference between the two independent solves at k and -k
SYMMETRY_TOL = 1e-9
# dense_recheck: allowed |E - its indexed dense eigenvalue| per ||H||_inf
DENSE_RECHECK_TOL = 1e-8
# floquet_gap_edges: allowed |Floquet edge - dual edge|; a closed gap's offset
FLOQUET_EDGE_TOL = 1e-5


@dataclass
class BandContext:
    """Everything one k-sweep needs, bundled; s_cap is a feasible scale of
    the schedule, 1 <= s_cap <= schedule.feasible_s."""

    lat: QuotientLattice
    folded: FoldedCoefficients
    schedule: ScaleSchedule
    eps: float
    truncation_R: float
    s_cap: int                      # largest scale the sweep attempts
    use_domains: bool               # False: plain balls B(2 R^(1)) only

    def __post_init__(self):
        if not 1 <= self.s_cap <= self.schedule.feasible_s:
            raise ValueError(
                f"s_cap = {self.s_cap} is not a feasible scale: R^(s) and "
                f"delta0^(s-1) fit float64 for s <= {self.schedule.feasible_s} "
                f"only")

    def spec(self, k: float) -> OperatorSpec:
        return OperatorSpec(epsilon=self.eps, k=k)

    def modes(self) -> ModeTable:
        """The modes 0 < |m| <= truncation_R with their k_m, in ball order."""
        return mode_table(self.schedule, self.lat, self.truncation_R)

    def modulus_tail(self, mask: np.ndarray) -> float:
        """sum of (a0 (1+|m|)^(-b0-3))^(1/8) over the modes that ``mask``
        selects from ``modes()``, summed in ball order."""
        elements = self.modes().elements
        a0, b0 = self.schedule.a0, self.schedule.b0
        return sum((a0 * (1.0 + elements[i].norm) ** (-b0 - 3.0)) ** 0.125
                   for i in np.flatnonzero(mask))


@dataclass
class BandPoint:
    k: float
    E: float | None
    scale: int
    klass: str                       # N | N-sym | N-ball | OPR | GSR-2 | error
    punctured_gap: float | None      # min|E - w| over the punctured block
    increments: tuple = ()
    increment_bounds: tuple = ()
    phi: np.ndarray | None = None
    domain: tuple = ()
    profile: ResonanceProfile | None = None
    error: str = ""
    matrix_norm: float = 0.0
    decay_fit: float | None = None
    iterations: int | None = None    # evaluations of f (simple route)
    residual: float | None = None    # ||H phi - E phi||_inf of the returned phi
    pair: dict | None = None         # pair route: tau0, |beta+-|, both residuals

    def to_dict(self) -> dict:
        resonances = []
        if self.profile is not None:
            resonances = [list(e.rep) for e in self.profile.n_points]
        return {
            "k": self.k, "E": self.E, "scale": self.scale, "class": self.klass,
            "increments": list(self.increments),
            "increment_bounds": list(self.increment_bounds),
            "domain_size": len(self.domain), "error": self.error,
            "decay_fit": self.decay_fit, "resonances": resonances,
            "iterations": self.iterations, "residual": self.residual,
            "punctured_gap": self.punctured_gap, "pair": self.pair,
        }


@dataclass
class GapRecord:
    m: GroupElement
    k_m: float
    E_minus: float
    E_plus: float
    width: float
    bound: float

    def to_dict(self) -> dict:
        return {"m": list(self.m.rep), "k_m": self.k_m, "E_minus": self.E_minus,
                "E_plus": self.E_plus, "width": self.width, "bound": self.bound}


def k_zero_variants(k: float, k1: float, k_n0: float, eps0: float) -> dict:
    """The three k^(0) definitions; audits use the weakest (smallest)."""
    return {
        "thmC": min(eps0, k / 1024.0),
        "prop81": min(eps0 ** 0.75, abs(k_n0) / 512.0),
        "thmD": min(eps0 ** 0.75, (k + k1) / 1024.0),
    }


def _nonresonant_point(ctx: BandContext, k: float,
                       profile: ResonanceProfile | None) -> BandPoint:
    """Simple route: E at scales 1..s_cap with increments recorded."""
    energies = []
    klass = "N"
    builder = DomainBuilder(k, ctx.schedule, ctx.lat)
    for s in range(1, ctx.s_cap + 1):
        try:
            if ctx.use_domains:
                if s >= 2 and abs(k) < ctx.schedule.delta[s - 2]:
                    ts, _ = symmetrize_S(builder, s)
                    klass = "N-sym"
                else:
                    ts = builder.lambda0(s)
                elems = [ctx.lat.element(t) for t in ts]
            else:
                elems = ctx.lat.ball(2.0 * ctx.schedule.R[s])
        except ExcludedK:
            # higher scale excluded: keep whatever scales already resolved
            if energies:
                break
            raise
        matrix = assemble(elems, ctx.spec(k), ctx.folded, ctx.lat)
        pair = solve_simple(matrix, ctx.lat.identity)
        energies.append(pair.E)
    increments = tuple(abs(b - a) for a, b in zip(energies, energies[1:]))
    bounds = tuple(abs(ctx.eps) * ctx.schedule.delta[s - 1] ** 6
                   for s in range(2, len(energies) + 1))
    return BandPoint(k=k, E=energies[-1], scale=len(energies), klass=klass,
                     punctured_gap=pair.punctured_gap, increments=increments,
                     increment_bounds=bounds, phi=pair.phi,
                     domain=matrix.domain, profile=profile,
                     matrix_norm=matrix.norm_bound(),
                     iterations=pair.iterations, residual=pair.residual)


def _pair_setup(ctx: BandContext, k: float, n: GroupElement, s_use: int,
                widen: float, min_spread: float
                ) -> tuple[PuncturedResolvent, tuple[float, float]]:
    """The resolvent of the pair matrix of the resonance (0, n) at k,
    punctured at (0, n), and its bracket.

    The domain is the T-symmetrized one at scale s_use, or with domains off
    the ball B(2 R^(s_use)) and its mirror n - e. The bracket holds the two
    eigenvalues nearest the mean of the two principal diagonals, each pushed
    out by ``widen`` times their spread, which is taken to be at least
    min_spread * max(1, |mean|). The eigenvalues come from inertia counts
    on the resolvent (``eigenvalues_around``), so the punctured block's one
    reduction is the only O(n^3) step.
    """
    if ctx.use_domains:
        builder = DomainBuilder(k, ctx.schedule, ctx.lat)
        ts, _ = symmetrize_T(builder, s_use, n)
        elems = [ctx.lat.element(t) for t in ts]
    else:
        ball = ctx.lat.ball(2.0 * ctx.schedule.R[s_use])
        elems = ball + [ctx.lat.sub(n, e) for e in ball]
    matrix = assemble(elems, ctx.spec(k), ctx.folded, ctx.lat)
    i0, i1 = matrix.row_of(ctx.lat.identity), matrix.row_of(n)
    target = 0.5 * (matrix.diagonal[i0].real + matrix.diagonal[i1].real)
    punctured = PuncturedResolvent(matrix, [i0, i1])
    w = punctured.eigenvalues_around(target)
    order = np.argsort(np.abs(w - target))
    two = np.sort(w[order[:2]])
    spread = max(two[1] - two[0], min_spread * max(1.0, abs(target)))
    return punctured, (float(two[0] - widen * spread),
                       float(two[1] + widen * spread))


def _resonant_point(ctx: BandContext, k: float,
                    profile: ResonanceProfile) -> BandPoint:
    """Pair route on the T-symmetrized domain of the top resonance.

    Depth 0 is a single ordered pair (OPR); deeper chains reuse the same
    two-point reduction at the top pair, with the lower pairs living inside
    the punctured block (validated at nesting depth <= 2).
    """
    n_top = profile.top()
    s_top = profile.s_levels[-1]
    s_use = max(ctx.s_cap, min(s_top, ctx.schedule.feasible_s))
    punctured, bracket = _pair_setup(ctx, k, n_top, s_use, widen=0.1,
                                     min_spread=1e-8)
    matrix = punctured.matrix
    k_n0 = k_of(n_top)
    ident = ctx.lat.identity
    # |k| > |k_n0| puts k past the resonance, on the upper branch, on either
    # side of k = 0: at -k the top resonance is -n_top with k_{-n_top} = -k_n0
    upper = abs(k) > abs(k_n0)
    m_plus, m_minus = (ident, n_top) if upper else (n_top, ident)
    # ordering margin requirement (stated at the normalized scale, so it is a
    # weak floor for the raw-scale margin)
    tau0 = min(2.0 * ctx.schedule.eps0 ** 0.75, abs(k_n0) / 256.0) \
        * abs(k - k_n0)
    branches = solve_pair(punctured, m_plus, m_minus, bracket,
                          tau0_required=tau0)
    if upper:
        E, phi = branches.E_plus, branches.phi_plus
        residual = branches.residual_plus
    else:
        E, phi = branches.E_minus, branches.phi_minus
        residual = branches.residual_minus
    klass = "OPR" if profile.ell == 0 else f"GSR-{profile.ell + 1}"
    return BandPoint(k=k, E=E, scale=s_use, klass=klass,
                     punctured_gap=punctured.gap(E),
                     phi=phi, domain=matrix.domain,
                     profile=profile, matrix_norm=matrix.norm_bound(),
                     residual=residual,
                     pair={"tau0": branches.tau0,
                           "abs_beta_minus": abs(branches.beta_minus),
                           "abs_beta_plus": abs(branches.beta_plus),
                           "residual_minus": branches.residual_minus,
                           "residual_plus": branches.residual_plus})


def compute_point(ctx: BandContext, k: float) -> BandPoint:
    """Route one momentum through the class machinery; failures are recorded."""
    try:
        profile = resonance_profile(k, ctx.schedule, ctx.lat, ctx.truncation_R)
        if profile.resonant:
            return _resonant_point(ctx, k, profile)
        return _nonresonant_point(ctx, k, profile)
    except HillbandsError as exc:
        if isinstance(exc, ExcludedK):
            # excluded by the sigma-intervals but not resonant per the profile:
            # retreat to the plain ball route so the sweep continues.
            try:
                return _ball_fallback(ctx, k)
            except HillbandsError as exc2:
                exc = exc2
        return BandPoint(k=k, E=None, scale=0, klass="error",
                         punctured_gap=None,
                         error=f"{type(exc).__name__}: {exc}")


def _ball_fallback(ctx: BandContext, k: float) -> BandPoint:
    """The simple route on the ball B(2 R^(1)), class N-ball: the retreat of
    a k that the sigma-intervals exclude but the profile does not."""
    point = _nonresonant_point(replace(ctx, s_cap=1, use_domains=False), k,
                               profile=None)
    point.klass = "N-ball"
    return point


def band_curve(ctx: BandContext, k_grid: Sequence[float]) -> list[BandPoint]:
    """E(k) over the grid; points within 1e-12 of any k_m are dropped."""
    k_m = ctx.modes().k
    return [compute_point(ctx, float(k)) for k in k_grid
            if not np.any(np.abs(k - k_m) < 1e-12)]


def gap_edge_limit_crosscheck(ctx: BandContext, gap: GapRecord) -> AuditRecord:
    """One-sided band-curve limits vs the scalar-equation edges.

    With theta = (delta0^(s_cap))^(3/4) / 4, a quarter of the resonance
    width at the capped scale,
    |E^(+-)(k_m) - E(k_m +- theta)| must stay within the local modulus bound
    2 (|k_m| + 1) theta plus the in-between resonance moduli; the paper states
    it at the lambda-normalized scale, so the raw comparison carries the
    (2 pi)^2 (and lambda on the resonance sum) factors. Floor 1e-7.
    """
    theta = 0.25 * ctx.schedule.delta[ctx.s_cap] ** 0.75
    failures = []
    lam = 256.0 * gamma_for(gap.k_m)
    k_m = ctx.modes().k
    between = 2.0 * abs(ctx.eps) * ctx.modulus_tail(
        (np.abs(k_m - gap.k_m) < theta) & (k_m != gap.k_m))
    bound = max(1e-7, TWO_PI_SQ * 2.0 * (abs(gap.k_m) + 1.0) * theta
                + lam * TWO_PI_SQ * between)
    for side, edge in ((+1.0, gap.E_plus), (-1.0, gap.E_minus)):
        point = compute_point(ctx, gap.k_m + side * theta)
        if point.E is None:
            failures.append({"side": side, "error": point.error})
            continue
        diff = abs(point.E - edge)
        if diff > bound:
            failures.append({"side": side, "difference": diff, "bound": bound})
    return AuditRecord(name="gap_edge_limits", passed=not failures, checked=2,
                       details={"theta": theta, "bound": bound,
                                "failures": failures})


def gap_edges(ctx: BandContext, m: GroupElement) -> GapRecord:
    """Gap edges at k_m = -xi(m)/2 from the two scalar equations
    E - v(0,k_m) - Q(E) -+ |G(E)| = 0 on the T-symmetrized domain.

    Both root solves evaluate Q and G on the PuncturedResolvent that
    brackets them; at each edge the dense q_g_functions recomputes them by a
    Hermitian solve, and a difference above
    GAP_EDGE_CROSSCHECK_TOL * max(1, |E|) raises HypothesisFailed.
    """
    k_m = k_of(m)
    if k_m == 0.0:
        raise PreconditionFailed("k_m must be nonzero")
    # at k_m the two principal diagonals agree bit for bit, (xi(m)/2)^2, so
    # the bracket is centred on v(0, k_m)
    punctured, (lo, hi) = _pair_setup(ctx, k_m, m, ctx.s_cap, widen=0.5,
                                      min_spread=1e-9)
    matrix = punctured.matrix
    i0 = matrix.row_of(ctx.lat.identity)
    im = matrix.row_of(m)
    v0 = float(matrix.diagonal[i0].real)

    def equation(E: float, sign: float) -> float:
        return (E - v0 - punctured.Q(i0, E)
                - sign * abs(punctured.G(i0, im, E)))

    edges = {}
    for sign in (+1.0, -1.0):
        E = refine_root(lambda x: equation(x, sign), lo, hi, 1e-13)
        edges[sign] = (E, punctured.Q(i0, E), punctured.G(i0, im, E))
    del punctured
    for E, Q, G in edges.values():
        qg = q_g_functions(matrix.values, [i0, im], E)
        diff = max(abs(Q - qg.Q[i0]), abs(G - qg.G[(i0, im)]))
        if diff > GAP_EDGE_CROSSCHECK_TOL * max(1.0, abs(E)):
            raise HypothesisFailed(
                "gap-edge resolvent vs dense Q/G",
                f"difference {diff:.3e} at E = {E!r}")
    e_minus, e_plus = sorted((edges[-1.0][0], edges[+1.0][0]))
    bound = 2.0 * abs(ctx.eps) * math.exp(
        -ctx.folded.kappa0 * m.norm ** ctx.folded.alpha0 / 2.0)
    return GapRecord(m=m, k_m=k_m, E_minus=float(e_minus), E_plus=float(e_plus),
                     width=float(e_plus - e_minus), bound=bound)


# --- audits ---

@dataclass
class AuditRecord:
    name: str
    passed: bool
    checked: int
    details: dict

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "checked": self.checked, "details": self.details}


def symmetry_audit(points_pos: Sequence[BandPoint],
                   points_neg: Sequence[BandPoint]) -> AuditRecord:
    """E(k) = E(-k) on paired samples."""
    worst = 0.0
    checked = 0
    for p, q in zip(points_pos, points_neg):
        if p.E is None or q.E is None:
            continue
        assert abs(p.k + q.k) < 1e-15
        checked += 1
        worst = max(worst, abs(p.E - q.E))
    return AuditRecord(name="symmetry", passed=worst <= SYMMETRY_TOL,
                       checked=checked, details={"max_difference": worst,
                                                 "tolerance": SYMMETRY_TOL})


def conjugate_reflection_audit(points_pos, points_neg) -> AuditRecord:
    """phi(n; -k) = conj(phi(-n; k)) on paired samples; a sample at -k
    whose domain lacks the mirror of a point of the sample at k fails it."""
    worst = 0.0
    checked = 0
    mirrored = True
    for p, q in zip(points_pos, points_neg):
        if p.phi is None or q.phi is None:
            continue
        index_q = {e.t: i for i, e in enumerate(q.domain)}
        ok_here = True
        for i, e in enumerate(p.domain):
            j = index_q.get(-e.t)
            if j is None:
                ok_here = False
                continue
            worst = max(worst, abs(q.phi[j] - np.conj(p.phi[i])))
        if ok_here:
            checked += 1
        else:
            mirrored = False
    return AuditRecord(name="conjugate_reflection",
                       passed=mirrored and worst <= SYMMETRY_TOL,
                       checked=checked,
                       details={"max_difference": worst, "tolerance": SYMMETRY_TOL})


def monotonicity_audit(ctx: BandContext,
                       points: Sequence[BandPoint]) -> AuditRecord:
    """Thm-C-style lower/upper bounds on normalized energies, weakest k^(0).

    Admissible pairs: 0 < k1 < k, k - k1 < 1/4, both non-resonant samples.
    """
    usable = [p for p in points
              if p.E is not None and p.klass.startswith("N") and p.k > 0]
    usable.sort(key=lambda p: p.k)
    lam = 256.0 * gamma_for(max((p.k for p in usable), default=1.0))
    eps0 = ctx.schedule.eps0
    k_m = ctx.modes().k
    failures = []
    checked = 0
    for i in range(len(usable)):
        for j in range(i + 1, len(usable)):
            k1, k = usable[i].k, usable[j].k
            if not (0 < k1 < k and k - k1 < 0.25):
                continue
            checked += 1
            dE = (usable[j].E - usable[i].E) / (lam * TWO_PI_SQ)
            variants = k_zero_variants(k, k1, k_n0=k, eps0=eps0)
            k0 = min(variants.values())
            lower = k0 ** 2 * (k - k1) ** 2
            tail = ctx.modulus_tail((k1 < k_m) & (k_m < k))
            upper = 2.0 * k * (k - k1) + 2.0 * abs(ctx.eps) * tail
            if not (lower < dE < upper):
                failures.append({"k1": k1, "k": k, "dE": dE,
                                 "lower": lower, "upper": upper,
                                 "variants": variants})
    return AuditRecord(name="monotonicity", passed=not failures, checked=checked,
                       details={"failures": failures, "lambda": lam})


def decay_audit(ctx: BandContext, point: BandPoint,
                mode: str) -> AuditRecord:
    """Multi-center eigenvector decay.

    strict: |phi(n)| <= sqrt(eps) sum_{m in m^(l)} exp(-(7/8) kappa0 |n-m|^alpha0)
    outside the reflection set (checked beyond distance 2) and
    |phi(n)| <= 2 on it. practical: fitted rate >= kappa0/2 outside radius 2.
    """
    if point.phi is None:
        return AuditRecord(name="decay", passed=False, checked=0,
                           details={"error": "no eigenvector"})
    centers = [ctx.lat.identity]
    if point.profile is not None and point.profile.resonant:
        centers = sorted(map(ctx.lat.element,
                             point.profile.top_reflection_set()),
                         key=GroupElement.key)
    kappa0, alpha0 = ctx.folded.kappa0, ctx.folded.alpha0
    sq_eps = math.sqrt(abs(ctx.eps))
    center_set = set(centers)
    violations = []
    checked = 0
    rows = []
    for i, e in enumerate(point.domain):
        a = abs(point.phi[i])
        if e in center_set:
            if a > 2.0 + 1e-12:
                violations.append((e, a, 2.0))
            continue
        dists = [float(ctx.lat.dist(e, c)) for c in centers]
        if mode == "strict":
            if min(dists) <= 2.0:
                continue
            checked += 1
            env = sq_eps * sum(math.exp(-(7.0 / 8.0) * kappa0 * d ** alpha0)
                               for d in dists)
            if a > env + 1e-15:
                violations.append((e, a, env))
        else:
            checked += 1
            rows.append((min(dists), a))
    details: dict = {"mode": mode, "centers": [list(c.rep) for c in centers]}
    if mode == "practical":
        # fit log|phi| vs distance^alpha0 above the numerical noise floor;
        # widen the window toward the center when the far rows are all noise
        floor = 256.0 * np.finfo(float).eps * max(
            (a for _, a in rows), default=1.0)
        fit_rows = []
        for min_dist in (2.0, 0.0):
            fit_rows = [(d ** alpha0, math.log(a)) for d, a in rows
                        if d > min_dist and a > floor]
            if len({x for x, _ in fit_rows}) >= 2:
                details["fit_window_min_dist"] = min_dist
                break
        if len({x for x, _ in fit_rows}) >= 2:
            xs = np.array([r[0] for r in fit_rows])
            ys = np.array([r[1] for r in fit_rows])
            xc = xs - xs.mean()
            slope = float(np.dot(xc, ys - ys.mean()) / np.dot(xc, xc))
            details["fitted_rate"] = -slope
            passed = -slope >= kappa0 / 2.0
        else:
            passed = True  # everything localized below the noise floor
            details["fitted_rate"] = None
        return AuditRecord(name="decay", passed=passed, checked=checked,
                           details=details)
    details["violations"] = [(list(e.rep), a, b) for e, a, b in violations]
    return AuditRecord(name="decay", passed=not violations, checked=checked,
                       details=details)


def increment_audit(points: Sequence[BandPoint]) -> AuditRecord:
    """Increments below their bounds (with a machine-noise floor) and
    non-increasing wherever two increments exist."""
    eps_mach = np.finfo(float).eps
    failures = []
    checked = 0
    for p in points:
        if p.E is None or not p.increments:
            continue
        floor = NOISE_FLOOR_ULPS * eps_mach * max(1.0, p.matrix_norm)
        for inc, bound in zip(p.increments, p.increment_bounds):
            checked += 1
            if inc > max(bound, floor):
                failures.append({"k": p.k, "increment": inc, "bound": bound,
                                 "floor": floor})
        for a, b in zip(p.increments, p.increments[1:]):
            checked += 1
            if b > a + floor:
                failures.append({"k": p.k, "contraction": (a, b), "floor": floor})
    return AuditRecord(name="scale_increments", passed=not failures,
                       checked=checked, details={"failures": failures})


def gap_spectrum_audit(ctx: BandContext, gap: GapRecord) -> AuditRecord:
    """No dense eigenvalue of the largest truncation inside the open gap,
    shrunk by 1e-6 ||H|| at each edge."""
    matrix = assemble(ctx.lat.ball(ctx.truncation_R), ctx.spec(gap.k_m),
                      ctx.folded, ctx.lat)
    w, _ = dense_spectrum(matrix)
    delta = 1e-6 * matrix.norm_bound()
    inside = [float(x) for x in w
              if gap.E_minus + delta < x < gap.E_plus - delta]
    return AuditRecord(name="gap_spectrum", passed=not inside, checked=len(w),
                       details={"eigenvalues_inside": inside, "delta": delta})


def dense_recheck_audit(ctx: BandContext,
                        points: Sequence[BandPoint]) -> AuditRecord:
    """Each E(k) within DENSE_RECHECK_TOL ||H||_inf of eigenvalue number
    j = #{n : Re H_nn < Re H_00} (from 0) of B(truncation_R): the eigenvalues
    E(k + xi_n) sort as the diagonals do. A sample without E fails it."""
    worst = 0.0
    checked = 0
    ball = ctx.lat.ball(ctx.truncation_R)
    for p in points:
        if p.E is None:
            continue
        checked += 1
        matrix = assemble(ball, ctx.spec(p.k), ctx.folded, ctx.lat)
        w, _ = dense_spectrum(matrix)
        v = matrix.diagonal.real
        j = int(np.count_nonzero(v < v[matrix.row_of(ctx.lat.identity)]))
        worst = max(worst, float(abs(p.E - w[j]) / matrix.norm_bound()))
    return AuditRecord(name="dense_recheck",
                       passed=checked == len(points)
                       and worst <= DENSE_RECHECK_TOL,
                       checked=checked,
                       details={"max_difference": worst,
                                "tolerance": DENSE_RECHECK_TOL})


def floquet_gap_edge_audit(ctx: BandContext, gap: GapRecord) -> AuditRecord:
    """An open gap's edges within FLOQUET_EDGE_TOL of the floquet_gap_edges
    roots; an edge without one fails. A closed gap E_minus == E_plus = E0
    passes when |Delta| <= 2 at E0 +- FLOQUET_EDGE_TOL and ||Delta(E0)| - 2|
    <= CROSSCHECK_TOL max(1, |Delta|), all three from one floquet_scan."""
    T = period(ctx.lat.omega)
    if gap.E_minus == gap.E_plus:
        E0 = gap.E_minus
        below, at, above = floquet_scan(
            [E0 - FLOQUET_EDGE_TOL, E0, E0 + FLOQUET_EDGE_TOL], ctx.eps,
            ctx.folded, T).discriminant
        passed = (max(abs(below), abs(above)) <= 2.0
                  and abs(abs(at) - 2.0) <= CROSSCHECK_TOL * max(1.0, abs(at)))
        return AuditRecord(name="floquet_gap_edges", passed=passed, checked=3,
                           details={"m": list(gap.m.rep), "closed": True,
                                    "discriminants": [below, at, above],
                                    "tolerance": CROSSCHECK_TOL})
    lo, hi = floquet_gap_edges(gap.E_minus, gap.E_plus, ctx.eps, ctx.folded,
                               T)
    err = None if lo is None or hi is None else max(abs(lo - gap.E_minus),
                                                    abs(hi - gap.E_plus))
    return AuditRecord(name="floquet_gap_edges",
                       passed=err is not None and err <= FLOQUET_EDGE_TOL,
                       checked=2,
                       details={"m": list(gap.m.rep), "floquet_edges": [lo, hi],
                                "max_difference": err,
                                "tolerance": FLOQUET_EDGE_TOL})


def gap_resolvent_audit(ctx: BandContext, m: GroupElement, E: float,
                        probe_count: int, delta: float) -> AuditRecord:
    """In-gap resolvent bounds on probes covering the fundamental interval
    J(m) = (k_m - tau0, k_m + tau0] (xi(T) is discrete for rational data):
    entries <= delta^-1 everywhere and <= exp(-kappa0 |m-n|^alpha0 / 8) beyond
    |m-n| > (16 log delta^-1)^(1/alpha0)."""
    if delta <= 0:
        raise PreconditionFailed("delta must be positive")
    tau0 = float(ctx.lat.xi_spacing()) / 2.0
    k_m = k_of(m)
    probes = [k_m - tau0 + (i + 1) * (2.0 * tau0 / probe_count)
              for i in range(probe_count)]
    domain = ctx.lat.ball(ctx.truncation_R)
    kappa0, alpha0 = ctx.folded.kappa0, ctx.folded.alpha0
    cutoff = (16.0 * math.log(1.0 / delta)) ** (1.0 / alpha0)
    worst_uniform = 0.0
    violations = []
    checked = 0
    for k in probes:
        matrix = assemble(domain, ctx.spec(k), ctx.folded, ctx.lat)
        M = E * np.eye(matrix.size, dtype=np.complex128) - matrix.values
        R = np.linalg.inv(M)
        checked += 1
        worst_uniform = max(worst_uniform, float(np.max(np.abs(R))))
        for i, a in enumerate(matrix.domain):
            for j, b in enumerate(matrix.domain):
                d = float(ctx.lat.dist(a, b))
                if d > cutoff:
                    bound = math.exp(-kappa0 * d ** alpha0 / 8.0)
                    if abs(R[i, j]) > bound:
                        violations.append({"k": k, "pair": (list(a.rep),
                                                            list(b.rep)),
                                           "value": float(abs(R[i, j])),
                                           "bound": bound})
    uniform_ok = worst_uniform <= 1.0 / delta
    return AuditRecord(
        name="gap_resolvent", passed=uniform_ok and not violations,
        checked=checked,
        details={"max_entry": worst_uniform, "delta_inv": 1.0 / delta,
                 "far_cutoff": cutoff, "violations": violations,
                 "probes": probes},
    )
