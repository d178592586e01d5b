"""Named verification suites behind the `verify` CLI subcommand.

Each suite runs on built-in inputs and appends CheckResult records with
margins to the list it is handed, each check as soon as it is made, so a
suite that raises keeps the checks it had passed; the CLI prints one line
per check and exits nonzero when any fails. The suites re-derive expected
values from independent routes (dense inversion, closed forms, enumeration)
rather than trusting the code paths they exercise. A run config's oracle
checks are `band` audits (``dense_recheck``, ``floquet_gap_edges``); the
band and floquet suites call the same audit functions on the built-in toy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import band as band_mod
from .domains import DomainBuilder, nesting_audit, symmetrize_S, symmetrize_T
from .eigensolve import cff_build, cff_branch_solve, dichotomy_core, leaf
from .errors import HillbandsError
from .lattice import FrequencyVector, QuotientLattice
from .oracle import floquet_discriminant, period
from .potential import cosine, fold
from .scales import build_schedule
from .schur import (WeightProfile, schur_block_inverse, verify_weight_lemma,
                    weight_sum_upper_bound_audit)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    margin: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        margin = "" if self.margin is None else f" margin={self.margin:.3e}"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.suite}/{self.name}{margin}{detail}"


def _toy_context() -> band_mod.BandContext:
    """eps = 0.05 on the cosine c(+-1) = e^-1 over omega = 1."""
    lat = QuotientLattice(FrequencyVector.parse(["1"]))
    folded = fold(cosine([1], kappa0=1.0, alpha0=1.0, amplitude=None), lat)
    schedule = build_schedule("practical", s_max=2, R1=12.0, beta=0.5,
                              a0=0.5, b0=2.0, kappa0=1.0, alpha0=1.0, nu=1,
                              eps0=0.5, sigma_scale=1e-8)
    return band_mod.BandContext(lat=lat, folded=folded, schedule=schedule,
                                eps=0.05, truncation_R=12.0,
                                s_cap=1, use_domains=False)


def suite_schur(out: list[CheckResult]) -> None:
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 65))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (A + A.conj().T) / 2.0
        w = np.linalg.eigvalsh(H)
        E = float(w[-1] + 1.0 + rng.uniform(0.1, 2.0))
        cut = int(rng.integers(1, n))
        perm = rng.permutation(n)
        split = (perm[:cut].tolist(), perm[cut:].tolist())
        try:
            inverse = schur_block_inverse(H, split, E)
        except HillbandsError:
            ok = False
            continue
        direct = np.linalg.inv(E * np.eye(n) - H)
        rel = float(np.linalg.norm(inverse - direct)
                    / np.linalg.norm(direct))
        worst = max(worst, rel)
    passed = ok and worst <= 1e-9
    out.append(CheckResult("schur", "block-inverse identity", passed, worst,
                           "100 random matrices"))


def suite_dichotomy(out: list[CheckResult]) -> None:
    rng = np.random.default_rng(11)
    count = 100000
    a1 = rng.uniform(-1.0, 2.0, count)
    gap = rng.uniform(1e-6, 2.0, count)
    a2 = a1 - gap
    b = rng.uniform(0.0, 1.0, count) * gap / 4.0
    # u from the admissible set: (u-a1)(u-a2) = b^2 + t*(gap^2/4), |t| < 1
    t = rng.uniform(-0.999, 0.999, count)
    rhs = b * b + t * gap * gap / 4.0
    mid = (a1 + a2) / 2.0
    disc = gap * gap / 4.0 + rhs
    root = np.sqrt(np.maximum(disc, 0.0))
    side = rng.integers(0, 2, count) * 2 - 1
    u = mid + side * root
    failures = 0
    # blocks of 10^4 keep the core's temporaries (a dozen arrays) small
    # next to the inputs: all 10^5 at once raise peak RSS by about 8 MB
    for lo in range(0, count, 10000):
        s = slice(lo, lo + 10000)
        expr = (u[s] - a1[s]) * (u[s] - a2[s]) - b[s] * b[s]
        # borderline float tuples fall outside the admissible set: skipped,
        # not regenerated
        admissible = np.abs(expr) < gap[s] * gap[s] / 4.0
        classified = dichotomy_core(a1[s], a2[s], b[s], u[s]).classified
        failures += int(np.count_nonzero(admissible & ~classified))
    out.append(CheckResult("dichotomy", "classification + bracket",
                           failures == 0, float(failures),
                           f"{count} random admissible tuples"))


def suite_weights(out: list[CheckResult]) -> None:
    rng = np.random.default_rng(3)
    omega = FrequencyVector.parse(["1"])
    lat = QuotientLattice(omega)
    worst_margin = math.inf
    lemma_ok = True
    sums_ok = True
    for trial in range(20):
        spread = int(rng.integers(1, 40))
        points = sorted(rng.choice(np.arange(-3 * spread, 3 * spread), size=5,
                                   replace=False).tolist())
        domain = [lat.canonicalize([int(p)]) for p in points] + [lat.identity]
        domain = sorted(set(domain), key=lambda e: e.key())
        T = float(rng.uniform(8.0, 12.0))
        kappa0 = float(rng.uniform(0.5, 0.99))
        M = 4.0 * T / kappa0
        D = {e: float(rng.uniform(1.0, 1.8 * M)) for e in domain}
        profile = WeightProfile(D=D, T=T, kappa0=kappa0, alpha0=1.0)
        rep = verify_weight_lemma(domain, profile, lat, k_max=5)
        lemma_ok = lemma_ok and rep.passed and rep.hop_sum_ok
        worst_margin = min(worst_margin, rep.worst_margin)
        small_D = {e: float(rng.uniform(1.0, min(M, 30.0) - 1.0)) for e in domain}
        small_profile = WeightProfile(D=small_D, T=T, kappa0=kappa0, alpha0=1.0)
        # eps0 must clear the smallness threshold e^{-8T/kappa0}/(2 C_hop)
        bound_rep = weight_sum_upper_bound_audit(domain, small_profile,
                                                 eps0=1e-120, lat=lat, k_max=5)
        sums_ok = sums_ok and bound_rep.passed
    out.append(CheckResult("weights", "trajectory majorant bound", lemma_ok,
                           worst_margin, "20 random profiles"))
    out.append(CheckResult("weights", "weight-sum upper bounds", sums_ok))


def suite_cff(out: list[CheckResult]) -> None:
    # symmetric model: a1 = g + theta, a2 = g - theta, b = c*theta; the
    # smallness conditions confine testing to a narrow (x, u) window
    g0, c = 0.0, 0.5
    xs = [i / 1000.0 for i in range(1, 10)]
    grid = [(x, u) for x in xs for u in (-0.005, 0.0, 0.005)]
    n1, _ = cff_build(leaf(lambda x, u: g0 + x), leaf(lambda x, u: g0 - x),
                      lambda x, u: (c * x) ** 2, grid)
    res = cff_branch_solve(n1, xs, lambda x: (-0.02, 0.02))
    worst = 0.0
    for x, zm, zp in zip(xs, res.zeta_minus, res.zeta_plus):
        expected = math.sqrt(x * x + (c * x) ** 2)
        worst = max(worst, abs(zp - (g0 + expected)), abs(zm - (g0 - expected)))
    out.append(CheckResult("cff", "symmetric-model closed form",
                           worst <= 1e-10, worst))
    out.append(CheckResult("cff", "derivative-sign split",
                           res.derivative_split_ok))
    out.append(CheckResult("cff", "convexity of chi", res.convexity_ok))
    out.append(CheckResult("cff", "branch continuity", res.continuity_ok))
    # chi continuity through an f2 zero: chi = chi1 chi2 - mu mu b^2 stays finite
    finite = True
    for u in np.linspace(-0.02, 0.02, 101):
        val = n1.chi(0.005, float(u))
        if not math.isfinite(val):
            finite = False
    out.append(CheckResult("cff", "chi smooth through poles", finite))


def suite_domains(out: list[CheckResult]) -> None:
    omega = FrequencyVector.parse(["1"])
    lat = QuotientLattice(omega)
    schedule = build_schedule("practical", s_max=2, R1=9.0, beta=0.5,
                              a0=0.5, b0=2.0, kappa0=1.0, alpha0=1.0, nu=1,
                              eps0=0.5, sigma_scale=1e-9)
    k = 0.37
    builder = DomainBuilder(k, schedule, lat)
    levels = builder.level_sets(2)
    lam2 = builder.lambda0(2)
    sets = [(dom, s) for s, per in levels.items() for dom in per.values()]
    sets.append((lam2, 2))
    rep = nesting_audit(sets)
    out.append(CheckResult("domains", "nesting dichotomy", rep.passed,
                           float(len(rep.violations))))
    n0 = lat.canonicalize([1])
    dom_t, ell_t = symmetrize_T(builder, 2, n0)
    t_ok = all(n0.t - t in dom_t for t in dom_t)
    out.append(CheckResult("domains", "T-invariance", t_ok, float(ell_t)))
    k_small = schedule.delta[0] / 4.0
    builder_s = DomainBuilder(k_small, schedule, lat)
    dom_s, ell_s = symmetrize_S(builder_s, 2)
    s_ok = all(-t in dom_s for t in dom_s)
    out.append(CheckResult("domains", "S-invariance", s_ok, float(ell_s)))
    out.append(CheckResult("domains", "stabilization bound",
                           ell_t < 2**2 and ell_s < 2**2))


def suite_band(out: list[CheckResult]) -> None:
    ctx = _toy_context()
    ks = [0.05 + 0.01 * i for i in range(20)]
    pos = band_mod.band_curve(ctx, ks)
    neg = band_mod.band_curve(ctx, [-k for k in ks])
    sym = band_mod.symmetry_audit(pos, neg)
    out.append(CheckResult("band", "E(k) = E(-k)", sym.passed,
                           sym.details["max_difference"]))
    mono = band_mod.monotonicity_audit(ctx, pos)
    out.append(CheckResult("band", "monotonicity bounds", mono.passed,
                           float(len(mono.details["failures"]))))
    dense = band_mod.dense_recheck_audit(ctx, pos)
    out.append(CheckResult("band", "dense-oracle agreement", dense.passed,
                           dense.details["max_difference"]))


def suite_floquet(out: list[CheckResult]) -> None:
    """Free-equation discriminants, and the Floquet edges of the toy's gap
    m = -1 against the dual matrix's."""
    ctx = _toy_context()
    T = period(ctx.lat.omega)
    # free equation: Delta(E) = 2 cos(sqrt(E) T)
    worst = 0.0
    for E in (1.0, 4.0, 9.5):
        delta = floquet_discriminant(E, 0.0, ctx.folded, T)
        worst = max(worst, abs(delta - 2.0 * math.cos(math.sqrt(E) * float(T))))
    out.append(CheckResult("floquet", "free-equation discriminant",
                           worst <= 1e-8, worst))
    gap = band_mod.gap_edges(ctx, ctx.lat.canonicalize([-1]))
    edges = band_mod.floquet_gap_edge_audit(ctx, gap)
    out.append(CheckResult("floquet", "gap edges vs dual matrix",
                           edges.passed, edges.details["max_difference"]))


SUITES = {
    "weights": suite_weights,
    "schur": suite_schur,
    "dichotomy": suite_dichotomy,
    "cff": suite_cff,
    "domains": suite_domains,
    "band": suite_band,
    "floquet": suite_floquet,
}


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite (or all). A suite that raises a HillbandsError
    ends with one failed check naming the exception, after the checks it had
    already made, and the other suites still run."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite(key))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES) + ['all']}")
    results: list[CheckResult] = []
    try:
        SUITES[name](results)
    except HillbandsError as exc:
        results.append(CheckResult(name, "raised", False,
                                   detail=f"{type(exc).__name__}: {exc}"))
    return results
