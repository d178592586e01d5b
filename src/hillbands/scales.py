"""Scale schedule, coupling budget, resonance geometry of k and reflection sets.

The schedule follows R^(u) = (delta0^(u-1))^(-beta), delta0^(u) = exp(-(log R^(u))^2)
with the base delta0^(0) = R1^(-1/beta). Strict mode fixes beta = 1/(32 b0) and
computes the worst-case constants of the theory in log space (they underflow
float64 by construction); practical mode takes user beta and R1. Scale s is
feasible iff R^(s) is float-finite and delta0^(s-1) does not underflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import PreconditionFailed, ScheduleInfeasible
from .lattice import GroupElement, QuotientLattice

LOG_FLOAT_MAX = math.log(1.7976931348623157e308)


@dataclass(frozen=True)
class ScaleSchedule:
    """Arrays R^(u), delta0^(u), eps_s plus the base constants.

    Index u runs 0..s_max; R[0] = 0 by convention (the paper's R^(0) := 0),
    delta[0] is the base delta0^(0). The log arrays stay meaningful even where
    the plain values underflow (delta[u] == 0.0 then).
    """

    mode: str  # "strict" | "practical"
    beta: float
    s_max: int
    log_R: tuple[float, ...]
    log_delta: tuple[float, ...]
    R: tuple[float, ...]
    delta: tuple[float, ...]
    delta0: float         # base delta0 = (delta0^(0))^(1/4)
    eps0: float
    log_eps0: float
    eps: tuple[float, ...]  # eps_s = eps0 - sum_{s'<=s} delta0^(s'), index 0..s_max
    feasible_s: int
    a0: float
    b0: float
    kappa0: float
    alpha0: float
    sigma_scale: float
    strict_delta_condition_ok: bool | None

    def require_feasible(self, s: int) -> None:
        if s > self.feasible_s:
            raise ScheduleInfeasible(s, self.feasible_s)

    def shell_of(self, norm: float) -> int | None:
        """Shell index s with 12 R^(s-1) < |m| <= 12 R^(s); None beyond s_max."""
        for s in range(1, self.s_max + 1):
            lo = 12.0 * self.R[s - 1]
            hi = 12.0 * self.R[s]
            if lo < norm <= hi:
                return s
        return None

    def shell_sigma(self, s: int) -> float:
        """sigma = 32 (delta0^(s-1))^(1/6) on shell s."""
        return 32.0 * self.delta[s - 1] ** (1.0 / 6.0) * self.sigma_scale

    def to_dict(self) -> dict:
        """Every field but the log arrays."""
        out = asdict(self)
        del out["log_R"], out["log_delta"]
        return out


def strict_epsilon0_log(log_delta0: float, kappa0: float, alpha0: float,
                        nu: int) -> float:
    """log of the worst-case eps0(delta0, kappa0, alpha0) (cube of a three-way min).

    Works from log(delta0) so it survives the regimes where delta0 itself
    underflows float64.
    """
    na = nu / alpha0
    log_t1 = (-24.0 * na - 4.0) * math.log(2.0) + 4.0 * na * math.log(kappa0)
    log_t2 = (2.0**9) * log_delta0
    log_d_inv = -log_delta0
    log_t3 = (-10.0 * (na + 1.0)) * math.log(2.0) \
        - 8.0 * na * math.log(4.0 * kappa0 * log_d_inv)
    return 3.0 * min(log_t1, log_t2, log_t3)


def _square(x: float) -> float:
    """x ** 2, or inf where that leaves float64 (Python raises there)."""
    return x ** 2 if abs(x) < 1e154 else math.inf


def build_schedule(mode: str, s_max: int, R1: float, *, beta: float | None,
                   a0: float, b0: float, kappa0: float, alpha0: float,
                   nu: int, eps0: float, sigma_scale: float) -> ScaleSchedule:
    """Build the scale schedule.

    Practical mode: user beta in (0,1), R1 > e and user eps0. Strict mode:
    beta = 1/(32 b0) and R1 must clear
    log R1 >= alpha0^-1 max(log(100/a0), 2^34 beta^-1 log kappa0^-1); eps0
    is then the worst-case constant (kept in log space where it
    underflows), and the beta and eps0 passed are not read. Only log R1 is
    read, so R1 may be an int beyond float64, as strict-mode floors can be.

    Scales past the last one whose R^(s) and delta0^(s-1) fit in double
    precision stay in the schedule: the log arrays always cover the full
    range, feasible_s marks the usable prefix of the float views, and
    ``require_feasible`` raises ScheduleInfeasible beyond it.
    """
    log_R1 = math.log(R1)
    if mode == "strict":
        beta = 1.0 / (32.0 * b0)
        floor = max(math.log(100.0 / a0),
                    2.0**34 / beta * math.log(1.0 / kappa0)) / alpha0
        if log_R1 < floor:
            raise PreconditionFailed(
                f"strict mode needs log R1 >= {floor:.6g}, got {log_R1:.6g}"
            )
    elif mode == "practical":
        if beta is None or not (0 < beta < 1):
            raise PreconditionFailed("practical mode needs beta in (0,1)")
        if log_R1 <= 1.0:
            raise PreconditionFailed("practical mode needs R1 > e")
    else:
        raise PreconditionFailed(f"unknown mode {mode!r}")

    log_R = [0.0] * (s_max + 1)   # log_R[0] unused (R^(0) = 0)
    log_delta = [0.0] * (s_max + 1)
    log_delta[0] = -log_R1 / beta                # delta0^(0) = R1^(-1/beta)
    log_R[1] = log_R1
    for u in range(1, s_max + 1):
        if u >= 2:
            log_R[u] = beta * _square(log_R[u - 1])  # beta (log R^(u-1))^2
        log_delta[u] = -_square(log_R[u])

    R = [0.0] * (s_max + 1)
    delta = [0.0] * (s_max + 1)
    feasible = 0
    for u in range(s_max + 1):
        if u >= 1:
            R[u] = math.exp(log_R[u]) if log_R[u] <= LOG_FLOAT_MAX else math.inf
        delta[u] = math.exp(log_delta[u]) if log_delta[u] > -746.0 else 0.0
    for s in range(1, s_max + 1):
        if math.isfinite(R[s]) and delta[s - 1] > 0.0:
            feasible = s
        else:
            break

    log_delta0 = log_delta[0] / 4.0  # delta0^4 = delta0^(0)
    delta0 = math.exp(log_delta0) if log_delta0 > -746.0 else 0.0
    strict_ok = None
    if mode == "strict":
        log_eps0 = strict_epsilon0_log(log_delta0, kappa0, alpha0, nu)
        eps0_val = math.exp(log_eps0) if log_eps0 > -746.0 else 0.0
        dcond = (2.0**32) / (alpha0 * beta) * math.log(1.0 / kappa0)
        strict_ok = (-log_delta0) > dcond
    else:
        eps0_val = float(eps0)
        log_eps0 = math.log(eps0_val)

    # eps_s = eps0 - sum_{1<=s'<=s} delta0^(s'), the coupling budget
    eps = [eps0_val]
    for u in range(1, s_max + 1):
        eps.append(eps[-1] - delta[u])
    return ScaleSchedule(
        mode=mode, beta=beta, s_max=s_max,
        log_R=tuple(log_R), log_delta=tuple(log_delta),
        R=tuple(R), delta=tuple(delta), delta0=delta0,
        eps0=eps0_val, log_eps0=log_eps0, eps=tuple(eps),
        feasible_s=feasible,
        a0=a0, b0=b0, kappa0=kappa0, alpha0=alpha0, sigma_scale=sigma_scale,
        strict_delta_condition_ok=strict_ok,
    )


# --- the modes on the k axis: resonant momenta and exclusion intervals ---

def k_of(m: GroupElement) -> float:
    """The resonant momentum k_m = -xi(m)/2 of the mode m."""
    return -m.xi_float / 2.0


@dataclass(frozen=True)
class ModeTable:
    """The modes 0 < |m| <= radius in ``lat.ball`` order, one column each.

    ``shell`` is 0 beyond the schedule's shells. ``lo[s]``, ``hi[s]`` hold the
    inflated endpoints k^-_{m,s}, k^+_{m,s} for s = 0..s_max (Eq.-7K.1
    style); they are NaN on shell 0, so no k lies between them. The arrays
    are shared by every caller and read-only.
    """

    elements: tuple[GroupElement, ...]
    t: np.ndarray
    norm: np.ndarray
    k: np.ndarray
    shell: np.ndarray
    lo: np.ndarray      # (s_max + 1, n)
    hi: np.ndarray


@functools.lru_cache(maxsize=32)
def mode_table(schedule: ScaleSchedule, lat: QuotientLattice,
               radius: float) -> ModeTable:
    """The table of the modes 0 < |m| <= radius, built once per
    (schedule, lattice, radius)."""
    elements = tuple(e for e in lat.ball(radius) if not e.is_identity)
    s_max = schedule.s_max
    # k^+-_{m,s} = k_m +- (sigma + 64 sum_{r<s, d_r <= sigma} d_r) with
    # d_r = delta0^(r)^(1/2) sigma_scale; sigma and the inflation depend on
    # the shell alone. Per element the float operations and their order are
    # those of the scalar formula, so every endpoint is bit-identical to it.
    sigma = np.full(s_max + 1, np.nan)
    inflate = np.zeros((s_max + 1, s_max + 1))     # [s, shell]
    for shell in range(1, s_max + 1):
        sigma[shell] = schedule.shell_sigma(shell)
        total = 0.0
        for s in range(1, s_max + 1):
            d = schedule.delta[s - 1] ** 0.5 * schedule.sigma_scale
            if d <= sigma[shell]:
                total += d
            inflate[s, shell] = total * 64.0
    shell = np.array([schedule.shell_of(e.norm) or 0 for e in elements],
                     dtype=np.intp)
    k = np.array([k_of(e) for e in elements], dtype=float)
    table = ModeTable(
        elements=elements,
        t=np.array([e.t for e in elements], dtype=np.int64),
        norm=np.array([e.norm for e in elements], dtype=np.int64),
        k=k, shell=shell,
        lo=k - sigma[shell] - inflate[:, shell],
        hi=k + sigma[shell] + inflate[:, shell],
    )
    for column in (table.t, table.norm, table.k, table.shell, table.lo,
                   table.hi):
        column.flags.writeable = False
    return table


def excluded_blocker(schedule: ScaleSchedule, lat: QuotientLattice, k: float,
                     scale: int, exempt):
    """First mode 0 < |m| <= 12 R^(scale), in ball order, whose open interval
    (k^-_{m,scale-1}, k^+_{m,scale-1}) contains k, with that interval; None
    when there is none. ``exempt`` holds the t of modes to skip (the principal
    pair of a resonant construction keeps its own interval as the allowed
    exception). The scale must be feasible, so that R^(scale) is finite."""
    table = mode_table(schedule, lat, 12.0 * schedule.R[scale])
    lo, hi = table.lo[scale - 1], table.hi[scale - 1]
    for i in np.flatnonzero((lo < k) & (k < hi)):
        m = table.elements[i]
        if m.t not in exempt:
            return m, (float(lo[i]), float(hi[i]))
    return None


# --- resonance profile of a momentum ---

@dataclass(frozen=True)
class ResonanceProfile:
    k: float
    ell: int                              # ell(k); -1 when k resonates nowhere
    n_points: tuple[GroupElement, ...]    # n^(0..ell)
    s_levels: tuple[int, ...]
    reflection_sets: tuple[frozenset, ...]  # m^(0..ell), as sets of t

    @property
    def resonant(self) -> bool:
        return self.ell >= 0

    def top(self) -> GroupElement | None:
        return self.n_points[-1] if self.resonant else None

    def top_reflection_set(self) -> frozenset:
        if not self.resonant:
            return frozenset()
        return self.reflection_sets[-1]


def resonance_profile(k: float, schedule: ScaleSchedule, lat: QuotientLattice,
                      truncation_R: float) -> ResonanceProfile:
    """The resonances of k among 0 < |n| <= truncation_R and their reflection sets.

    n resonates when |k - k_n| < (delta0^(shell))^(3/4), the analysis family
    of intervals. The resonances are ordered by norm, ties by t for k >= 0 and
    by -t for k < 0, so the profile of -k mirrors that of k.
    """
    table = mode_table(schedule, lat, truncation_R)
    widths = [0.0] + [schedule.delta[s] ** 0.75
                      for s in range(1, schedule.s_max + 1)]
    width = np.array(widths)[table.shell]
    sign = 1 if k >= 0 else -1
    hits = sorted(np.flatnonzero(np.abs(k - table.k) < width).tolist(),
                  key=lambda i: (table.norm[i], sign * table.t[i]))
    n_points = tuple(table.elements[i] for i in hits)
    s_levels = tuple(int(table.shell[i]) for i in hits)
    # m^(ell) = m^(ell-1) | (n^(ell) - m^(ell-1)), from m^(-1) = {0}, on t
    reflection = []
    for n_ell in n_points:
        current = reflection[-1] if reflection else frozenset({0})
        reflection.append(current | {n_ell.t - x for x in current})
    return ResonanceProfile(k=k, ell=len(n_points) - 1, n_points=n_points,
                            s_levels=s_levels,
                            reflection_sets=tuple(reflection))


@dataclass(frozen=True)
class OrderingAuditRecord:
    passed: bool
    violations: tuple
    checked_pairs: int


def resonance_gap_ordering_audit(profile: ResonanceProfile,
                                 schedule: ScaleSchedule) -> OrderingAuditRecord:
    """Separation |n^(l+1)| > R^(s^(l)+1)/2 for consecutive resonances (reported)."""
    violations = []
    checked = 0
    for ell in range(profile.ell):
        s_here = profile.s_levels[ell]
        if s_here + 1 > schedule.s_max:
            continue
        checked += 1
        threshold = 0.5 * schedule.R[s_here + 1]
        nxt = profile.n_points[ell + 1]
        if not nxt.norm > threshold:
            violations.append((profile.n_points[ell], nxt, threshold))
    return OrderingAuditRecord(passed=not violations,
                               violations=tuple(violations),
                               checked_pairs=checked)
