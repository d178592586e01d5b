"""The four benchmark workloads and the inputs each one hands to the CLI.

Each workload is one user command: ``hillbands band <config>`` on a config
file, or ``hillbands verify --suite all``. Only ``resonant_2d`` draws its
inputs from the seed (the ``random_phase`` coefficients); the others are
fixed, and their seed is only recorded. See README.md for why each workload
was chosen and which layer it stresses.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

# The base config of tests/test_cli.py, which the strict workload overrides
# exactly as test_strict_mode_run does.
_CLI_TEST_BASE = {
    "lattice": {"nu": 1, "omega": ["1"]},
    "potential": {"kind": "cosine", "n0": [1], "kappa0": 1.0, "alpha0": 1.0},
    "coupling": 0.05,
    "mode": "practical",
    "schedule": {"beta": 0.5, "R1": 12.0, "s_max": 2, "s_cap": 1,
                 "sigma_scale": 1e-8, "eps0": 0.5},
    "diophantine": {"a0": 0.5, "b0": 2.0, "Rbar0": 8},
    "k_grid": {"min": 0.05, "max": 0.2, "step": 0.05},
    "truncation_R": 12,
    "gaps": [[-1]],
    "audits": ["symmetry", "monotonicity", "increments"],
}


def strict_1001_config() -> dict:
    """Strict mode, R1 = 250: two k on |Lambda| = 1001 balls, no oracle."""
    config = copy.deepcopy(_CLI_TEST_BASE)
    config.update({
        "mode": "strict",
        "schedule": {"R1": 250.0, "s_max": 1, "s_cap": 1},
        "k_grid": {"list": [0.11, 0.31]},
        "gaps": [],
        "audits": ["increments"],
    })
    return config


def resonant_2d_config(seed: int) -> dict:
    """nu = 2, omega = (1, 3/7), plain balls: every k takes a pair route.

    With R1 = 9 every k of [0.05, 0.45] is resonant, so the four k below go
    to OPR or GSR-2 on matrices of about 360 (0.25 would be a k_m and is
    dropped by band_curve, hence 0.225).
    """
    return {
        "lattice": {"nu": 2, "omega": ["1", "3/7"]},
        "potential": {"kind": "random_phase", "support_radius": 2,
                      "amplitude_scale": 0.5, "kappa0": 0.5, "alpha0": 1.0,
                      "seed": seed},
        "coupling": 0.05,
        "mode": "practical",
        "schedule": {"beta": 0.5, "R1": 9.0, "s_max": 2, "s_cap": 1,
                     "sigma_scale": 1e-8, "eps0": 0.5},
        "k_grid": {"list": [0.05, 0.15, 0.225, 0.35]},
        "truncation_R": 6,
        "use_domains": False,
        "gaps": [[0, 1]],
        "audits": ["symmetry", "monotonicity", "increments", "decay",
                   "gap_spectrum", "floquet"],
        "floquet_grid": {"min": 0.5, "max": 60.0, "count": 20},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]        # CLI arguments; "{config}" is the config path

    def config(self, root: Path, seed: int) -> dict | None:
        """The config the CLI reads, or None for ``verify``."""
        if self.name == "reference":
            with open(root / "configs" / "reference.json", encoding="utf-8") as fh:
                return json.load(fh)
        if self.name == "strict_1001":
            return strict_1001_config()
        if self.name == "resonant_2d":
            return resonant_2d_config(seed)
        return None


# One worker thread: with the CLI default (os.cpu_count()) the per-k thread
# pool contends for the GIL, and back-to-back reference runs on two cores
# spread over 0.98-1.62 s, against 0.88-0.96 s with one (see README.md).
BAND_ARGV = ("--threads", "1", "band", "{config}")

WORKLOADS = {w.name: w for w in (
    Workload("reference", BAND_ARGV),
    Workload("strict_1001", BAND_ARGV),
    Workload("resonant_2d", BAND_ARGV),
    Workload("verify_all", ("--threads", "1", "verify", "--suite", "all")),
)}
