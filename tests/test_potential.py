import dataclasses
import math

import numpy as np
import pytest

from hillbands.errors import NonRealValue, ValidationFailed
from hillbands.lattice import FrequencyVector, QuotientLattice
from hillbands.potential import (FourierCoefficients, cosine, exp_decay, fold,
                                 multi_cosine, random_phase, validate)
from hillbands.oracle import period

from oracles import eval_potential, eval_potential_raw


def test_validate_exp_decay_ok():
    c = exp_decay(5, nu=1, kappa0=1.0, alpha0=1.0)
    assert validate(c) == []


def test_validate_flags_nonzero_mean():
    c = FourierCoefficients(entries={(0,): 0.1 + 0j}, kappa0=1.0, alpha0=1.0,
                            support_radius=1)
    violations = validate(c)
    assert any("c(0)" in v for v in violations)


def test_validate_flags_conjugate_asymmetry():
    c = FourierCoefficients(
        entries={(1,): 0.5 + 0.1j, (-1,): 0.5 - 0.2j},
        kappa0=0.1, alpha0=1.0, support_radius=1)
    violations = validate(c)
    assert any("conjugate symmetry" in v and "1" in v for v in violations)


def test_validate_flags_decay_violation():
    c = FourierCoefficients(entries={(2,): 0.9 + 0j, (-2,): 0.9 + 0j},
                            kappa0=1.0, alpha0=1.0, support_radius=2)
    assert any("decay bound" in v for v in validate(c))


def test_fold_identity_on_rank0(line_lattice):
    c = exp_decay(4, nu=1, kappa0=1.0, alpha0=1.0)
    folded = fold(c, line_lattice)
    for n, v in c.entries.items():
        e = line_lattice.canonicalize(n)
        assert folded.value(e) == v


def test_fold_two_term_coset_sum(half_lattice):
    # (1,0) and (0,1) differ by (1,-1) in the null lattice: values add
    c = multi_cosine([((1, 0), 0.25), ((0, 1), 0.25)], kappa0=0.5, alpha0=1.0)
    folded = fold(c, half_lattice)
    e = half_lattice.canonicalize([1, 0])
    assert folded.value(e) == pytest.approx(0.5)


def test_fold_matches_bruteforce_oracle(half_lattice):
    c = random_phase(7, nu=2, kappa0=1.0, seed=42, amplitude_scale=0.9,
                     alpha0=1.0)
    folded = fold(c, half_lattice, enforce_bound=False)
    # independent oracle: classify cosets of span{(1,-1)} by a+b and sum
    sums = {}
    for vec, v in c.entries.items():
        sums[vec[0] + vec[1]] = sums.get(vec[0] + vec[1], 0j) + v
    for e, v in folded.entries.items():
        key = e.rep[0] + e.rep[1]
        assert v == pytest.approx(sums[key], abs=1e-15)


def test_folded_conjugate_symmetry_exact(half_lattice):
    c = random_phase(5, nu=2, kappa0=1.0, seed=3, amplitude_scale=0.8,
                     alpha0=1.0)
    folded = fold(c, half_lattice, enforce_bound=False)
    for e, v in folded.entries.items():
        assert folded.value(half_lattice.neg(e)) == v.conjugate()


def test_folded_decay_bound(line_lattice, half_lattice):
    # the trivial quotient keeps each c(n) on its own coset, at the bound
    # exp(-kappa0 |n|^alpha0); on omega = (1/2, 1/2) the coset of (0, 1) adds
    # c(1, 0) and c(0, 1) and goes over it
    for alpha0 in (1.0, 0.5):
        folded = fold(exp_decay(6, nu=1, kappa0=1.0, alpha0=alpha0),
                      line_lattice)
        for e, v in folded.entries.items():
            assert abs(v) <= math.exp(-e.norm**alpha0) * (1 + 1e-12)
        with pytest.raises(ValidationFailed, match=r"fails at \[0,1\]:"):
            fold(exp_decay(1, nu=2, kappa0=1.0, alpha0=alpha0), half_lattice)


def test_eval_potential_zero(line_lattice):
    c = FourierCoefficients(entries={}, kappa0=1.0, alpha0=1.0, support_radius=0)
    folded = fold(c, line_lattice)
    assert eval_potential(0.3, folded) == 0.0


def test_eval_potential_cosine(line_lattice):
    c = cosine([1], kappa0=0.1, amplitude=0.5, alpha0=1.0)
    folded = fold(c, line_lattice)
    for x in (0.0, 0.1, 0.37, 0.5):
        assert eval_potential(x, folded) == pytest.approx(
            math.cos(2 * math.pi * x), abs=1e-12)


def test_eval_potential_periodicity(mixed_lattice):
    c = random_phase(3, nu=2, kappa0=1.0, seed=7, alpha0=1.0,
                     amplitude_scale=1.0)
    folded = fold(c, mixed_lattice, enforce_bound=False)
    T = float(period(mixed_lattice.omega))
    rng = np.random.default_rng(0)
    for x in rng.uniform(-5, 5, 100):
        assert eval_potential(x + T, folded) == pytest.approx(
            eval_potential(x, folded), abs=1e-12)


def test_fold_then_evaluate_equals_evaluate_then_restrict(half_lattice):
    c = random_phase(4, nu=2, kappa0=1.0, seed=11, amplitude_scale=0.7,
                     alpha0=1.0)
    folded = fold(c, half_lattice, enforce_bound=False)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-3, 3, 25):
        assert eval_potential(x, folded) == pytest.approx(
            eval_potential_raw(x, c, half_lattice.omega), abs=1e-12)


def test_eval_potential_nonreal_raises(line_lattice):
    folded = fold(cosine([1], kappa0=0.1, amplitude=0.5,
                         alpha0=1.0), line_lattice)
    corrupted = dict(folded.entries)
    key = next(iter(corrupted))
    corrupted[key] = corrupted[key] + 0.2j
    bad = dataclasses.replace(folded, entries=corrupted)
    with pytest.raises(NonRealValue):
        eval_potential(0.3, bad)


def test_fold_rejects_invalid_input(line_lattice):
    c = FourierCoefficients(entries={(0,): 1.0 + 0j}, kappa0=1.0, alpha0=1.0,
                            support_radius=1)
    with pytest.raises(ValidationFailed):
        fold(c, line_lattice)


def test_fold_rejects_modes_without_nu_components():
    # the walk over nu-tuples would miss every 1-tuple and fold to zero
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    with pytest.raises(ValueError, match="nu = 2"):
        fold(cosine([2], kappa0=1.0, alpha0=1.0, amplitude=None), lat)
