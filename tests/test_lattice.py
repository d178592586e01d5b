import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hillbands.errors import PreconditionFailed
from hillbands.lattice import (FrequencyVector, GroupElement, QuotientLattice,
                               check_diophantine)

from oracles import null_lattice, null_translate_rep, preimage, xi_raw

# the oracle's null lattice of each omega, built once
_null = functools.lru_cache(maxsize=None)(null_lattice)


# --- the vector-keyed canonicalization that the t-keyed table replaced ---

def vector_keyed_canonicalize(lat, cache, vec):
    """Reference path: cached per input vector, so each vector of a coset is
    searched on its own, over its null translates; t is read off xi."""
    v = tuple(int(x) for x in vec)
    cached = cache.get(v)
    if cached is not None:
        return cached
    best, best_norm = null_translate_rep(_null(lat.omega), v)
    xi = xi_raw(lat.omega, best)
    t = xi / lat.xi_spacing()
    assert t.denominator == 1
    elem = GroupElement(rep=best, norm=best_norm, xi=xi, xi_float=float(xi),
                        t=int(t))
    cache[v] = elem
    if best != v:
        cache[best] = elem
    return elem


def _fields(e):
    return (e.rep, e.norm, e.xi, e.t)


OMEGAS = [("1",), ("1/2", "1/2"), ("2/5", "3/7"), ("1", "3/7")]


@functools.lru_cache(maxsize=None)
def _shared_lattice(omega):
    return QuotientLattice(FrequencyVector.parse(omega))


@st.composite
def group_cases(draw):
    omega = draw(st.sampled_from(OMEGAS))
    vec = st.lists(st.integers(-9, 9), min_size=len(omega), max_size=len(omega))
    shifts = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    return omega, draw(vec), draw(vec), draw(st.lists(shifts, min_size=1,
                                                      max_size=3))


@given(group_cases())
def test_group_ops_match_vector_keyed_oracle(case):
    omega, u, v, shift_list = case
    ref_lat = _shared_lattice(omega)
    cache = {}
    canon = functools.partial(vector_keyed_canonicalize, ref_lat, cache)
    ou, ov = canon(u), canon(v)
    expected = {
        "u": ou, "v": ov,
        "add": canon([x + y for x, y in zip(ou.rep, ov.rep)]),
        "sub": canon([x - y for x, y in zip(ou.rep, ov.rep)]),
        "neg": canon([-x for x in ou.rep]),
    }
    basis = _null(ref_lat.omega).basis
    coset = [[x + sum(c * b[j] for c, b in zip(shifts, basis))
              for j, x in enumerate(u)] for shifts in shift_list]
    # a fresh lattice misses on every first lookup and meets u's coset first
    # through a shifted vector; the shared one hits on entries from earlier
    # examples; the second round over each hits on this example's entries
    for lat in (QuotientLattice(FrequencyVector.parse(omega)), ref_lat):
        for _ in range(2):
            first = lat.canonicalize(coset[0])
            a, b = lat.canonicalize(u), lat.canonicalize(v)
            got = {"u": a, "v": b, "add": lat.add(a, b), "sub": lat.sub(a, b),
                   "neg": lat.neg(a)}
            for name, elem in got.items():
                assert _fields(elem) == _fields(expected[name]), name
            assert lat.dist(a, b) == expected["sub"].norm
            assert first is a
            for w in coset:
                assert lat.canonicalize(w) is a
                assert _fields(canon(w)) == _fields(ou)


@st.composite
def xi_cases(draw):
    """nu in {1, 2}, components with denominators up to 13 (their sum |.|
    reaches 26, so the rescale is often above 1), and a few vectors."""
    nu = draw(st.sampled_from([1, 2]))
    component = st.builds(Fraction, st.integers(-13, 13), st.integers(1, 13))
    omega = draw(st.lists(component, min_size=nu, max_size=nu).filter(any))
    vec = st.lists(st.integers(-9, 9), min_size=nu, max_size=nu)
    return (tuple(str(c) for c in omega),
            draw(st.lists(vec, min_size=1, max_size=5)))


@given(xi_cases())
@example((("1", "3/7"), [[1, 0], [3, -7], [-4, 2]]))  # rescale 2
def test_canonicalize_xi_is_the_fraction_sum(case):
    # xi is read off t as xi_spacing * t; it equals the Fraction sum
    # sum_j v_j effective_j over the representative and over the vector
    omega, vectors = case
    lat = _shared_lattice(omega)
    for v in vectors:
        e = lat.canonicalize(v)
        assert isinstance(e.xi, Fraction)
        assert e.xi == xi_raw(lat.omega, e.rep) == xi_raw(lat.omega, v)
        assert e.xi == lat.xi_spacing() * e.t


@st.composite
def coset_rule_cases(draw):
    """nu in {1, 2, 3} with denominators up to 21 (their sum |.| often
    exceeds 1, so the rescale is above 1), a ball radius, coordinate offsets
    beyond that ball, and far vectors."""
    nu = draw(st.sampled_from([1, 2, 3]))
    component = st.builds(Fraction, st.integers(-21, 21), st.integers(1, 21))
    omega = draw(st.lists(component, min_size=nu, max_size=nu).filter(any))
    radius = draw(st.integers(0, 8))
    beyond = draw(st.lists(st.integers(1, 400), min_size=1, max_size=4))
    far = 40 if nu == 3 else 400
    vec = st.lists(st.integers(-far, far), min_size=nu, max_size=nu)
    return (tuple(str(c) for c in omega), radius, beyond,
            draw(st.lists(vec, min_size=1, max_size=3)))


@given(coset_rule_cases())
@example((("1", "3/7"), 8, [1, 2, 150], [[0, 10**5], [-3, 7]]))
@example((("1/2", "1/3", "1/6"), 8, [1, 20], [[0, 0, 40]]))
def test_least_vector_rule_matches_null_translate_oracle(case):
    # the least (|v|, v) of a coordinate in a box that reaches it, against
    # the least null translate of a vector of the coset
    omega, radius, beyond, vectors = case
    lat = QuotientLattice(FrequencyVector.parse(omega))
    null = _null(lat.omega)
    spacing = lat.xi_spacing()

    def oracle(v):
        rep, norm = null_translate_rep(null, v)
        xi = xi_raw(lat.omega, rep)
        assert xi == xi_raw(lat.omega, v)
        return rep, norm, xi, int(xi / spacing)

    # the ball: the oracle's canonicalizations of its box, from one vector
    # of least norm per coset (which keeps the searches small), in
    # (norm, rep) order
    shortest = {}
    for v in itertools.product(range(-radius, radius + 1), repeat=lat.nu):
        xi, norm = xi_raw(lat.omega, v), max(map(abs, v))
        if xi not in shortest or norm < shortest[xi][0]:
            shortest[xi] = (norm, v)
    expected = sorted((oracle(v) for _, v in shortest.values()),
                      key=lambda f: (f[1], f[0]))
    assert [_fields(e) for e in lat.ball(radius)] == expected
    assert all(norm <= radius for _, norm, _, _ in expected)
    # coordinates beyond the ball, on the doubling path of element
    top = max(abs(t) for _, _, _, t in expected)
    for t in ([top + d for d in beyond] + [-top - d for d in beyond]):
        v = preimage(null, t)
        assert xi_raw(lat.omega, v) == spacing * t
        assert _fields(lat.element(t)) == oracle(v)
    # far vectors, on a fresh table and on this one
    fresh = QuotientLattice(FrequencyVector.parse(omega))
    for v in vectors:
        assert _fields(fresh.canonicalize(v)) == oracle(v)
        assert lat.canonicalize(v) is lat.element(fresh.canonicalize(v).t)


def brute_force_kernel_rank(w, box=30):
    """Independent oracle: count independent kernel vectors in a box."""
    found = []
    for vec in itertools.product(range(-box, box + 1), repeat=len(w)):
        if any(vec) and sum(a * b for a, b in zip(vec, w)) == 0:
            found.append(vec)
    if not found:
        return 0
    # rank over Q: for nu=2 a single equation has rank <= 1
    return 1


def test_null_lattice_rank0_single_component():
    lat = null_lattice(FrequencyVector.parse(["3/7"]))
    assert lat.rank == 0
    assert lat.basis == ()


def test_null_lattice_half_half(half_lattice):
    null = null_lattice(half_lattice.omega)
    assert null.rank == 1
    assert null.basis == ((1, -1),)


def test_null_lattice_mixed_frequencies(mixed_lattice):
    # integer form of (2/5, 3/7) is (14, 15); the kernel is spanned by
    # (15, -14), so the rank is nu - 1 = 1 (the brute-force oracle agrees)
    omega = mixed_lattice.omega
    assert omega.integer_form == (14, 15)
    assert brute_force_kernel_rank(omega.integer_form) == 1
    null = null_lattice(omega)
    assert null.rank == 1
    (b,) = null.basis
    assert 14 * b[0] + 15 * b[1] == 0


def test_canonicalize_examples(half_lattice, line_lattice):
    e = half_lattice.canonicalize([1, 0])
    assert e.rep == (0, 1) and e.norm == 1 and e.xi == Fraction(1, 2)
    z = half_lattice.canonicalize([3, -3])
    assert z.rep == (0, 0) and z.norm == 0 and z.xi == 0
    f = QuotientLattice(FrequencyVector.parse(["3/7"])).canonicalize([5])
    assert f.rep == (5,) and f.norm == 5 and f.xi == Fraction(15, 7)
    # a far vector: t = 7 * 0 + 3 * 10**5 for the weights (7, 3)
    far = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    g = far.canonicalize([0, 10**5])
    assert g.rep == (30000, 30000) and g.norm == 30000


def test_canonicalize_minimality_bruteforce(half_lattice, mixed_lattice):
    # independent check of minimal-norm representatives: enumerate a generous
    # window of null-lattice multiples directly
    for lat in (half_lattice, mixed_lattice):
        basis = _null(lat.omega).basis
        for vec in itertools.product(range(-3, 4), repeat=2):
            got = lat.canonicalize(vec)
            best = None
            for c in range(-40, 41):
                cand = tuple(v - c * b for v, b in zip(vec, basis[0]))
                norm = max(abs(x) for x in cand)
                key = (norm, cand)
                if best is None or key < best:
                    best = key
            assert got.norm == best[0]
            assert got.rep == best[1]


def test_canonicalize_minimality_bruteforce_rank2():
    lat = QuotientLattice(FrequencyVector.parse(["1/2", "1/3", "1/6"]))
    b1, b2 = _null(lat.omega).basis
    for vec in itertools.product(range(-2, 3), repeat=3):
        got = lat.canonicalize(vec)
        best = None
        for c1 in range(-15, 16):
            for c2 in range(-15, 16):
                cand = tuple(v - c1 * x - c2 * y
                             for v, x, y in zip(vec, b1, b2))
                key = (max(abs(t) for t in cand), cand)
                if best is None or key < best:
                    best = key
        assert (got.norm, got.rep) == best


def test_canonicalize_idempotent_and_coset_constant(half_lattice):
    for vec in itertools.product(range(-4, 5), repeat=2):
        e = half_lattice.canonicalize(vec)
        assert half_lattice.canonicalize(e.rep) == e
        for b in _null(half_lattice.omega).basis:
            shifted = tuple(v + x for v, x in zip(vec, b))
            assert half_lattice.canonicalize(shifted) == e


def test_group_op_examples(half_lattice):
    a = half_lattice.canonicalize([1, 0])
    b = half_lattice.canonicalize([0, 1])
    s = half_lattice.add(a, b)
    assert s.rep == (1, 1) and s.xi == 1
    # xi is constant on cosets, so the canonical rep carries the exact sum
    assert s.xi == a.xi + b.xi
    d = half_lattice.sub(a, a)
    assert d.is_identity and d.xi == 0
    assert d.xi == a.xi - a.xi


def test_xi_additivity_exact(half_lattice, mixed_lattice):
    for lat in (half_lattice, mixed_lattice):
        ball = lat.ball(6)
        for a in ball[:12]:
            for b in ball[:12]:
                s = lat.add(a, b)
                assert s.xi == a.xi + b.xi  # exact rational identity


def test_norm_axioms_over_ball(line_lattice, half_lattice, mixed_lattice):
    for lat in (line_lattice, half_lattice, mixed_lattice):
        ball = lat.ball(6)
        for e in ball:
            assert e.norm >= 0
            assert (e.norm == 0) == e.is_identity
        for a in ball[:15]:
            for b in ball[:15]:
                assert lat.add(a, b).norm <= a.norm + b.norm


def test_xi_bounded_by_norm_after_rescale():
    # sum |omega_j| = 1.8 > 1 forces the rescale even though max <= 1
    lat = QuotientLattice(FrequencyVector.parse(["9/10", "9/10"]))
    assert lat.omega.rescale == 2
    for e in lat.ball(6):
        assert abs(e.xi) <= e.norm


def test_ball_examples(line_lattice, half_lattice):
    assert [e.rep for e in line_lattice.ball(0)] == [(0,)]
    assert len(line_lattice.ball(3)) == 7

    # brute-force coset-dedup oracle over the box of radius 4: for the
    # (1/2,1/2) lattice the coset of (a,b) is classified by a+b
    keys = set()
    for vec in itertools.product(range(-4, 5), repeat=2):
        keys.add(vec[0] + vec[1])
    expected = sum(1 for s in keys
                   if math.ceil(abs(s) / 2) <= 2)  # min linf norm of coset s
    assert len(half_lattice.ball(2)) == expected


def ball_growth_constant(lat, radii):
    """Empirical C with |B(R)| <= C R^nu, maximized over the sampled radii."""
    return max(len(lat.ball(R)) / R**lat.nu for R in radii if R > 0)


def test_ball_monotone_and_growth(half_lattice):
    sizes = [len(half_lattice.ball(R)) for R in (1, 2, 3, 4, 5)]
    assert sizes == sorted(sizes)
    b3 = {e.rep for e in half_lattice.ball(3)}
    b5 = {e.rep for e in half_lattice.ball(5)}
    assert b3 <= b5
    C = ball_growth_constant(half_lattice, [1, 2, 3, 4, 5, 6])
    for R in (1, 2, 3, 4, 5, 6):
        assert len(half_lattice.ball(R)) <= C * R**half_lattice.nu + 1e-9


def test_diophantine_examples(line_lattice, mixed_lattice, half_lattice):
    lat37 = QuotientLattice(FrequencyVector.parse(["3/7"]))
    rep = check_diophantine(lat37, 0.1, 2.0, 10.0)
    assert rep.satisfied

    rep2 = check_diophantine(mixed_lattice, 0.01, 3.0, 20.0)
    # brute-force the worst margin: |14 m1 + 15 m2| / 35 over the ball
    worst = None
    for e in mixed_lattice.ball(20.0):
        if e.is_identity:
            continue
        margin = abs(14 * e.rep[0] + 15 * e.rep[1]) / 35.0 * e.norm**3 / 0.01
        worst = margin if worst is None else min(worst, margin)
    assert rep2.worst_pair is not None
    assert rep2.worst_pair[1] == pytest.approx(worst, rel=1e-12)
    assert rep2.satisfied == (worst >= 1.0)

    rep3 = check_diophantine(half_lattice, 0.9, 3.0, 2.0)
    assert not rep3.satisfied
    assert rep3.worst_pair[0].norm == 1  # fails already at [(1,0)], xi = 1/2


def test_diophantine_preconditions(line_lattice):
    with pytest.raises(PreconditionFailed):
        check_diophantine(line_lattice, 1.5, 2.0, 5.0)
    with pytest.raises(PreconditionFailed):
        check_diophantine(line_lattice, 0.5, 0.5, 5.0)


def test_three_dimensional_lattice():
    lat = QuotientLattice(FrequencyVector.parse(["1/2", "1/3", "1/6"]))
    # integer form (3,2,1): kernel rank 2
    assert lat.omega.integer_form == (3, 2, 1)
    null = null_lattice(lat.omega)
    assert null.rank == 2
    for b in null.basis:
        assert 3 * b[0] + 2 * b[1] + 1 * b[2] == 0
    # canonicalize and group law stay exact
    a = lat.canonicalize([1, 0, 0])
    c = lat.canonicalize([0, 0, 1])
    s = lat.add(a, c)
    assert s.xi == a.xi + c.xi
    ball = lat.ball(2)
    assert all(e.norm <= 2 for e in ball)
    for e in ball:
        assert lat.canonicalize(e.rep) == e


def test_xi_subgroup_spacing(line_lattice, half_lattice, mixed_lattice):
    # xi(T) is discrete for rational data: spacing gcd(w)/L, verified against
    # the minimum over a ball
    for lat in (line_lattice, half_lattice, mixed_lattice):
        spacing = lat.xi_spacing()
        values = sorted({abs(e.xi) for e in lat.ball(8) if not e.is_identity})
        assert values[0] >= spacing
        assert any(v == spacing for v in values) or spacing <= values[0]
    assert mixed_lattice.xi_spacing() == Fraction(1, 35)


def test_integer_coordinate(line_lattice, half_lattice, mixed_lattice):
    # t = xi / spacing is an integer, injective on the quotient and additive
    three = QuotientLattice(FrequencyVector.parse(["1/2", "1/3", "1/6"]))
    rescaled = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    for lat in (line_lattice, half_lattice, mixed_lattice, three, rescaled):
        spacing = lat.xi_spacing()
        ball = lat.ball(3)
        for e in ball:
            assert isinstance(e.t, int) and e.t * spacing == e.xi
        assert len({e.t for e in ball}) == len(ball)
        for a, b in itertools.product(ball[:9], repeat=2):
            assert lat.sub(a, b).t == a.t - b.t
    assert len({e.t for e in rescaled.ball(6)}) == len(rescaled.ball(6)) == 109


def test_element_of_coordinate_on_a_fresh_table():
    # element(t) on a table that holds none of the ball scans for t alone
    # and finds the same record the whole-box pass of the ball found
    for omega in OMEGAS + [("1/2", "1/3", "1/6")]:
        ref = QuotientLattice(FrequencyVector.parse(omega))
        fresh = QuotientLattice(FrequencyVector.parse(omega))
        for e in reversed(ref.ball(6)):
            assert _fields(fresh.element(e.t)) == _fields(e)


def test_canonicalize_rejects_a_vector_without_nu_components():
    # zip would truncate the vector and cache the malformed rep under its t:
    # [1] and [1, 0, 5] both have the t of [1, 0]
    lat = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    for vec in ([1], [1, 0, 5], []):
        with pytest.raises(ValueError, match="nu = 2"):
            lat.canonicalize(vec)
    fresh = QuotientLattice(FrequencyVector.parse(["1", "3/7"]))
    t = fresh.canonicalize([1, 0]).t
    assert _fields(lat.element(t)) == _fields(fresh.element(t))


def test_a_box_whose_coordinates_overflow_int64_raises():
    # weights (2**61, 1): |t| reaches 4 * (2**61 + 1) >= 2**63 on the box of
    # radius 4, which int64 arithmetic would wrap without a word; a failed
    # precondition, so a sample that meets it is an error sample
    lat = QuotientLattice(FrequencyVector.parse(["1", f"1/{2**61}"]))
    assert lat.omega.integer_form == (2**61, 1)
    assert len(lat.ball(3)) == 49
    with pytest.raises(PreconditionFailed, match="overflow int64"):
        lat.ball(4)
    with pytest.raises(PreconditionFailed, match="overflow int64"):
        lat.canonicalize([0, 2**60])


def test_elements_compare_and_hash_by_t(half_lattice):
    # t is the one key: a record with another rep but the same t is equal
    e = half_lattice.canonicalize([2, 1])
    same_t = GroupElement(rep=(3, 0), norm=3, xi=e.xi, xi_float=e.xi_float,
                          t=e.t)
    assert same_t == e and hash(same_t) == hash(e) and {e: 1}[same_t] == 1
    other = GroupElement(rep=e.rep, norm=e.norm, xi=e.xi,
                         xi_float=e.xi_float, t=e.t + 1)
    assert other != e


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        FrequencyVector.parse(["0", "0"])
    with pytest.raises(ValueError, match="zero denominator"):
        FrequencyVector.parse(["1", "1/0"])
    with pytest.raises(ValueError):
        FrequencyVector(())
