"""Quadratic integer rings, ideals, and the torsion growth ratios.

The headline oracle is the Gaussian prime 41 + 56i of norm 4817: its
Hecke congruence subgroup has index 4818, and the frozen torsion list of
its abelianization gives the ratio 0.00913432 against the L-value ratio
0.0161957.  Everything else is structural: multiplicative norms, omega
closure, canonical ideal forms, character values against an Euler
criterion oracle.
"""

from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from artifact import quadring
from artifact.errors import EliminationError, FormatError, MixedField, ZeroIdeal
from artifact.quadring import (QuadIdeal, QuadInt, gamma0_index,
                               ideal_from_generators, l_ratio, parse_quad,
                               quad_character, torsion_ratio)

# square-free parameters covering both congruence classes mod 4 and signs
DS = [-1, -2, -3, -5, -7, 2, 5, 13]

# the frozen torsion list of the level (41+56i) abelianization
TORSION_41_56 = [2, 2, 4, 5, 7, 16, 29, 43, 157, 179, 1877, 7741, 22037,
                 292306033, 4078793513671]


def gaussian(a, b):
    return QuadInt(a, b, -1)


def _residues(a):
    """The residues of O/a as pairs (x, y) with 0 <= x < p, 0 <= y < s,
    zero first, and their product."""
    d = a.d
    (p, q), (_, s) = a.basis

    def mul(u, v):
        w = QuadInt(*u, d) * QuadInt(*v, d)
        t = w.a // p
        return w.a - t * p, (w.b - t * q) % s

    return [(x, y) for x in range(p) for y in range(s)], mul


def _orbit_count(a):
    """#P^1(O/a) by brute force, the oracle for gamma0_index: unimodular
    pairs of residues modulo a, counted up to scaling by units."""
    d = a.d
    elements, mul = _residues(a)

    def unimodular(*residues):
        gens = [QuadInt(*r, d) for r in residues if r != (0, 0)]
        return bool(gens) and ideal_from_generators(
            gens + a.generators()).norm() == 1

    units = [u for u in elements if unimodular(u)]
    seen = set()
    count = 0
    for u in elements:
        for v in elements:
            if (u, v) in seen or not unimodular(u, v):
                continue
            count += 1
            for w in units:
                seen.add((mul(w, u), mul(w, v)))
    return count


def all_ideals(d, bound):
    """Every ideal of norm 2..bound, by its normal form ((p, q), (0, s))."""
    for p in range(1, bound + 1):
        for s in range(1, bound // p + 1):
            for q in range(s):
                if p * s > 1:
                    try:
                        yield QuadIdeal(d, ((p, q), (0, s)))
                    except FormatError:
                        pass  # the lattice is not closed under omega


def test_norm_of_the_headline_element():
    x = gaussian(41, 56)
    assert x.norm() == 4817
    a = ideal_from_generators([x])
    assert a.norm() == 4817
    assert a.is_prime()


def test_headline_index():
    a = ideal_from_generators([gaussian(41, 56)])
    assert gamma0_index(a) == 4818


def test_prime_index_needs_no_unimodularity_test(monkeypatch):
    # the count comes from the factorisation of the norm: a split prime
    # costs one ideal sum, a + 4817 O, and no residue is visited
    built = []
    real = quadring.ideal_from_generators

    def counted(gens):
        built.append(gens)
        return real(gens)

    a = ideal_from_generators([gaussian(41, 56)])
    monkeypatch.setattr(quadring, "ideal_from_generators", counted)
    assert gamma0_index(a) == 4818
    assert len(built) == 1


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -15, 2, 5, 10, 13])
def test_index_matches_orbit_count(d):
    # every ideal of norm <= 30, principal or not (d = -5, -6, -15 and 10
    # have class number 2), against the brute-force count of P^1(O/a)
    for a in all_ideals(d, 30):
        assert gamma0_index(a) == _orbit_count(a), a


@pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -15, 2, 5, 10, 13])
def test_is_prime_matches_zero_divisor_oracle(d):
    # a nonzero finite ring is a domain exactly when its ideal is prime
    for a in all_ideals(d, 30):
        elements, mul = _residues(a)
        nonzero = elements[1:]
        domain = all(mul(u, v) != (0, 0) for u in nonzero for v in nonzero)
        assert a.is_prime() == domain, a


def test_index_of_thirty():
    # N = 900: 2 ramified, 3 inert, 5 split with both primes dividing (30)
    thirty = ideal_from_generators([gaussian(30, 0)])
    assert gamma0_index(thirty) == 900 * 3 * 10 * 36 // (2 * 9 * 25) == 2160


def test_small_indices():
    unit = ideal_from_generators([gaussian(1, 0)])
    assert gamma0_index(unit) == 1
    opi = ideal_from_generators([gaussian(1, 1)])
    assert opi.norm() == 2 and opi.is_prime()
    assert gamma0_index(opi) == 3
    # ramified square: the quotient is local with a 2-element maximal
    # ideal, so the projective line has 4 + 2 points
    two = ideal_from_generators([gaussian(2, 0)])
    assert two.norm() == 4 and not two.is_prime()
    assert gamma0_index(two) == 6
    # multiplicativity across the coprime factors 2 and 5
    ten = ideal_from_generators([gaussian(1, 3)])
    assert ten.norm() == 10
    assert gamma0_index(ten) == 18
    mixed = ideal_from_generators([gaussian(3, 0) * x
                                   for x in opi.generators()])
    assert mixed.norm() == 18
    assert gamma0_index(mixed) == 30


@pytest.mark.parametrize("gens, d, norm", [
    ([(1, 1)], -1, 2),
    ([(2, 1)], -1, 5),
    ([(3, 2)], -1, 13),
    ([(3, 0)], -1, 9),
    ([(2, 0)], -3, 4),
])
def test_prime_index_is_norm_plus_one(gens, d, norm):
    a = ideal_from_generators([QuadInt(x, y, d) for x, y in gens])
    assert a.norm() == norm and a.is_prime()
    # the brute-force orbit count agrees with the closed form
    assert gamma0_index(a) == norm + 1
    assert _orbit_count(a) == norm + 1


def test_two_generator_presentations_collapse():
    # 2 = -i (1+i)^2, so adding it changes nothing
    a = ideal_from_generators([gaussian(2, 0), gaussian(1, 1)])
    b = ideal_from_generators([gaussian(1, 1)])
    assert a == b and a.norm() == 2
    assert not b.member(gaussian(1, 0))
    assert b.member(gaussian(1, 1))
    # unit multiples generate the same canonical form
    x = gaussian(41, 56)
    assert (ideal_from_generators([x]).basis
            == ideal_from_generators([gaussian(0, 1) * x]).basis)
    # ramified square recovers the rational prime
    two = ideal_from_generators([gaussian(2, 0)])
    assert ideal_from_generators(
        [x * y for x in b.generators() for y in b.generators()]) == two


def test_inert_rational_prime():
    three = ideal_from_generators([gaussian(3, 0)])
    assert three.norm() == 9
    assert three.is_prime()
    assert quad_character(-1, 3) == -1
    assert gamma0_index(three) == 10
    # norm 9 without being (3) is not prime
    nine = ideal_from_generators([gaussian(3, 0), gaussian(0, 3)])
    assert nine == three


def test_character_values():
    assert quad_character(-1, 3) == -1
    assert quad_character(-1, 5) == 1
    # even arguments are killed by the conductor 4
    assert quad_character(-1, 2) == 0
    assert quad_character(-1, 4) == 0
    # first terms of the L(2) series: 1 - 1/9 + 1/25 - 1/49
    signs = [quad_character(-1, n) for n in (1, 3, 5, 7, 9)]
    assert signs == [1, -1, 1, -1, 1]


def _euler_character(D, p):
    # Legendre symbol by Euler's criterion, the independent oracle
    v = pow(D % p, (p - 1) // 2, p)
    return v - p if v > 1 else v


@pytest.mark.parametrize("d", DS)
def test_character_against_euler_criterion(d):
    D = d if d % 4 == 1 else 4 * d
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 4817):
        if D % p == 0:
            assert quad_character(d, p) == 0
        else:
            assert quad_character(d, p) == _euler_character(D, p)


def test_l_ratio_for_the_gaussian_field():
    val = l_ratio(-1)
    assert abs(val - 0.0161957) < 5e-4
    # and the 6 pi normalization is exactly three times larger
    assert abs(l_ratio(-1, pi_multiple=6) - 3 * val) < 1e-12


def test_torsion_ratio_headline():
    a = ideal_from_generators([gaussian(41, 56)])
    assert abs(torsion_ratio(TORSION_41_56, a) - 0.00913432) < 1e-5


def test_torsion_ratio_edges():
    unit = ideal_from_generators([gaussian(1, 0)])
    assert torsion_ratio([1], ideal_from_generators([gaussian(2, 1)])) == 0.0
    assert torsion_ratio([10], unit) == 1.0


def test_conjugation_conventions():
    # d = 1 mod 4: omega = (1 + sqrt d)/2, so conj(omega) = 1 - omega
    w5 = QuadInt(0, 1, 5)
    assert w5.conj() == QuadInt(1, -1, 5)
    assert w5.norm() == -1 and w5.trace() == 1
    # d = 2, 3 mod 4: omega = sqrt d
    wi = gaussian(0, 1)
    assert wi.conj() == gaussian(0, -1)
    assert wi.norm() == 1 and wi.trace() == 0
    one = gaussian(1, 0)
    assert one.norm() == 1 and one.trace() == 2


def test_quad_arith_dispatch():
    x, y = gaussian(2, 1), gaussian(1, -1)
    assert x + y == gaussian(3, 0)
    assert x * y == gaussian(3, -1)
    assert x.conj() == gaussian(2, -1)
    assert x.norm() == 5
    assert x.trace() == 4


def test_mixed_field_rejected():
    with pytest.raises(MixedField):
        gaussian(1, 0) + QuadInt(1, 0, -2)
    with pytest.raises(MixedField):
        gaussian(1, 0) * QuadInt(1, 0, 5)
    with pytest.raises(MixedField):
        ideal_from_generators([gaussian(1, 0), QuadInt(1, 0, -2)])
    with pytest.raises(MixedField):
        ideal_from_generators([gaussian(1, 1)]).member(QuadInt(1, 1, -2))


def test_zero_ideal_rejected():
    with pytest.raises(ZeroIdeal):
        ideal_from_generators([gaussian(0, 0)])
    with pytest.raises(ZeroIdeal):
        ideal_from_generators([])


def test_invalid_input_raises_format_error():
    # former asserts: each raises, also under python -O
    norm5 = ideal_from_generators([gaussian(2, 1)])
    bad = [lambda: QuadInt(1, 0, 4),                      # d not square-free
           lambda: QuadInt(1, 0, 1),
           lambda: quad_character(12, 5),
           lambda: quad_character(-1, 0),
           lambda: l_ratio(5),                            # d must be negative
           lambda: torsion_ratio([], norm5),
           lambda: torsion_ratio([2, 0], norm5),
           lambda: QuadIdeal(-1, ((2, 3), (0, 2))),       # q >= s
           lambda: QuadIdeal(-1, ((2, 0), (0, 1)))]       # i * i = -1 outside
    for call in bad:
        with pytest.raises(FormatError):
            call()


def test_parsing():
    assert parse_quad("41+56i", -1) == gaussian(41, 56)
    assert parse_quad("41 + 56*i", -1) == gaussian(41, 56)
    assert parse_quad("-3w", 5) == QuadInt(0, -3, 5)
    assert parse_quad("7", -2) == QuadInt(7, 0, -2)
    assert parse_quad("i", -1) == gaussian(0, 1)
    assert parse_quad("-i", -1) == gaussian(0, -1)
    assert parse_quad("3-2i", -1) == gaussian(3, -2)
    for bad in ("", "abc", "1+2x", "3+"):
        with pytest.raises(FormatError):
            parse_quad(bad, -1)


small = st.integers(-30, 30)
dchoice = st.sampled_from(DS)


@settings(max_examples=150, deadline=None)
@given(small, small, small, small, dchoice)
def test_norm_is_multiplicative(a, b, c, e, d):
    x, y = QuadInt(a, b, d), QuadInt(c, e, d)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x
    assert x.norm() == x.conj().norm()
    # norm and trace really are x*conj(x) and x + conj(x)
    assert x * x.conj() == QuadInt(x.norm(), 0, d)
    assert x + x.conj() == QuadInt(x.trace(), 0, d)


@settings(max_examples=60, deadline=None)
@given(small, small, small, small, dchoice)
def test_ideal_norm_is_multiplicative(a, b, c, e, d):
    x, y = QuadInt(a, b, d), QuadInt(c, e, d)
    if x.is_zero() or y.is_zero():
        return
    ia = ideal_from_generators([x])
    ib = ideal_from_generators([y])
    prod = ideal_from_generators(
        [u * v for u in ia.generators() for v in ib.generators()])
    assert prod.norm() == ia.norm() * ib.norm()
    # a principal ideal's norm is the element's, up to sign
    assert ia.norm() == abs(x.norm())
    assert prod == ideal_from_generators([x * y])


@settings(max_examples=60, deadline=None)
@given(small, small, small, small, dchoice)
def test_ideals_are_omega_modules(a, b, c, e, d):
    gens = [QuadInt(a, b, d), QuadInt(c, e, d)]
    if all(g.is_zero() for g in gens):
        return
    ideal = ideal_from_generators(gens)
    w = QuadInt(0, 1, d)
    for g in ideal.generators():
        assert ideal.member(g)
        assert ideal.member(w * g)
        assert ideal.member(g + g)
    for g in gens:
        if not g.is_zero():
            assert ideal.member(g)


def test_factor_matches_sympy():
    for n in range(1, 5001):
        got = quadring._factor(n)
        assert got == sympy.factorint(n), n
        assert list(got) == sorted(got)
    for n in (2 ** 21, 3 ** 13, 1000003, 1000003 ** 2, 1009 * 1013,
              1000003 * 1000033, 2 * 999983):
        assert quadring._factor(n) == sympy.factorint(n), n


pairs = st.lists(st.tuples(small, small), min_size=1, max_size=4)
# (i, j, t): add t times pair j to pair i, or swap them when t = 0;
# negate pair i when i = j
moves = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                           st.integers(-5, 5)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(pairs, moves)
def test_normal_form_is_a_lattice_invariant(rows, ops):
    minors = 0
    for i, (x1, y1) in enumerate(rows):
        for x2, y2 in rows[i + 1:]:
            minors = gcd(minors, x1 * y2 - x2 * y1)
    if minors == 0:
        with pytest.raises(EliminationError):
            quadring._hnf_rows(rows)
        return
    form = quadring._hnf_rows(rows)
    (p, _), (_, s) = form
    assert p * s == minors
    mixed = [list(r) for r in rows]
    for i, j, t in ops:
        i, j = i % len(mixed), j % len(mixed)
        if i == j:
            mixed[i] = [-x for x in mixed[i]]
        elif t == 0:
            mixed[i], mixed[j] = mixed[j], mixed[i]
        else:
            mixed[i] = [x + t * y for x, y in zip(mixed[i], mixed[j])]
    assert quadring._hnf_rows(mixed) == form
