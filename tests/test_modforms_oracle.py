"""Self-checks of the closed-form oracle in modforms_oracle.

The oracle stands in for the implementation in the H^1 rank sweep and in
acceptance check c03, so it is checked here against published values
only, none of them computed by the program: the genus and cusp table
frozen in test_cuspidal, the dimensions of cusp forms for the full
modular group, Ogg's list of genus-zero levels and the genus-two curves
X_0(37) and X_0(50).  The eigenform expansion, which acceptance check
c10 reads, is checked against the q-expansion of the level-11 newform
and the multiplicative Hecke recurrences.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modforms_oracle import (_integer, cusps, dim_cusp_forms,
                             expand_eigenform, gamma1_index, genus,
                             h1_free_rank, index, nu2, nu3, principal_index)
from test_cuspidal import MODULAR_CURVES

# the levels N with X_0(N) of genus zero (Ogg, 1974)
GENUS_ZERO_LEVELS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25}


@pytest.mark.parametrize("level, g, c", MODULAR_CURVES)
def test_genus_and_cusps_match_the_frozen_table(level, g, c):
    assert genus(level) == g
    assert cusps(level) == c


def test_full_modular_group_cusp_form_dimensions():
    # dim S_k(SL2(Z)) = floor(k/12) - [k = 2 mod 12] for even k >= 4
    for k in range(4, 27, 2):
        assert dim_cusp_forms(1, k) == k // 12 - (k % 12 == 2), k
    assert dim_cusp_forms(1, 2) == 0
    assert dim_cusp_forms(1, 5) == 0


def test_genus_zero_levels():
    for n in range(1, 61):
        assert (genus(n) == 0) == (n in GENUS_ZERO_LEVELS), n


def test_genus_two_curves():
    assert genus(37) == 2
    assert genus(50) == 2


def test_level_two_has_one_elliptic_point_of_order_two():
    # (-4/2) = 0: the product over p | 2 is 1, not 0 or 2
    assert (index(2), nu2(2), nu3(2), cusps(2)) == (3, 1, 0, 2)


def test_weight_six_level_fifty():
    # the free-rank target of acceptance check c03
    assert (index(50), nu2(50), nu3(50), cusps(50)) == (90, 2, 0, 12)
    assert dim_cusp_forms(50, 6) == 31
    assert h1_free_rank(50, 6) == 2 * 31 + 12 == 74


def test_weight_two_rank_counts_genus_and_cusps():
    for level, g, c in MODULAR_CURVES:
        assert dim_cusp_forms(level, 2) == g
        assert h1_free_rank(level, 2) == 2 * g + c - 1


def test_gamma1_and_principal_indices():
    # |SL2(Z/N)| for N = 2..7, and [Gamma_0(N) : Gamma_1(N)] = phi(N)
    assert [principal_index(n) for n in range(1, 8)] \
        == [1, 6, 24, 48, 120, 144, 336]
    assert [gamma1_index(n) for n in range(1, 8)] == [1, 3, 8, 12, 24, 24, 48]


def test_non_integral_values_raise():
    assert _integer(Fraction(6, 3), "x") == 2
    with pytest.raises(ArithmeticError):
        _integer(Fraction(1, 2), "x")
    with pytest.raises(ValueError):
        dim_cusp_forms(11, 0)


# ---------------------------------------------------------------------------
# eigenform coefficients


def test_level_eleven_expansion():
    ap = {2: -2, 3: -1, 5: 1, 7: -2, 11: 1}
    a = expand_eigenform(ap, 11, 12)
    assert a == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2]


def test_prime_power_at_level_prime():
    primes = [p for p in range(2, 122)
              if all(p % q for q in range(2, p))]
    ap = {p: 1 for p in primes}
    a = expand_eigenform(ap, 11, 121)
    # p dividing the level: a_{p^m} = a_p^m
    assert a[121 - 1] == 1
    ap[11] = 5
    a = expand_eigenform(ap, 11, 121)
    assert a[121 - 1] == 25


def test_missing_prime_raises():
    with pytest.raises(KeyError):
        expand_eigenform({2: -2}, 11, 5)
    # not needed below the bound, so no complaint
    assert expand_eigenform({2: -2}, 11, 2) == [1, -2]


def test_expansion_edge_cases():
    assert expand_eigenform({}, 11, 0) == []
    assert expand_eigenform({}, 11, 1) == [1]
    with pytest.raises(ValueError):
        expand_eigenform({}, 0, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_expansion_multiplicative(seed):
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    ap = {p: rng.randint(-5, 5) for p in primes}
    level = rng.choice([1, 2, 6, 11, 30])
    bound = 30
    a = expand_eigenform(ap, level, bound)
    assert a[0] == 1
    for r in range(2, bound + 1):
        for s in range(2, bound // r + 1):
            if gcd(r, s) == 1:
                assert a[r * s - 1] == a[r - 1] * a[s - 1]
    for p in primes:
        if p * p <= bound:
            if level % p == 0:
                assert a[p * p - 1] == ap[p] ** 2
            else:
                assert a[p * p - 1] == ap[p] ** 2 - p
