"""Coefficient modules and group cohomology.

Cross-checks: universal coefficients against the homology computed from
the same resolutions, fixed small values for the full modular group, and
the dimension bookkeeping for spaces of modular forms (the free rank of
H^1(Gamma_0(N), P(k)) is twice the dimension of the weight-(k+2) cusp
space plus one Eisenstein class per cusp), swept over levels and weights
against the closed-form oracle in modforms_oracle.
"""

import hashlib
from functools import lru_cache

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from artifact import coeffmod
from artifact.chaincx import contract, homology
from artifact.coeffmod import (
    CochainComplexZ,
    PolynomialModule,
    action_matrix,
    cohomology,
    hom_complex,
)
from artifact.congruence import CongruenceSubgroup
from artifact.errors import (
    ActionMismatch,
    CompositionNonzero,
    DegreeOutOfRange,
    FormatError,
)
from artifact.exactlin import IntMatrix, homology_of_pair
from artifact.resolutions import (
    FreeZGResolution,
    restrict_resolution,
    sl2z_resolution,
)
from artifact.sl2z import I, S, T, U
from genhelpers import rank_drop_mod
from modforms_oracle import h1_free_rank

GENS = [S, S.inverse(), T, T.inverse(), U, U.inverse()]


@lru_cache(maxsize=None)
def full_group_complex(k):
    return hom_complex(sl2z_resolution(6), PolynomialModule(k))


@lru_cache(maxsize=None)
def gamma0_11_complex(k):
    R = restrict_resolution(sl2z_resolution(6),
                            CongruenceSubgroup.gamma0(11))
    return hom_complex(R, PolynomialModule(k))


# ---------------------------------------------------------------------------
# action matrices


def test_action_of_identity():
    for k in range(5):
        assert action_matrix(I, k) == IntMatrix.identity(k + 1)


def test_action_of_s_on_linear_forms():
    # x maps to y and y to -x
    assert action_matrix(S, 1).data == [[0, -1], [1, 0]]


def test_degree_zero_module_is_trivial():
    for g in (S, T, U, S * T * U):
        assert action_matrix(g, 0) == IntMatrix.identity(1)


def test_action_accepts_plain_matrices():
    a = action_matrix((1, 1, 0, 1), 3)
    b = action_matrix(T, 3)
    assert a == b
    assert action_matrix((1, 0, 0, 2), 1).data == [[2, 0], [0, 1]]


def test_action_rejects_garbage():
    with pytest.raises(FormatError):
        action_matrix("T", 2)
    with pytest.raises(FormatError):
        action_matrix((1, 0, 0), 2)
    with pytest.raises(FormatError):
        action_matrix((1, 2), 2)
    with pytest.raises(FormatError):
        action_matrix(T, -1)


def test_action_of_minus_one_depends_on_parity():
    minus = (-1, 0, 0, -1)
    assert action_matrix(minus, 4) == IntMatrix.identity(5)
    assert action_matrix(minus, 3) == IntMatrix.identity(4) * (-1)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(GENS), min_size=1, max_size=8),
       st.lists(st.sampled_from(GENS), min_size=1, max_size=8),
       st.integers(0, 4))
def test_action_is_left_multiplicative(wa, wb, k):
    ga = I
    for m in wa:
        ga = ga * m
    gb = I
    for m in wb:
        gb = gb * m
    assert action_matrix(ga * gb, k) == action_matrix(ga, k) * action_matrix(gb, k)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.sampled_from(GENS), min_size=1, max_size=10),
       st.integers(0, 4))
def test_action_of_group_element_is_unimodular(word, k):
    g = I
    for m in word:
        g = g * m
    assert sympy.Matrix(action_matrix(g, k).data).det() in (1, -1)


# ---------------------------------------------------------------------------
# hom complexes and cohomology of the full group


def test_full_group_trivial_coefficients():
    C = full_group_complex(0)
    assert str(cohomology(C, 0)) == "Z"
    # the abelianization Z/12 has no free part, so H^1 with Z
    # coefficients vanishes; H^2 picks up the Ext of Z/12
    assert str(cohomology(C, 1)) == "0"
    assert str(cohomology(C, 2)) == "Z/12"


def test_full_group_has_no_invariant_quadratic_forms():
    C = full_group_complex(2)
    assert str(cohomology(C, 0)) == "0"


def test_full_group_weight_twelve_rank():
    # one cusp form (weight 12) contributes two, Eisenstein one: rank 3
    C = full_group_complex(10)
    assert cohomology(C, 1).free_rank == 3


def test_degree_out_of_range():
    C = full_group_complex(0)
    with pytest.raises(DegreeOutOfRange):
        cohomology(C, 7)
    with pytest.raises(DegreeOutOfRange):
        cohomology(C, -1)


def test_top_degree_is_computable():
    # top degree reflects the truncation but must not crash
    C = full_group_complex(0)
    cohomology(C, C.top_degree())


# ---------------------------------------------------------------------------
# subgroups, universal coefficients


def test_gamma0_11_trivial_coefficients():
    # H_1 = Z/2 + Z^3 and H_2 = (Z/2)^3, so universal coefficients give
    # H^1 = Z^3 and H^2 = Hom(H_2, Z) + Ext(H_1, Z) = Z/2
    C = gamma0_11_complex(0)
    assert str(cohomology(C, 0)) == "Z"
    assert str(cohomology(C, 1)) == "Z^3"
    assert str(cohomology(C, 2)) == "Z/2"


def test_gamma0_11_weight_two_free_rank():
    # genus 1 and two cusps: rank = 2 * 1 + (2 - 1) = 3 in weight 2
    C = gamma0_11_complex(0)
    assert cohomology(C, 1).free_rank == 3


def unreduced_cohomology(C, n):
    """H^n from the Smith forms of the coboundaries as assembled."""
    return homology_of_pair(C.delta(n), C.delta(n - 1))


@lru_cache(maxsize=None)
def subgroup_complex(kind, level, weight, depth):
    R = restrict_resolution(sl2z_resolution(depth),
                            CongruenceSubgroup(kind, level))
    return hom_complex(R, PolynomialModule(weight - 2))


def test_contract_first_gives_identical_invariants():
    # cohomology contracts the truncation around degree n first; the
    # invariants must be those of the coboundaries as assembled
    cases = ([("gamma0", 11, w) for w in range(2, 9)]
             + [("gamma1", 13, 2), ("principal", 4, 2)])
    for kind, level, weight in cases:
        C = subgroup_complex(kind, level, weight, 6)
        for n in range(C.top_degree() + 1):
            assert cohomology(C, n) == unreduced_cohomology(C, n), \
                (kind, level, weight, n)


def test_cohomology_checks_squares_before_contracting():
    # delta_1 delta_0 = 1: contracting first would collapse both units
    # and hide the failure, so the check runs on the maps as given
    C = CochainComplexZ([1, 1, 1], [IntMatrix(1, 1, [[1]]),
                                    IntMatrix(1, 1, [[1]])])
    with pytest.raises(CompositionNonzero, match="is nonzero"):
        cohomology(C, 1)


def test_cohomology_contract_frozen(monkeypatch):
    # the truncation the cohomology-l64-w6 benchmark shape contracts;
    # digests of the collapse trace and of the reduced complex, recorded
    # before the heap key was packed into one integer.  Degree 1 has 960
    # sources and 960 targets, degree 2 has 480 sources and 960 targets,
    # so a radix taken from the sources alone would reorder degree 2
    seen = []

    def spy(K):
        D = contract(K)
        seen.append((K, D))
        return D
    monkeypatch.setattr(coeffmod, "contract", spy)
    C = subgroup_complex("gamma0", 64, 6, 2)
    assert str(cohomology(C, 1)) == "Z/2 + Z/4 + Z/48 + Z^80"
    (K, D), = seen
    assert K.ranks == [960, 960, 480]
    assert D.ranks == [564, 88, 4] and len(D.trace) == 872
    steps = repr([(s.degree, s.source, s.target) for s in D.trace])
    assert hashlib.sha256(steps.encode()).hexdigest() == \
        "03fa56e3695db199007fd6fb0ba3cdbb4e767a3fb1cc44a2f21b36d1c6e6d10a"
    assert hashlib.sha256(D.to_text().encode()).hexdigest() == \
        "aa59d065af8710007f4fdb3ddcb2e0e58112cdf08278e2d169fc9f49504e43cf"


def test_gamma0_50_weight_six():
    # free rank 74 = 2 * 31 + 12: twice the weight-6 cusp dimension plus
    # one Eisenstein class per cusp; torsion 2, 4, 120
    C = subgroup_complex("gamma0", 50, 6, 6)
    reduced = contract(C.as_chain_complex())
    top = C.top_degree()
    h1 = homology(reduced, top - 1)
    assert h1.torsion == [2, 4, 120]
    assert h1.free_rank == 74
    h5 = homology(reduced, top - 5)
    assert h5.torsion == [2] * 77
    assert h5.free_rank == 0


# the cohomology-l64-w6 benchmark shape (Z/2 + Z/4 + Z/48) and both
# degrees of check c03 at level 50, weight 6 (Z/2 + Z/4 + Z/120 and
# (Z/2)^77), whose torsion targets are frozen
@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("level, weight, depth, n", [
    (64, 6, 2, 1), (50, 6, 6, 1), (50, 6, 6, 5)])
def test_torsion_matches_rank_drop_mod_p(level, weight, depth, n, p):
    C = subgroup_complex("gamma0", level, weight, depth)
    torsion = cohomology(C, n).torsion
    assert sum(1 for t in torsion if t % p == 0) == \
        rank_drop_mod(C.delta(n - 1), p)


@lru_cache(maxsize=None)
def gamma0_degree_three(level):
    # degrees 0..3 of the resolution are enough for H^1
    return restrict_resolution(sl2z_resolution(3),
                               CongruenceSubgroup.gamma0(level))


# weight 2 (trivial coefficients), odd weight (-I acts by -1) and weights
# 4 and 6 at prime, prime-power and composite levels; weight 6 at levels
# 30 and 36 is left out for time, and level 50 is the case of check c03
RANK_SWEEP = ([(n, k) for n in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 14,
                                16, 18, 20, 23, 25, 27)
               for k in (2, 3, 4, 6)]
              + [(n, k) for n in (30, 36) for k in (2, 3, 4)]
              + [(50, 6)])


@pytest.mark.parametrize("level, weight", RANK_SWEEP)
def test_h1_free_rank_matches_eichler_shimura(level, weight):
    C = hom_complex(gamma0_degree_three(level), PolynomialModule(weight - 2))
    assert cohomology(C, 1).free_rank == h1_free_rank(level, weight)


def test_action_mismatch_on_abstract_group():
    R = FreeZGResolution(("cyclic", 4), [1], [[]])
    with pytest.raises(ActionMismatch):
        hom_complex(R, PolynomialModule(2))


def test_coboundary_squares_to_zero_exactly():
    for k in (0, 1, 2):
        C = hom_complex(sl2z_resolution(4), PolynomialModule(k))
        for n in range(len(C.deltas) - 1):
            assert (C.deltas[n + 1] * C.deltas[n]).is_zero(), (k, n)


def test_cochain_shape_validation():
    with pytest.raises(FormatError):
        CochainComplexZ([2, 3], [])
    with pytest.raises(FormatError):
        CochainComplexZ([2, 3], [IntMatrix.zeros(2, 2)])


def test_odd_weight_with_minus_one_is_torsion():
    # -1 is in Gamma_0(11) and acts by -1 on odd-degree forms, so the
    # rational cohomology vanishes in every degree
    C = gamma0_11_complex(1)
    for n in range(3):
        assert cohomology(C, n).free_rank == 0


def test_as_chain_complex_reverses_ranks():
    C = gamma0_11_complex(0)
    chain = C.as_chain_complex()
    assert chain.ranks == list(reversed(C.ranks))
