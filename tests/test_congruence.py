"""Tests for congruence subgroups: membership, transversals, generators."""

import copy
import random
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from artifact import congruence
from artifact.cli import main
from artifact.congruence import (
    CongruenceSubgroup,
    _WordTable,
    _p1_system,
    generator_data,
    generators,
    index,
    transversal,
)
from artifact.errors import FormatError, NotInGroup
from artifact.sl2z import I, S, T, U

from coset_enum import enumerated_index
from modforms_oracle import gamma1_index, index as oracle_index, principal_index

FROZEN = Path(__file__).resolve().parent / "frozen"


def gamma0(n):
    return CongruenceSubgroup.gamma0(n)


def gamma1(n):
    return CongruenceSubgroup.gamma1(n)


def principal(n):
    return CongruenceSubgroup.principal(n)


# index of Gamma_0(N): N * prod (1 + 1/p) over primes p | N
def psi(n):
    out = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            out += out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out += out // m
    return out


def test_membership_basics():
    assert gamma0(11).member(T)
    assert gamma0(997).member(T)
    assert not gamma0(11).member(S)
    assert principal(6).member(T ** 6)
    assert not principal(6).member(T ** 5)
    assert gamma1(6).member(T)
    assert not gamma1(6).member(-T)
    # -I sits in every Gamma_0 but only in low-level principal subgroups
    assert gamma0(50).member(-I)
    assert principal(2).member(-I)
    assert not principal(3).member(-I)


def test_bad_subgroup_parameters():
    with pytest.raises(FormatError):
        CongruenceSubgroup("hecke", 5)
    with pytest.raises(FormatError):
        CongruenceSubgroup("gamma0", 0)


def test_str_names():
    assert str(gamma0(39)) == "Gamma0(39)"
    assert str(principal(6)) == "Gamma(6)"
    assert str(gamma1(2)) == "Gamma1(2)"


def test_known_indices():
    assert index(gamma0(11)) == 12
    assert index(gamma0(39)) == 56
    assert index(gamma0(50)) == 90
    assert index(gamma0(1000)) == 1800
    assert index(principal(6)) == 144
    assert index(gamma1(6)) == 24
    assert index(gamma0(1)) == 1
    assert index(gamma1(1)) == 1
    assert index(principal(1)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 9, 12, 17, 24, 35, 49, 60])
def test_gamma0_index_formula(n):
    assert index(gamma0(n)) == psi(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 10, 12])
def test_gamma1_index_formula(n):
    assert index(gamma1(n)) == gamma1_index(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_principal_index_formula(n):
    assert index(principal(n)) == principal_index(n)


@pytest.mark.parametrize("n", [1, 2, 6, 11, 12, 25, 27, 39, 40, 98, 120, 200])
def test_p1_size_matches_transversal(n):
    assert len(transversal(gamma0(n))) == oracle_index(n)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 9, 13, 15, 16, 20])
def test_gamma1_transversal_matches_closed_form(n):
    assert len(transversal(gamma1(n))) == gamma1_index(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9])
def test_principal_transversal_matches_closed_form(n):
    assert len(transversal(principal(n))) == principal_index(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 16, 18])
def test_p1_canonical_form_unique(n):
    # enumerate all primitive pairs; classes under unit scaling must map to
    # exactly one canonical point each
    canon = _p1_system(n).canon
    units = [u for u in range(1, n + 1) if gcd(u, n) == 1]
    canon_of = {}
    for c in range(n):
        for d in range(n):
            if gcd(gcd(c, d), n) != 1:
                continue
            pt = canon(c, d)
            for u in units:
                pt2 = canon((u * c) % n, (u * d) % n)
                assert pt2 == pt
            canon_of[(c, d)] = pt
    distinct = set(canon_of.values())
    assert len(distinct) == (psi(n) if n > 1 else 1)
    # canonical points are fixed by re-reduction
    for pt in distinct:
        assert canon(*pt) == pt


def test_p1_known_points():
    canon = _p1_system(11).canon
    assert len({canon(c, d) for c in range(11) for d in range(11)
                if gcd(gcd(c, d), 11) == 1}) == 12
    assert canon(0, 5) == canon(0, 1)


def random_element(rng, length=24):
    g = I
    for _ in range(length):
        g = g * rng.choice([S, T, T.inverse(), U])
    return g


@pytest.mark.parametrize("gamma", [gamma0(11), gamma0(39), gamma1(6), principal(6)])
def test_lookup_random_elements(gamma):
    tr = transversal(gamma)
    assert tr.rep(0) == I
    rng = random.Random(11)
    for _ in range(1000):
        g = random_element(rng)
        i, gam = tr.lookup(g)
        assert gamma.member(gam)
        assert gam * tr.rep(i) == g


@pytest.mark.parametrize("m", [1, 2, 12, 38])
def test_gamma0_upper_cosets(m):
    # Gamma^0(m) = {m | b}, the S' of the Hecke operator T_m: its right
    # cosets are keyed by the first row, as Gamma0(m)'s by the bottom row
    upper = CongruenceSubgroup.gamma0_upper(m)
    tr = transversal(upper)
    assert len(tr) == index(upper) == oracle_index(m)
    assert tr.rep(0) == I
    rng = random.Random(m)
    for _ in range(200):
        y = random_element(rng, rng.randrange(1, 24))
        i, s = tr.lookup(y)
        assert s * tr.rep(i) == y
        assert s.b % m == 0
    gens = generators(upper)
    assert all(upper.member(g) for g in gens)
    assert enumerated_index(gens) == index(upper)
    assert str(upper) == "Gamma^0(%d)" % m


def test_reps_pairwise_inequivalent():
    for gamma in [gamma0(6), gamma1(4), principal(3)]:
        reps = transversal(gamma).reps
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not gamma.member(reps[i] * reps[j].inverse())


def test_generators_whole_group():
    gens = generators(gamma0(1))
    assert set(gens) == {S, U}


def test_generator_counts_frozen():
    assert len(generators(principal(6))) == 13
    assert len(generators(gamma0(39))) == 12
    assert len(generators(gamma0(11))) == 4
    # stated upper bounds
    assert len(generators(principal(6))) <= 13
    assert len(generators(gamma0(39))) <= 18


def test_generator_data_consistency():
    for gamma in [gamma0(11), gamma0(39), gamma0(50), gamma1(6), principal(6)]:
        data = generator_data(gamma)
        for g in data.generators:
            assert gamma.member(g)
        # cycle rank of the quotient graph counts the Schreier generators
        assert data.schreier_count == data.edges - data.vertices + 1
        for g, expr in data.dropped:
            assert gamma.member(g)
            assert len(expr) <= 2
            prod = I
            for idx, e in expr:
                t = data.generators[idx]
                prod = prod * (t if e == 1 else t.inverse())
            assert prod == g


def word_search(g, retained):
    """The word table's answer for g once it has kept retained."""
    table = _WordTable()
    for r in retained:
        table.keep(r)
    return table.expression(g)


def test_short_expression_witnesses():
    a = T
    b = S
    retained = [a, b]
    assert word_search(T, retained) == [(0, 1)]
    assert word_search(S.inverse(), retained) == [(1, -1)]
    expr = word_search(T * S.inverse(), retained)
    assert expr == [(0, 1), (1, -1)]
    assert word_search(I, retained) == []
    assert word_search(T ** 5, retained) is None


def test_torsion_free_cases_have_no_stabilizer_generators():
    # Gamma(6) and Gamma_1(6) act freely on the tree, so every generator
    # is a Schreier element of the quotient graph
    for gamma in [principal(6), gamma1(6)]:
        data = generator_data(gamma)
        assert data.stabilizer_count == 0
        assert len(data.generators) == data.schreier_count


CERTIFIED = [
    gamma0(1), gamma0(2), gamma0(4), gamma0(11), gamma0(25), gamma0(39),
    gamma0(50), gamma0(98), gamma1(2), gamma1(6), gamma1(8), gamma1(12),
    principal(2), principal(3), principal(4), principal(5), principal(6),
]


@pytest.mark.parametrize("gamma", CERTIFIED, ids=str)
def test_generation_certificate(gamma):
    # The matrices S and U satisfy s^4 = 1 and s^2 = u^3, the defining
    # relations of SL2(Z) as an amalgam; Todd-Coxeter enumeration of the
    # subgroup generated by the claimed generators therefore computes the
    # exact index of that subgroup.  Membership plus matching index pins
    # the generated subgroup to Gamma itself.
    assert S ** 4 == I
    assert S * S == U ** 3
    gens = generators(gamma)
    for g in gens:
        assert gamma.member(g)
    assert enumerated_index(gens) == index(gamma)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["gamma0", "gamma1", "principal"]), st.integers(1, 12))
def test_generation_certificate_random(kind, n):
    gamma = CongruenceSubgroup(kind, n)
    if index(gamma) > 200:
        return
    gens = generators(gamma)
    for g in gens:
        assert gamma.member(g)
    assert enumerated_index(gens) == index(gamma)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([6, 11, 39]))
def test_lookup_agrees_with_membership(seed, n):
    # two elements land on the same rep exactly when they differ by Gamma
    gamma = gamma0(n)
    tr = transversal(gamma)
    rng = random.Random(seed)
    g = random_element(rng, 12)
    h = random_element(rng, 12)
    same = tr.lookup(g)[0] == tr.lookup(h)[0]
    assert same == gamma.member(g * h.inverse())


def test_lookup_with_tampered_rep_raises():
    # a representative swapped for one of another coset: the table still
    # names coset 1, but g * rep^-1 is no longer in the group
    tr = copy.copy(transversal(gamma0(11)))
    tr.reps = list(tr.reps)
    tr.reps[1] = tr.reps[2]
    with pytest.raises(NotInGroup):
        tr.lookup(transversal(gamma0(11)).rep(1))


def test_p1_canon_rejects_imprimitive_point():
    with pytest.raises(NotInGroup):
        _p1_system(6).canon(0, 2)


# ---------------------------------------------------------------------------
# generator elimination against the all-pairs word search it replaced


def short_expression_all_pairs(g, retained):
    """The quadratic word search, kept as the reference."""
    if g == I:
        return []
    table = []
    for idx, r in enumerate(retained):
        table.append((r, (idx, 1)))
        table.append((r.inverse(), (idx, -1)))
    for a, ta in table:
        if a == g:
            return [ta]
    for a, ta in table:
        for b, tb in table:
            if a * b == g:
                return [ta, tb]
    return None


class AllPairsTable:
    """The reference in place of the word table generator_data builds."""

    def __init__(self):
        self.kept = []

    def keep(self, r):
        self.kept.append(r)

    def expression(self, g):
        return short_expression_all_pairs(g, self.kept)


TORSION = [I, -I, S, S.inverse(), U, U * U, U.inverse()]


def random_table(rng):
    out = []
    for _ in range(rng.randint(0, 8)):
        pick = rng.random()
        if out and pick < 0.25:
            out.append(rng.choice(out))
        elif pick < 0.55:
            # +-I or a conjugate of an element of order 4, 3 or 6
            h = random_element(rng, rng.randint(0, 6))
            out.append(h * rng.choice(TORSION) * h.inverse())
        else:
            out.append(random_element(rng, rng.randint(1, 10)))
    return out


def random_target(rng, retained):
    signed = retained + [r.inverse() for r in retained]
    pick = rng.randrange(4)
    if signed and pick == 0:
        return rng.choice(signed)
    if signed and pick == 1:
        return rng.choice(signed) * rng.choice(signed)
    if pick == 2:
        return rng.choice(TORSION)
    return random_element(rng, rng.randint(1, 12))


def test_short_expression_matches_all_pairs():
    rng = random.Random(2024)
    lengths = {None: 0, 0: 0, 1: 0, 2: 0}
    for _ in range(200):
        retained = random_table(rng)
        for _ in range(6):
            g = random_target(rng, retained)
            want = short_expression_all_pairs(g, retained)
            assert word_search(g, retained) == want
            lengths[None if want is None else len(want)] += 1
    # every branch of the search is exercised
    assert all(lengths.values()), lengths


SWEEP = ([gamma0(n) for n in range(1, 101)] + [gamma1(n) for n in range(1, 33)]
         + [principal(n) for n in range(1, 9)])


def test_generator_data_matches_all_pairs_reference(monkeypatch):
    got = [generator_data(gamma) for gamma in SWEEP]
    monkeypatch.setattr(congruence, "_WordTable", AllPairsTable)
    for gamma, data in zip(SWEEP, got):
        # generators, dropped and the four counts
        assert data == generator_data(gamma), gamma


def test_large_generating_sets_frozen(capsys):
    # output captured before the word search became a lookup, when these
    # two runs took about 41 s and 9 s
    start = time.perf_counter()
    for argv, name in [("generators --gamma0 1000 --format json",
                        "generators_gamma0_1000.json"),
                       ("generators --gamma1 60 --format json",
                        "generators_gamma1_60.json")]:
        assert main(argv.split()) == 0
        assert capsys.readouterr().out == (FROZEN / name).read_text()
    assert time.perf_counter() - start < 5
