"""Restricted boundary rows and the chain accumulator, against references.

restrict_resolution and tensor_with_z(R, gamma) read the same coset
permutations, composed from those of S and U, which are checked here
against a lookup per coset and element; restriction forms each
gamma-element as rep(t) * g * rep(ti)^-1 and shares each restricted
boundary entry among the rows that use it, while tensor_with_z never
builds the restricted resolution.  ChainSum adds in place into dicts it
owns.  Each must give
exactly what the plain construction gives: the same values, and the same
key order and term order, because downstream assembly iterates rows,
chains and columns in dict order.  The references here are those plain
constructions.
"""

import copy
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from artifact import resolutions
from artifact.chaincx import contract
from artifact.cli import build_parser, config_from_args, run
from artifact.congruence import CongruenceSubgroup, Transversal, transversal
from artifact.errors import NotInGroup
from artifact.resolutions import (ChainSum, GroupRingElement,
                                  borel_serre_complex, restrict_resolution,
                                  sl2z_resolution, sub_resolution,
                                  tensor_with_z, wall_resolution)
from artifact.sl2z import I, S, T, U


def _accumulate(out, key, x):
    """out[key] += x, a new element per add; a zero sum drops the key."""
    cur = out.get(key)
    new = x if cur is None else cur + x
    if new.is_zero():
        out.pop(key, None)
    else:
        out[key] = new


def reference_rows(resolution, trans, n):
    """The restricted degree-n rows, one transversal lookup per term."""
    nt = len(trans)
    rows = []
    for base_row in resolution.boundary_rows(n):
        for t in range(nt):
            rep = trans.rep(t)
            row = {}
            for i, gre in base_row.items():
                for g, c in gre.items():
                    ti, gam = trans.lookup(rep * g)
                    _accumulate(row, i * nt + ti,
                                GroupRingElement.unit(gam, c))
            rows.append(row)
    return rows


def ordered(chain):
    """A chain as nested lists, so == also compares key and term order."""
    return [(k, list(v.terms.items())) for k, v in chain.items()]


def assert_rows_match(resolution, gamma):
    W = restrict_resolution(resolution, gamma)
    for n in range(1, resolution.top_degree() + 1):
        got = W.boundary_rows(n)
        want = reference_rows(resolution, transversal(gamma), n)
        assert len(got) == len(want)
        for r, (a, b) in enumerate(zip(got, want)):
            assert ordered(a) == ordered(b), (n, r)


def test_restricted_rows_gamma0_300():
    gamma = CongruenceSubgroup.gamma0(300)
    assert_rows_match(sl2z_resolution(3), gamma)


def test_restricted_rows_gamma1_12():
    gamma = CongruenceSubgroup.gamma1(12)
    assert_rows_match(sl2z_resolution(3), gamma)


def test_restricted_rows_principal_4():
    gamma = CongruenceSubgroup.principal(4)
    assert_rows_match(sl2z_resolution(3), gamma)


def test_restricted_rows_borel_serre_gamma0_11():
    gamma = CongruenceSubgroup.gamma0(11)
    assert_rows_match(wall_resolution(borel_serre_complex(), 3), gamma)


def test_restricted_rows_hecke_subgroup():
    # the source of the Hecke chain map: the SL2(Z)-level resolution,
    # truncated, restricted to S' = Gamma^0(2)
    R = sl2z_resolution(2)
    truncated = sub_resolution(R, [[(j, 1) for j in range(R.rank(k))]
                                   for k in range(2)])
    assert_rows_match(truncated, CongruenceSubgroup.gamma0_upper(2))


def test_shared_entries_survive_d_and_h():
    # rows share restricted entries, so a mutation by d or h would show
    # in every row that uses the entry
    gamma = CongruenceSubgroup.gamma0(11)
    R = sl2z_resolution(3)
    W = restrict_resolution(R, gamma)
    rng = random.Random(11)
    gens = [S, S.inverse(), T, T.inverse(), U, U.inverse()]
    for n in range(W.top_degree()):
        for j in range(0, W.rank(n), 5):
            g = I
            for _ in range(rng.randrange(1, 10)):
                g = g * rng.choice(gens)
            c = {j: GroupRingElement([(g, 2), (I, -1)])}
            W.d(n + 1, W.h(n, c))
            if n:
                W.h(n - 1, W.d(n, c))
    fresh = restrict_resolution(R, gamma)
    for n in range(1, W.top_degree() + 1):
        for a, b in zip(W.boundary_rows(n), fresh.boundary_rows(n)):
            assert ordered(a) == ordered(b)


# ---------------------------------------------------------------------------
# Z tensored over gamma from coset tables, against the restricted route


def columns(C):
    """Every boundary column of a complex, with its key order."""
    return [[list(col.items()) for col in d.columns] for d in C.diffs]


def augmentation_columns(resolution):
    """The boundary columns of Z tensor_ZG R, one coefficient sum per entry."""
    out = []
    for n in range(1, resolution.top_degree() + 1):
        degree = []
        for row in resolution.boundary_rows(n):
            col = [(i, gre.augmentation()) for i, gre in row.items()]
            degree.append([(i, v) for i, v in col if v])
        out.append(degree)
    return out


def assert_tensor_matches(resolution, gamma):
    W = restrict_resolution(resolution, gamma)
    got = tensor_with_z(resolution, gamma)
    want = tensor_with_z(W)
    assert got.ranks == want.ranks == W.ranks
    # the second reference shares no code with tensor_with_z
    assert columns(got) == columns(want) == augmentation_columns(W)
    a, b = contract(got), contract(want)
    assert a.ranks == b.ranks
    assert a.trace == b.trace
    assert columns(a) == columns(b)


def test_tensor_over_gamma0_300():
    assert_tensor_matches(sl2z_resolution(3), CongruenceSubgroup.gamma0(300))


def test_tensor_over_gamma0_11():
    assert_tensor_matches(sl2z_resolution(4), CongruenceSubgroup.gamma0(11))


def test_tensor_over_gamma1_12():
    assert_tensor_matches(sl2z_resolution(4), CongruenceSubgroup.gamma1(12))


def test_tensor_over_principal_4():
    assert_tensor_matches(sl2z_resolution(4), CongruenceSubgroup.principal(4))


def test_tensor_over_gamma0_11_borel_serre():
    assert_tensor_matches(wall_resolution(borel_serre_complex(), 4),
                          CongruenceSubgroup.gamma0(11))


def test_tensor_over_the_whole_group_sums_coefficients():
    for R in (sl2z_resolution(4),
              wall_resolution(borel_serre_complex(), 4)):
        C = tensor_with_z(R)
        assert C.ranks == R.ranks
        assert columns(C) == augmentation_columns(R)


def test_cli_homology_builds_no_restricted_resolution(monkeypatch):
    # homology and contract take Z tensor_gamma F straight from coset
    # tables; only the module action of cohomology needs gamma-elements
    def refuse(*args, **kwargs):
        raise AssertionError("restrict_resolution called")
    monkeypatch.setattr(resolutions, "restrict_resolution", refuse)
    for argv in ("homology --gamma0 11 --degree 2 --contract",
                 "contract --gamma0 11"):
        out = io.StringIO()
        assert run(config_from_args(build_parser().parse_args(argv.split())),
                   out=out) == 0
        assert out.getvalue()


# ---------------------------------------------------------------------------
# coset tables composed from the permutations of S and U


def boundary_elements(resolution):
    """Every group element of a resolution's boundary rows, once each."""
    seen = {}
    for n in range(1, resolution.top_degree() + 1):
        for row in resolution.boundary_rows(n):
            for gre in row.values():
                for g, _ in gre.items():
                    seen.setdefault(g, None)
    return list(seen)


def random_words(rng, count):
    """Products of up to 12 letters S^+-1, T^+-1, half of them times -I."""
    out = []
    for _ in range(count):
        g = I
        for _ in range(rng.randint(0, 12)):
            g = g * rng.choice([S, S.inverse(), T, T.inverse()])
        out.append(-g if rng.random() < 0.5 else g)
    return out


@pytest.mark.parametrize("gamma", [
    CongruenceSubgroup.gamma0(300), CongruenceSubgroup.gamma1(13),
    CongruenceSubgroup.principal(6), CongruenceSubgroup.gamma1(2)], ids=str)
def test_composed_coset_permutations_match_lookups(gamma):
    trans = transversal(gamma)
    table = resolutions._coset_permutations(trans)
    elements = (boundary_elements(sl2z_resolution(6)) + [-I]
                + random_words(random.Random(7), 80))
    for g in elements:
        assert table(g) == [trans.lookup(trans.rep(t) * g)[0]
                            for t in range(len(trans))], g


@pytest.mark.parametrize("construct", [tensor_with_z, restrict_resolution],
                         ids=lambda f: f.__name__)
def test_tensor_looks_up_each_coset_once_per_generator(monkeypatch,
                                                       construct):
    # one checked lookup per coset for each of S and U; the tables of the
    # 11 distinct boundary elements are composed from those two
    calls = []
    lookup = Transversal.lookup

    def counted(self, g):
        calls.append(g)
        return lookup(self, g)
    monkeypatch.setattr(Transversal, "lookup", counted)
    gamma = CongruenceSubgroup.gamma0(300)
    construct(sl2z_resolution(6), gamma)
    assert len(calls) == 2 * len(transversal(gamma)) == 1440


def _restrict_along(tr, monkeypatch):
    monkeypatch.setattr(resolutions, "transversal", lambda gamma: tr)
    restrict_resolution(sl2z_resolution(2), tr.group)


@pytest.mark.parametrize("construct", [
    lambda tr, monkeypatch: resolutions._coset_permutations(tr),
    _restrict_along], ids=["_coset_permutations", "restrict_resolution"])
def test_composed_coset_permutations_check_membership(monkeypatch, construct):
    # a representative swapped for one of another coset: some coset times
    # S lands in coset 1, and that relation's element is not in the group
    tr = copy.copy(transversal(CongruenceSubgroup.gamma0(11)))
    tr.reps = list(tr.reps)
    tr.reps[1] = tr.reps[2]
    with pytest.raises(NotInGroup):
        construct(tr, monkeypatch)


# ---------------------------------------------------------------------------
# ChainSum against a left fold of the old accumulator

# S^2 = U^3 = -I, so sums of translates of these meet and cancel often
GROUP = [S ** k for k in range(4)] + [U ** k for k in range(1, 6)]
ELEMENTS = st.lists(st.tuples(st.sampled_from(GROUP), st.integers(-2, 2)),
                    max_size=4).map(GroupRingElement)
# each add: key, element x, and the translate g * x * h scaled by c that
# callers stream in (h and homotopy values scaled, Hecke values moved on
# the left, unfolded chains on the right)
OPS = st.lists(st.tuples(st.integers(0, 3), ELEMENTS, st.sampled_from(GROUP),
                         st.sampled_from(GROUP),
                         st.sampled_from([1, -1, 2, -2])), max_size=30)
X = GroupRingElement([(S, 1), (U, 2)])
Y = GroupRingElement.unit(T)


@settings(deadline=None, max_examples=200)
@given(OPS)
# cancel key 0 to zero, then re-add it behind key 1
@example([(0, X, I, I, 1), (1, Y, I, I, 1), (0, X, I, I, -1),
          (0, Y, I, I, 1)])
# one add that cancels key 0 on its way to a nonzero sum keeps its place
@example([(0, GroupRingElement.unit(S), I, I, 1), (1, Y, I, I, 1),
          (0, GroupRingElement([(S, -1), (U, 1)]), I, I, 1)])
# cancel one term of a sum, then re-add it at the end of the sum
@example([(0, X, I, I, 1), (0, GroupRingElement.unit(S), I, I, -1),
          (0, GroupRingElement.unit(S), I, I, 1)])
def test_chain_sum_matches_fold_of_old_accumulator(ops):
    ref = {}
    acc = ChainSum()
    for key, x, g, h, c in ops:
        _accumulate(ref, key, x.left_mul(g) * h * c)
        acc.add(key, ((g * k * h, e * c) for k, e in x.terms.items()))
    got = acc.chain()
    assert ordered(got) == ordered(ref)
    assert all(not v.is_zero() for v in got.values())


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), ELEMENTS, ELEMENTS), max_size=20))
def test_chain_sum_products_match_fold_of_old_accumulator(ops):
    # add_product adds a product with a one-term factor term by term
    ref = {}
    acc = ChainSum()
    for key, x, y in ops:
        _accumulate(ref, key, x * y)
        acc.add_product(key, x, y)
    assert ordered(acc.chain()) == ordered(ref)


def test_chain_sum_leaves_added_elements_alone():
    x = GroupRingElement([(S, 1), (U, 2)])
    acc = ChainSum()
    acc.add(0, x.terms.items())
    acc.add(0, x.terms.items())
    acc.add_chain({1: x, 2: x})
    acc.add_product(3, x, Y)
    acc.add_product(3, Y, x)
    out = acc.chain()
    assert ordered({0: x}) == [(0, [(S, 1), (U, 2)])]
    assert out == {0: x * 2, 1: x, 2: x, 3: x * Y + Y * x}
