"""Resolution constructions: boundaries square to zero, homotopies contract.

The two invariants that matter are d(d(x)) = 0 and d(h(x)) + h(d(x)) = x
(minus section.augmentation in degree 0); every construction is run
through both, on basis elements for the first and on randomly sampled
group elements for the second.  Known homology of the full modular group
serves as the end-to-end oracle: Z, Z/12, 0, Z/12, 0, Z/12, ...
"""

import json
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from genhelpers import (chain_add, chain_is_zero, chain_scale, chain_sub,
                        chains_equal)
from artifact.chaincx import all_homology, homology
from artifact.congruence import CongruenceSubgroup, generators
from artifact.errors import (
    CompositionNonzero,
    DegreeOutOfRange,
    FormatError,
    MissingHomotopy,
    ShapeMismatch,
    WrongDegree,
)
from artifact.resolutions import (
    CellOrbit,
    EquivariantCellComplex,
    FreeZGResolution,
    GroupRingElement,
    _InducedColumn,
    _cyclic_powers,
    borel_serre_complex,
    restrict_resolution,
    sl2z_resolution,
    sub_resolution,
    tensor_with_z,
    wall_resolution,
)
from artifact.sl2z import I, S, T, U

GENS = [S, S.inverse(), T, T.inverse(), U, U.inverse()]
FROZEN = Path(__file__).resolve().parent / "frozen" / "sl2z_resolution_basis.json"


def random_matrix(rng, length=14):
    g = I
    for _ in range(rng.randrange(1, length)):
        g = g * rng.choice(GENS)
    return g


def random_member(rng, gamma, length=16):
    # rejection sampling; fine for the indices used in tests
    while True:
        g = random_matrix(rng, length)
        if gamma.member(g):
            return g


def assert_d_squared_zero(R, ident=I):
    for n in range(2, R.top_degree() + 1):
        for j in range(R.rank(n)):
            c = {j: GroupRingElement.unit(ident)}
            assert chain_is_zero(R.d(n - 1, R.d(n, c))), (n, j)


def assert_contracting(R, elements, degrees=None):
    """d h + h d = 1 (minus section of augmentation in degree 0)."""
    if degrees is None:
        degrees = range(R.top_degree())
    for n in degrees:
        for j in range(R.rank(n)):
            for g in elements:
                c = {j: GroupRingElement.unit(g)}
                lhs = R.d(n + 1, R.h(n, c))
                if n >= 1:
                    lhs = chain_add(lhs, R.h(n - 1, R.d(n, c)))
                    rhs = c
                else:
                    rhs = chain_sub(c, R.section(R.aug(c)))
                assert chains_equal(lhs, rhs), (n, j, g)


@lru_cache(maxsize=None)
def sl2z_res():
    return sl2z_resolution(6)


@lru_cache(maxsize=None)
def bs_wall():
    return wall_resolution(borel_serre_complex(), 6)


# ---------------------------------------------------------------------------
# group ring elements


def test_group_ring_basic_algebra():
    a = GroupRingElement.unit(S) + GroupRingElement.unit(T, 2)
    b = GroupRingElement.unit(I, -1) + GroupRingElement.unit(U)
    assert (a + b) - b == a
    assert a - a == GroupRingElement()
    assert (a * 0).is_zero()
    assert a.terms[T] == 2
    assert a.augmentation() == 3


def test_group_ring_product_is_convolution():
    a = GroupRingElement.unit(S) + GroupRingElement.unit(I)
    b = GroupRingElement.unit(S, -1) + GroupRingElement.unit(I)
    # (1 + S)(1 - S) = 1 - S^2
    prod = a * b
    assert prod == GroupRingElement.unit(I) + GroupRingElement.unit(S * S, -1)


def test_group_ring_unit_cancellation():
    # x + (-1)x collapses to the empty sum
    a = GroupRingElement([(T, 1), (T, -1)])
    assert a.is_zero()
    assert GroupRingElement.unit(T, 0).is_zero()


def test_group_ring_left_mul_translates_support():
    a = GroupRingElement.unit(T, 5)
    assert a.left_mul(S) == GroupRingElement.unit(S * T, 5)
    assert a * S == GroupRingElement.unit(T * S, 5)


def test_group_ring_str_roundtrip():
    # to_str (and so repr) does not depend on the order terms were added in
    a = GroupRingElement([(S, -2), (T, 1), (I, 7)])
    b = GroupRingElement([(I, 7), (T, 1), (S, -2)])
    assert a.to_str() == b.to_str() == "-2*[[0,-1],[1,0]] + 7*[[1,0],[0,1]] + 1*[[1,1],[0,1]]"
    assert GroupRingElement().to_str() == "0"


@given(st.lists(st.tuples(st.sampled_from(GENS), st.integers(-3, 3)),
                max_size=5),
       st.lists(st.tuples(st.sampled_from(GENS), st.integers(-3, 3)),
                max_size=5))
def test_group_ring_augmentation_is_multiplicative(ta, tb):
    a = GroupRingElement(ta)
    b = GroupRingElement(tb)
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


# ---------------------------------------------------------------------------
# stabilizer columns: the periodic resolutions in Wall's assembly

# a generator of a cyclic subgroup of SL2(Z) of each order above 1
STABILIZERS = {2: -I, 3: U * U, 4: S, 6: U}


def point_wall(s, order, max_degree=6):
    """Wall's assembly over one point with stabilizer <s>: the periodic
    resolution of <s>, induced up to SL2(Z)."""
    point = CellOrbit("pt", s, order, False, [])
    cx = EquivariantCellComplex([[point]])
    cx.homotopy = lambda x: cx.chain(x.dim + 1)
    return wall_resolution(cx, max_degree)


def test_cyclic_order_four_boundaries():
    # over <S>, odd boundaries multiply by S - 1 and even ones by the norm
    W = point_wall(S, 4)
    assert W.ranks == [1] * 7
    minus_one = GroupRingElement([(S, 1), (I, -1)])
    norm = GroupRingElement((p, 1) for p in (I, S, -I, -S))
    for n in range(1, 7):
        assert W.boundary_rows(n) == [{0: minus_one if n % 2 else norm}]


def test_cyclic_order_four_homotopy_example():
    # d2 h1(S^3) + h0 d1(S^3) must give back S^3
    W = point_wall(S, 4, 4)
    c = {0: GroupRingElement.unit(-S)}
    lhs = chain_add(W.d(2, W.h(1, c)), W.h(0, W.d(1, c)))
    assert chains_equal(lhs, c)


@pytest.mark.parametrize("q,twisted", [(2, False), (3, False), (4, False),
                                       (6, False), (2, True), (4, True),
                                       (6, True)])
def test_cyclic_resolutions_contract(q, twisted):
    # the column's tables resolve Z over <s>, twisted by chi(s) = -1 when
    # twisted: multipliers s - chi(s) and the norm compose to zero, and
    # d h + h d = 1, with d h = 1 - chi(s)^k . 1 on s^k in degree 0
    s = STABILIZERS[q]
    col = _InducedColumn(_cyclic_powers(s), twisted)
    chi = -1 if twisted else 1
    assert col.mult(1) == GroupRingElement([(s, 1), (I, -chi)])
    assert col.mult(2) == GroupRingElement(
        (p, chi ** k) for k, p in enumerate(col.powers))
    assert (col.mult(1) * col.mult(2)).is_zero()
    assert (col.mult(2) * col.mult(3)).is_zero()
    for k, g in enumerate(col.powers):
        x = GroupRingElement.unit(g)
        assert col.hv(0, x) * col.mult(1) == \
            x - GroupRingElement.unit(I, chi ** k)
        for m in range(1, 4):
            assert (col.hv(m, x) * col.mult(m + 1)
                    + col.hv(m - 1, x * col.mult(m))) == x, (k, m)
    if not twisted:
        # a point's stabilizer cannot reverse it, so only the untwisted
        # columns stand alone as an assembly
        W = point_wall(s, q)
        assert_d_squared_zero(W)
        assert_contracting(W, col.powers)
        assert W.aug(W.section(5)) == 5


def test_cyclic_trivial_group_is_degenerate():
    # a trivial stabilizer still has an exact column, boundaries 0, 1, 0,
    # 1, ..., so a point with stabilizer <I> has the homology of a point
    W = point_wall(I, 1)
    one = GroupRingElement.unit(I)
    assert [W.boundary_rows(n) for n in range(1, 7)] == [[{}], [{0: one}]] * 3
    assert [str(h) for h in all_homology(tensor_with_z(W))] == \
        ["Z"] + ["0"] * 6
    assert_contracting(W, [I])
    assert_contracting(W, [T, S * T * T], degrees=range(1, 6))
    assert W.aug(W.section(3)) == 3


def test_cyclic_twisted_needs_even_order():
    # chi(s) = -1 is a character of <s> only when its order is even
    vertex = CellOrbit("vertex", U, 6, False, [])
    edge = CellOrbit("edge", U * U, 3, True,
                     [(0, GroupRingElement([(T, 1), (I, -1)]))])
    with pytest.raises(FormatError, match="even order"):
        EquivariantCellComplex([[vertex], [edge]])
    with pytest.raises(FormatError, match="order mismatch"):
        EquivariantCellComplex([[CellOrbit("pt", I, 0, False, [])]])


def test_cyclic_with_matrix_generator():
    # induced up to SL2(Z), the column's homotopy runs through the coset
    # normal form g = t * S^k; the orbit of one point is G/<S>, which is
    # not contractible, so off <S> only degrees >= 1 contract
    W = point_wall(S, 4, 5)
    rng = random.Random(31)
    assert_contracting(W, [random_matrix(rng) for _ in range(20)],
                       degrees=range(1, 5))


def test_cyclic_wrong_generator_order_rejected():
    with pytest.raises(FormatError, match="order mismatch"):
        # U has order 6
        EquivariantCellComplex([[CellOrbit("pt", U, 4, False, [])]])


# ---------------------------------------------------------------------------
# the SL2(Z) resolution


def test_sl2z_resolution_ranks():
    assert sl2z_res().ranks == [1, 2, 2, 2, 2, 2, 2]


def test_sl2z_resolution_d_squared_zero():
    assert_d_squared_zero(sl2z_res())


def test_sl2z_resolution_contracts_on_random_elements():
    rng = random.Random(17)
    elements = [random_matrix(rng) for _ in range(60)]
    assert_contracting(sl2z_res(), elements)


def test_sl2z_homology_oracle():
    # H_n of the full modular group with trivial integer coefficients:
    # Z, Z/12, 0, Z/12, 0, Z/12, ...
    C = tensor_with_z(sl2z_res())
    inv = [str(h) for h in all_homology(C)]
    assert inv[:6] == ["Z", "Z/12", "0", "Z/12", "0", "Z/12"]


def test_sl2z_resolution_degree_guards():
    R = sl2z_res()
    with pytest.raises(DegreeOutOfRange):
        R.boundary_rows(7)
    with pytest.raises(DegreeOutOfRange):
        R.h(6, {0: GroupRingElement.unit(I)})
    with pytest.raises(DegreeOutOfRange):
        R.d(9, {0: GroupRingElement.unit(I)})
    assert R.aug(R.section(3)) == 3


def _chain_text(chain):
    return {str(i): gre.to_str() for i, gre in sorted(chain.items())}


def _basis_snapshot():
    """Every boundary row of sl2z_resolution(6), and h on each generator in
    degrees 0..5 at 40 seeded elements with coefficients other than 1."""
    R = sl2z_res()
    rng = random.Random(53)
    terms = [(random_matrix(rng), rng.choice([-3, -2, -1, 2, 5]))
             for _ in range(40)]
    return {
        "boundaries": {str(n): [_chain_text(row) for row in R.boundary_rows(n)]
                       for n in range(1, 7)},
        "homotopy": {"%d %d" % (n, j): [
            _chain_text(R.h(n, {j: GroupRingElement.unit(g, c)}))
            for g, c in terms] for n in range(6) for j in range(R.rank(n))},
    }


def test_sl2z_resolution_basis_frozen():
    # recorded when the resolution was assembled by hand from two induced
    # columns; Hecke bases downstream are stated in exactly this basis
    got = json.dumps(_basis_snapshot(), indent=1, sort_keys=True) + "\n"
    assert got == FROZEN.read_text()


# ---------------------------------------------------------------------------
# cell complexes and the assembled resolution


def test_tree_wall_contracts():
    # the tree's generators of the Borel-Serre assembly, at another depth
    W = sl2z_resolution(5)
    rng = random.Random(23)
    elements = [random_matrix(rng) for _ in range(40)]
    assert_d_squared_zero(W)
    assert_contracting(W, elements)


def test_borel_serre_ranks_and_homology():
    W = bs_wall()
    assert W.ranks[:3] == [2, 5, 6]
    assert all(r == 6 for r in W.ranks[3:])
    inv = [str(h) for h in all_homology(tensor_with_z(W))]
    assert inv[:6] == ["Z", "Z/12", "0", "Z/12", "0", "Z/12"]


def test_borel_serre_wall_contracts():
    W = bs_wall()
    rng = random.Random(29)
    elements = [random_matrix(rng) for _ in range(40)]
    assert_d_squared_zero(W)
    assert_contracting(W, elements)


def test_single_point_wall_degenerates_to_cyclic():
    # one orbit of 0-cells with stabilizer <U>: the assembly adds nothing
    # to the stabilizer's column, neither rows nor homotopy terms
    W = point_wall(U, 6, 5)
    col = _InducedColumn(_cyclic_powers(U), False)
    rng = random.Random(37)
    elements = [random_matrix(rng) for _ in range(10)]
    for n in range(1, 6):
        assert W.boundary_rows(n) == [{0: col.mult(n)}]
    for n in range(5):
        for g in elements:
            x = GroupRingElement.unit(g)
            assert chains_equal(W.h(n, {0: x}), {0: col.hv(n, x)}), (n, g)


def test_wall_without_cell_homotopy_raises():
    vertex = CellOrbit("vertex", U, 6, False, [])
    edge = CellOrbit("edge", S, 4, True,
                     [(0, GroupRingElement([(T, 1), (I, -1)]))])
    cx = EquivariantCellComplex([[vertex], [edge]])
    W = wall_resolution(cx, 4)
    # boundaries exist and square to zero without any contraction
    assert_d_squared_zero(W)
    with pytest.raises(MissingHomotopy):
        W.h(0, {0: GroupRingElement.unit(T)})


def test_twisted_point_rejected():
    # a point has no orientation for its stabilizer to reverse
    point = CellOrbit("pt", S, 4, True, [])
    with pytest.raises(FormatError):
        EquivariantCellComplex([[point]])


def test_wall_rejects_nonsquaring_attachments():
    v = CellOrbit("v", I, 1, False, [])
    e = CellOrbit("e", I, 1, False,
                  [(0, GroupRingElement([(T, 1), (I, -1)]))])
    f = CellOrbit("f", I, 1, False, [(0, GroupRingElement.unit(I))])
    cx = EquivariantCellComplex([[v], [e], [f]])
    with pytest.raises(CompositionNonzero):
        wall_resolution(cx, 3)


def test_wall_rejects_incompatible_stabilizer():
    # an order-4 stabilizer acting without the orientation character does
    # not fix its attaching word, so the assembly must refuse
    vertex = CellOrbit("vertex", U, 6, False, [])
    edge = CellOrbit("edge", S, 4, False,
                     [(0, GroupRingElement([(T, 1), (I, -1)]))])
    cx = EquivariantCellComplex([[vertex], [edge]])
    with pytest.raises(FormatError):
        wall_resolution(cx, 3)


def test_cell_chain_canonicalizes():
    cx = borel_serre_complex()
    c = cx.chain(1)
    c.add(0, S, 1)  # S stabilizes the arc and reverses it
    c.add(0, I, 1)
    assert c.is_zero()


# ---------------------------------------------------------------------------
# boundary components (cusps)


def boundary_components(gamma):
    """Components of gamma's quotient of the horocycle boundary.

    The horocycle generators of the Borel-Serre assembly resolve the free
    module on the horocycle lines, so by Shapiro's lemma H_0 of Z tensored
    over Z[gamma] with them is free on the gamma-orbits of those lines.
    """
    X = borel_serre_complex()
    W = wall_resolution(X, 1)
    B = sub_resolution(W, horocycle_keep(W, X))
    h0 = homology(tensor_with_z(B, gamma), 0)
    assert h0.torsion == []
    return h0.free_rank


@pytest.mark.parametrize("gamma,count", [
    (CongruenceSubgroup.gamma0(1), 1),
    (CongruenceSubgroup.gamma0(11), 2),
    (CongruenceSubgroup.gamma0(39), 4),
    (CongruenceSubgroup.gamma0(50), 12),
    (CongruenceSubgroup.gamma1(5), 4),
    (CongruenceSubgroup.principal(6), 12),
])
def test_boundary_component_counts(gamma, count):
    assert boundary_components(gamma) == count


def test_boundary_components_against_divisor_formula():
    # cusp count of Gamma0(N) equals sum over d | N of phi(gcd(d, N/d))
    from math import gcd

    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    for N in [2, 3, 4, 6, 9, 12, 25, 27]:
        expected = sum(phi(gcd(d, N // d))
                       for d in range(1, N + 1) if N % d == 0)
        got = boundary_components(CongruenceSubgroup.gamma0(N))
        assert got == expected, N


def horocycle_keep(W, X):
    """The generators of W over X's marked boundary, in label order."""
    return [[(j, 1) for j, (p, i) in enumerate(labels)
             if i in X.boundary_orbits.get(p, ())] for labels in W.labels]


def ordered_rows(R, n):
    """Degree-n rows as nested lists: == compares key and term order too."""
    return [[(k, list(v.terms.items())) for k, v in row.items()]
            for row in R.boundary_rows(n)]


def test_horocycle_sub_resolution_matches_reference():
    # Wall's assembly of the horocycle line alone, built by hand from the
    # Borel-Serre words, against the horocycle rows of the whole assembly
    X = borel_serre_complex()
    vertex, edge = X.cells[0][1], X.cells[1][2]
    assert (vertex.name, edge.name) == ("horo_vertex", "horo_edge")
    line = EquivariantCellComplex([
        [CellOrbit(vertex.name, vertex.stabilizer_generator,
                   vertex.stabilizer_order, vertex.twisted, [])],
        [CellOrbit(edge.name, edge.stabilizer_generator,
                   edge.stabilizer_order, edge.twisted,
                   [(0, word) for _, word in edge.boundary])]])
    for depth in (2, 3, 4):
        W = wall_resolution(X, depth)
        got = sub_resolution(W, horocycle_keep(W, X))
        want = wall_resolution(line, depth)
        assert got.ranks == want.ranks == [1] + [2] * depth
        for n in range(1, depth + 1):
            assert ordered_rows(got, n) == ordered_rows(want, n), (depth, n)
        for j in range(got.rank(0)):
            unit = {j: GroupRingElement.unit(T)}
            assert got.aug(unit) == want.aug(unit) == 1


def test_sub_resolution_rejects_rows_leaving_keep():
    # the arcs' boundary reaches the corners, so arcs alone are no
    # sub-resolution
    W = wall_resolution(borel_serre_complex(), 2)
    arcs = [[]] + [[(labels.index((1, 0)), 1)] for labels in W.labels[1:]]
    with pytest.raises(FormatError, match="boundary row"):
        sub_resolution(W, arcs)


def test_sub_resolution_homotopy_leaving_keep_raises():
    # the horocycle line is not contractible: h slides a horocycle vertex
    # down its vertical to a corner, out of the kept generators
    X = borel_serre_complex()
    W = wall_resolution(X, 3)
    keep = horocycle_keep(W, X)
    assert [W.labels[0][j] for j, _ in keep[0]] == [(0, 1)]
    B = sub_resolution(W, keep)
    with pytest.raises(FormatError, match="homotopy"):
        B.h(0, {0: GroupRingElement.unit(T)})
    # the section is the base corner's, also outside the horocycle line
    with pytest.raises(FormatError, match="section"):
        B.section()


def test_sub_resolution_rejects_unknown_generators():
    R = sl2z_res()
    for keep in ([[(1, 1)]], [[(-1, 1)]], [[(0, 1)], [(2, 1)]]):
        with pytest.raises(FormatError, match="no degree"):
            sub_resolution(R, keep)


# ---------------------------------------------------------------------------
# restriction to finite index subgroups


def test_restriction_to_whole_group_is_identity():
    R = sl2z_res()
    W = restrict_resolution(R, CongruenceSubgroup.gamma0(1))
    assert W.ranks == R.ranks
    for n in range(1, 7):
        assert W.boundary_rows(n) == R.boundary_rows(n)


def test_restriction_gamma0_11():
    gamma = CongruenceSubgroup.gamma0(11)
    W = restrict_resolution(sl2z_res(), gamma)
    assert W.ranks == [12, 24, 24, 24, 24, 24, 24]
    assert_d_squared_zero(W)
    rng = random.Random(41)
    elements = [random_member(rng, gamma) for _ in range(12)]
    assert_contracting(W, elements, degrees=range(4))
    assert W.aug(W.section(2)) == 2


def test_restriction_homology_gamma0_11():
    # Gamma0(11) is (-1) x (free of rank 3): homology known in all degrees
    W = restrict_resolution(sl2z_res(), CongruenceSubgroup.gamma0(11))
    inv = [str(h) for h in all_homology(tensor_with_z(W))]
    assert inv[:6] == ["Z", "Z/2 + Z^3", "Z/2 + Z/2 + Z/2", "Z/2",
                       "Z/2 + Z/2 + Z/2", "Z/2"]


def test_restriction_homology_principal_6():
    # Gamma(6) is free of rank 13 (torsion free, genus 1, 12 cusps)
    R = sl2z_resolution(2)
    W = restrict_resolution(R, CongruenceSubgroup.principal(6))
    assert W.ranks == [144, 288, 288]
    C = tensor_with_z(W)
    assert str(homology(C, 0)) == "Z"
    assert str(homology(C, 1)) == "Z^13"


def test_restriction_contracts_principal_6():
    gamma = CongruenceSubgroup.principal(6)
    W = restrict_resolution(sl2z_resolution(3), gamma)
    assert_d_squared_zero(W)
    rng = random.Random(43)
    elements = [random_member(rng, gamma, length=20) for _ in range(6)]
    assert_contracting(W, elements, degrees=range(2))


def test_restricted_wall_matches_restricted_direct():
    # group homology must not depend on which resolution computed it
    gamma = CongruenceSubgroup.gamma0(11)
    A = restrict_resolution(bs_wall(), gamma)
    B = restrict_resolution(sl2z_res(), gamma)
    assert A.ranks[:3] == [24, 60, 72]
    ha = [str(h) for h in all_homology(tensor_with_z(A))]
    hb = [str(h) for h in all_homology(tensor_with_z(B))]
    assert ha[:5] == hb[:5]


def test_restriction_large_index_ranks():
    W = restrict_resolution(sl2z_resolution(1),
                            CongruenceSubgroup.gamma0(1000))
    assert W.ranks == [1800, 3600]


# ---------------------------------------------------------------------------
# property tests


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 5), st.lists(st.sampled_from(GENS), min_size=1,
                                   max_size=12))
def test_sl2z_homotopy_identity_property(n, letters):
    g = I
    for m in letters:
        g = g * m
    R = sl2z_res()
    j = n % R.rank(max(n, 1)) if n else 0
    c = {j if n else 0: GroupRingElement.unit(g)}
    lhs = R.d(n + 1, R.h(n, c))
    if n >= 1:
        lhs = chain_add(lhs, R.h(n - 1, R.d(n, c)))
        assert chains_equal(lhs, c)
    else:
        assert chains_equal(lhs, chain_sub(c, R.section(R.aug(c))))


@settings(deadline=None, max_examples=25)
@given(st.lists(st.sampled_from(GENS), min_size=1, max_size=10))
def test_borel_serre_homotopy_is_contraction_on_cells(letters):
    # d h + h d = 1 - base point (orbit 0) on the cell complex itself
    X = borel_serre_complex()
    g = I
    for m in letters:
        g = g * m
    for orbit in (0, 1):
        c = X.chain(0)
        c.add(orbit, g, 1)
        lhs = X.boundary_chain(X.homotopy(c))
        base = X.chain(0)
        base.add(0, I, sum(coeff for _, coeff in c.items()))
        assert lhs + base == c
    for orbit in (0, 1, 2):
        c = X.chain(1)
        c.add(orbit, g, 1)
        lhs = X.boundary_chain(X.homotopy(c)) + X.homotopy(X.boundary_chain(c))
        assert lhs == c


def test_invariant_checks_raise():
    # former asserts: each raises an ArtifactError, also under python -O
    with pytest.raises(FormatError, match="finite order"):
        EquivariantCellComplex([[CellOrbit("pt", T, 4, False, [])]])
    with pytest.raises(ShapeMismatch):
        FreeZGResolution("G", [1, 1], [[]])
    with pytest.raises(ShapeMismatch):
        FreeZGResolution("G", [1, 1], [[{0: GroupRingElement.unit(I)}], [{}]])
    cx = borel_serre_complex()
    with pytest.raises(WrongDegree):
        cx.chain(1) + cx.chain(0)
    with pytest.raises(WrongDegree):
        cx.chain(1) + borel_serre_complex().chain(1)


# ---------------------------------------------------------------------------
# the homotopy on whole chains against its termwise evaluation


def termwise_h(R, n, chain):
    """h summed term by term: c * h(g . e_j) over the terms of the chain.

    This is how FreeZGResolution evaluated h from its values on basis
    elements before each construction took whole chains; h is Z-linear,
    so the two must agree as chains.
    """
    out = {}
    for j, gre in chain.items():
        for g, c in gre.items():
            out = chain_add(out, chain_scale(
                R.h(n, {j: GroupRingElement.unit(g)}), c))
    return out


def _words(gens, rng, length):
    """A random product of up to length elements of gens and inverses."""
    g = gens[0] * gens[0].inverse()
    for _ in range(rng.randrange(length + 1)):
        x = rng.choice(gens)
        g = g * (x if rng.random() < 0.5 else x.inverse())
    return g


@lru_cache(maxsize=None)
def homotopy_case(name):
    """(resolution, group generators) for each case of the comparison."""
    if name == "sl2z":
        return sl2z_resolution(3), (S, T)
    if name == "borel_serre":
        return wall_resolution(borel_serre_complex(), 3), (S, T)
    if name == "point":
        return point_wall(U, 6, 3), (U, T)
    level = {"gamma0_11": CongruenceSubgroup.gamma0(11),
             "gamma_4": CongruenceSubgroup.principal(4),
             "borel_serre_gamma0_11": CongruenceSubgroup.gamma0(11)}[name]
    base = (wall_resolution(borel_serre_complex(), 3)
            if name.startswith("borel") else sl2z_resolution(3))
    return restrict_resolution(base, level), tuple(generators(level))


@settings(deadline=None, max_examples=120)
@given(st.sampled_from(["sl2z", "borel_serre", "gamma0_11", "gamma_4",
                        "borel_serre_gamma0_11", "point"]),
       st.integers(0, 10 ** 9))
def test_chain_homotopy_equals_termwise_sum(name, seed):
    # random chains, with terms a short step from an earlier one carrying
    # the opposite coefficient, so that their tree walks cancel
    R, gens = homotopy_case(name)
    rng = random.Random(seed)
    n = rng.randrange(R.top_degree())
    terms = []
    for _ in range(rng.randint(1, 5)):
        j = rng.randrange(R.rank(n))
        g = _words(gens, rng, 6)
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms.append((j, g, c))
        if rng.random() < 0.5:
            terms.append((j, g * _words(gens, rng, 2), -c))
    chain = {}
    for j, g, c in terms:
        chain = chain_add(chain, {j: GroupRingElement.unit(g, c)})
    assert chains_equal(R.h(n, chain), termwise_h(R, n, chain))
