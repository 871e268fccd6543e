"""Tests for SL2(Z) arithmetic, word decomposition, and the tree complex.

The tree is the corners (0-cell orbit 0) and arcs (1-cell orbit 0) of
resolutions.borel_serre_complex(), whose contraction of them is
sl2z.tree_contraction: the walks of all the vertices of a 0-chain,
merged where they meet.  tree_walk below is the single-vertex walk, kept
as the reference the merged one is checked against.
"""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import NotInGroup, WrongDegree
from artifact.resolutions import borel_serre_complex
from artifact.sl2z import (
    GeneratorWord,
    I, S, T, U,
    SL2ZMatrix,
    U_POWERS,
    _U_SET,
    _parent,
    _rho_invariants,
    _vertex_key,
    decompose,
    nearest_vertex,
    tree_contraction,
)

TREE = borel_serre_complex()


def tree_walk(g):
    """The parent edges B.e1 on the walk from the vertex g<U> to the base.

    Each B.e1 joins B<U> to the vertex before it (B*T<U>), so the
    boundaries telescope to g.e0 - e0: summed, the edges are the tree's
    geodesic contraction of g.e0.
    """
    while g not in _U_SET:
        g, _ = _parent(g)
        yield g


def vertex(g, coeff=1):
    return TREE.chain(0).add(0, g, coeff)


def edge(g, coeff=1):
    return TREE.chain(1).add(0, g, coeff)


def augmentation(x):
    """eps(x) . e0: the coefficient sum of a 0-chain on the base vertex."""
    return vertex(I, sum(c for _, c in x.items()))


def neighbors(v):
    """The other endpoints of the three edges v U^k . e1 at the vertex v<U>."""
    out = []
    for u in U_POWERS[:3]:
        ends = [rep for (_, rep), _ in TREE.boundary_chain(edge(v * u)).items()]
        assert len(ends) == 2 and v in ends
        out.extend(w for w in ends if w != v)
    return out


def random_element(rng, steps=20):
    """Random group element as a word in S, T of bounded length."""
    g = I
    for _ in range(rng.randint(0, steps)):
        g = g * rng.choice([S, T, T.inverse()])
    return g


def sl2z_strategy(max_steps=20):
    return st.lists(st.sampled_from([0, 1, 2]), max_size=max_steps).map(
        lambda ws: _eval_steps(ws))


def _eval_steps(ws):
    g = I
    gens = [S, T, T.inverse()]
    for w in ws:
        g = g * gens[w]
    return g


def test_group_constants():
    assert U == S * T
    assert U ** 6 == I and U ** 3 == -I
    assert S ** 2 == -I and S ** 4 == I
    assert S.inverse() * T == U ** 2 * U ** 2  # T<U> = S<U>


def test_determinant_enforced():
    with pytest.raises(NotInGroup):
        SL2ZMatrix(1, 0, 0, 2)


def test_matrix_str_roundtrip():
    # repr is the nested-list literal that GroupRingElement.to_str prints
    m = SL2ZMatrix(5, 3, 3, 2)
    assert repr(m) == "[[5,3],[3,2]]"
    (a, b), (c, d) = ast.literal_eval(repr(m))
    assert SL2ZMatrix(a, b, c, d) == m


def test_decompose_identity():
    w = decompose(I)
    assert w.letters == () and w.u_power == 0
    assert w.evaluate() == I


def test_decompose_unit_stabilizer():
    for k, g in enumerate(U_POWERS):
        w = decompose(g)
        assert w.evaluate() == g
        assert len(w.letters) <= 1  # at most the U^{j mod 3} prefix


def test_decompose_s():
    w = decompose(S)
    assert w.evaluate() == S
    assert list(w.letters) == ["S"] or (len(w.letters) == 2 and "S" in w.letters)


def test_decompose_t_power():
    g = T ** 100
    w = decompose(g)
    assert w.evaluate() == g
    assert w.is_reduced()
    # the S-letters count the tree distance to the base vertex
    assert sum(1 for x in w.letters if x == "S") == 100


def test_word_str_roundtrip():
    w = decompose(T ** 5 * S * T ** -3)
    left, _, power = str(w).partition("| U^")
    assert GeneratorWord(tuple(left.split()), int(power)) == w
    assert str(decompose(I)) == "| U^0"


def test_tree_boundary_edge():
    assert TREE.boundary_chain(edge(I)) == vertex(T) + vertex(I, -1)


def test_tree_boundary_linearity():
    d = TREE.boundary_chain(edge(S) - edge(I))
    assert d == TREE.boundary_chain(edge(S)) - TREE.boundary_chain(edge(I))


def test_tree_boundary_zero():
    assert TREE.boundary_chain(TREE.chain(1)).is_zero()


def test_wrong_degree_errors():
    # vertex and edge chains of the tree do not mix
    with pytest.raises(WrongDegree):
        TREE.chain(0) + TREE.chain(1)
    with pytest.raises(WrongDegree):
        edge(I) - vertex(I)


def test_homotopy_base_cases():
    assert list(tree_walk(I)) == []
    assert TREE.homotopy(vertex(I)).is_zero()
    h = TREE.homotopy(vertex(T))
    assert TREE.boundary_chain(h) == vertex(T) - vertex(I)
    # the walk is the geodesic: T^100<U> lies 100 edges from the base
    assert len(list(tree_walk(T ** 100))) == 100


def test_stabilizer_invariance_of_cells():
    # vertices absorb <U>, edges absorb <S> with a sign
    assert vertex(T * U) == vertex(T)
    assert edge(T * S) == edge(T, -1)
    assert edge(T * S * S) == edge(T)


def test_vertex_degree_three():
    # BFS ball around the base vertex: every vertex has 3 distinct
    # neighbors, and neighborhood is symmetric
    base, _ = TREE.canon(0, 0, I)
    seen = {base}
    frontier = [base]
    for _ in range(4):
        nxt = []
        for v in frontier:
            nbrs = neighbors(v)
            assert len(set(nbrs)) == 3
            for w in nbrs:
                assert v in neighbors(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    # the ball of radius 4 in a cubic tree has 1 + 3*(2^4 - 1) vertices
    assert len(seen) == 1 + 3 * (2 ** 4 - 1)


class TestDecomposeProperties:
    @settings(max_examples=150, deadline=None)
    @given(sl2z_strategy())
    def test_evaluate_roundtrip(self, g):
        w = decompose(g)
        assert w.evaluate() == g
        assert w.is_reduced()

    @settings(max_examples=150, deadline=None)
    @given(sl2z_strategy())
    def test_homotopy_identity_deg0(self, g):
        x = vertex(g)
        lhs = TREE.boundary_chain(TREE.homotopy(x))
        assert lhs == x - augmentation(x)

    @settings(max_examples=150, deadline=None)
    @given(sl2z_strategy())
    def test_homotopy_identity_deg1(self, g):
        y = edge(g)
        assert TREE.homotopy(TREE.boundary_chain(y)) == y


def test_large_entries_roundtrip():
    rng = random.Random(7)
    for _ in range(30):
        g = random_element(rng, steps=40)
        if max(abs(v) for v in g.entries()) < 10 ** 6:
            g = g * (T ** rng.randint(100, 2000))
        w = decompose(g)
        assert w.evaluate() == g
        assert w.is_reduced()


def test_homotopy_on_combinations():
    rng = random.Random(11)
    for _ in range(20):
        x = TREE.chain(0)
        for _ in range(rng.randint(1, 5)):
            x.add(0, random_element(rng), rng.choice([-2, -1, 1, 2, 3]))
        lhs = TREE.boundary_chain(TREE.homotopy(x))
        assert lhs == x - augmentation(x)
    for _ in range(20):
        y = TREE.chain(1)
        for _ in range(rng.randint(1, 5)):
            y.add(0, random_element(rng), rng.choice([-2, -1, 1, 2]))
        assert TREE.homotopy(TREE.boundary_chain(y)) == y


# ---------------------------------------------------------------------------
# merged walks


def walked_one_by_one(x):
    """The contraction of a 0-chain as the sum of single-vertex walks."""
    out = TREE.chain(1)
    for (_, rep), c in x.items():
        for step in tree_walk(rep):
            out.add(0, step, c)
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(sl2z_strategy(12), st.integers(-3, 3),
                          sl2z_strategy(4)), min_size=1, max_size=6))
def test_merged_contraction_equals_single_walks(terms):
    # each term may come with a cancelling partner a few steps away, so
    # the walks meet and the merged contraction stops there
    x = TREE.chain(0)
    for g, c, near in terms:
        x.add(0, g, c)
        if c % 2:
            x.add(0, g * near, -c)
    assert TREE.homotopy(x) == walked_one_by_one(x)
    direct = TREE.chain(1)
    for step, c in tree_contraction((rep, c) for (_, rep), c in x.items()):
        direct.add(0, step, c)
    assert direct == TREE.homotopy(x)


def test_cancelling_walks_stop_where_they_meet():
    # T^50 and T^51 are neighbours: one edge between them, not 101
    edges = tree_contraction([(T ** 50, 1), (T ** 51, -1)])
    assert len(edges) == 1
    assert tree_contraction([(T ** 50, 1), (T ** 50 * U, -1)]) == []


def test_vertex_key_drops_along_every_walk_to_depth_8():
    # all vertices within distance 8 of the base, found by BFS; each walk
    # is the geodesic and its (Q, |R|) key strictly drops at every step
    # above the base, whose neighbour T<U> has the base's key
    base, _ = TREE.canon(0, 0, I)
    depth = {base: 0}
    frontier = [base]
    for d in range(1, 9):
        nxt = []
        for v in frontier:
            for w in neighbors(v):
                if w not in depth:
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    assert len(depth) == 1 + 3 * (2 ** 8 - 1)
    for v, d in depth.items():
        walk = [v] + list(tree_walk(v))
        assert len(walk) == d + 1
        for child, parent in zip(walk, walk[1:]):
            if parent in _U_SET:
                assert _vertex_key(parent) <= _vertex_key(child)
            else:
                assert _vertex_key(parent) < _vertex_key(child)


# ---------------------------------------------------------------------------
# nearest vertex


def in_closed_domain(a, b, c, d):
    """M.rho in the closed fundamental domain: |Re| <= 1/2, |z| >= 1."""
    q, r = _rho_invariants(a, b, c, d)
    det = a * d - b * c
    return abs(r) <= q and r * r + 3 * det * det >= 4 * q * q


def mul(x, y):
    """Product of two 2x2 integer matrices given as 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@settings(max_examples=200, deadline=None)
@given(sl2z_strategy(), st.integers(1, 60), st.integers(0, 59),
       st.integers(0, 59), sl2z_strategy(8))
def test_nearest_vertex_lands_in_the_domain(left, det, pick, b, right):
    # left * [[a, b], [0, d]] * right runs over integral matrices of
    # determinant det = a * d
    divisors = [k for k in range(1, det + 1) if det % k == 0]
    a = divisors[pick % len(divisors)]
    d = det // a
    M = mul(mul(left.entries(), (a, b % d, 0, d)), right.entries())
    m = nearest_vertex(M)
    SL2ZMatrix(*m.entries())  # determinant 1, checked on entry
    assert in_closed_domain(*mul(m.inverse().entries(), M))


@settings(max_examples=150, deadline=None)
@given(sl2z_strategy())
def test_nearest_vertex_of_a_group_element_is_its_vertex(g):
    m = nearest_vertex(g.entries())
    assert m.inverse() * g in _U_SET


def test_nearest_vertex_needs_positive_determinant():
    with pytest.raises(NotInGroup):
        nearest_vertex((0, 1, 1, 0))
