"""Tests for SL2(Z) arithmetic, word decomposition, and the tree complex.

The tree's chain complex is resolutions.tree_cell_complex(), whose
contraction adds up the edges of sl2z.tree_walk.
"""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import NotInGroup, WrongDegree
from artifact.resolutions import tree_cell_complex
from artifact.sl2z import (
    GeneratorWord,
    I, S, T, U,
    SL2ZMatrix,
    U_POWERS,
    decompose,
    tree_walk,
)

TREE = tree_cell_complex()


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
    with pytest.raises(NotInGroup):
        decompose((2, 0, 0, 1))


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
