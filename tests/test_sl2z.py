"""Tests for SL2(Z) arithmetic, word decomposition, and the tree complex."""

import ast
import random

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import NotInGroup, WrongDegree
from artifact.sl2z import (
    GeneratorWord,
    I, S, T, U,
    SL2ZMatrix,
    TreeChain,
    U_POWERS,
    canon_edge,
    canon_vertex,
    decompose,
    in_unit_stabilizer,
    tree_augmentation,
    tree_boundary,
    tree_homotopy,
    tree_neighbors,
)


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
    d = tree_boundary(TreeChain.edge(I))
    expected = TreeChain(0)
    expected.add_term(T, 1)
    expected.add_term(I, -1)
    assert d == expected


def test_tree_boundary_linearity():
    x = TreeChain.edge(S) - TreeChain.edge(I)
    d = tree_boundary(x)
    lhs = tree_boundary(TreeChain.edge(S)) - tree_boundary(TreeChain.edge(I))
    assert d == lhs


def test_tree_boundary_zero():
    assert tree_boundary(TreeChain(1)).is_zero()


def test_wrong_degree_errors():
    with pytest.raises(WrongDegree):
        tree_boundary(TreeChain(0))
    with pytest.raises(WrongDegree):
        tree_homotopy(TreeChain(1))
    with pytest.raises(WrongDegree):
        TreeChain(2)


def test_homotopy_base_cases():
    assert tree_homotopy(TreeChain.vertex(I)).is_zero()
    h = tree_homotopy(TreeChain.vertex(T))
    assert tree_boundary(h) == TreeChain.vertex(T) - TreeChain.vertex(I)


def test_stabilizer_invariance_of_cells():
    # vertices absorb <U>, edges absorb <S> with a sign
    assert TreeChain.vertex(T * U) == TreeChain.vertex(T)
    assert TreeChain.edge(T * S) == TreeChain.edge(T, -1)
    assert TreeChain.edge(T * S * S) == TreeChain.edge(T)


def test_vertex_degree_three():
    # BFS ball around the base vertex: every vertex has 3 distinct
    # neighbors, and neighborhood is symmetric
    seen = {canon_vertex(I)}
    frontier = [canon_vertex(I)]
    for _ in range(4):
        nxt = []
        for v in frontier:
            nbrs = tree_neighbors(v)
            assert len(set(nbrs)) == 3
            for w in nbrs:
                assert v in tree_neighbors(w)
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
        x = TreeChain.vertex(g)
        lhs = tree_boundary(tree_homotopy(x))
        assert lhs == x - tree_augmentation(x)

    @settings(max_examples=150, deadline=None)
    @given(sl2z_strategy())
    def test_homotopy_identity_deg1(self, g):
        y = TreeChain.edge(g)
        assert tree_homotopy(tree_boundary(y)) == y


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
        x = TreeChain(0)
        for _ in range(rng.randint(1, 5)):
            x.add_term(random_element(rng), rng.choice([-2, -1, 1, 2, 3]))
        lhs = tree_boundary(tree_homotopy(x))
        assert lhs == x - tree_augmentation(x)
    for _ in range(20):
        y = TreeChain(1)
        for _ in range(rng.randint(1, 5)):
            y.add_term(random_element(rng), rng.choice([-2, -1, 1, 2]))
        assert tree_homotopy(tree_boundary(y)) == y
