"""Tests for chain complexes and simple homotopy collapse reduction."""

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import artifact.chaincx
from artifact.chaincx import (
    CollapseStep,
    FreeChainComplexZ,
    all_homology,
    contract,
    homology,
    verify_complex,
)
from artifact.congruence import CongruenceSubgroup
from artifact.errors import (CompositionNonzero, DegreeOutOfRange,
                             EliminationError, FormatError)
from artifact.exactlin import IntMatrix
from artifact.resolutions import (restrict_resolution, sl2z_resolution,
                                  tensor_with_z)

from genhelpers import random_complex

FROZEN = Path(__file__).resolve().parent / "frozen" / "chaincx_fixtures.json"


def circle():
    return FreeChainComplexZ([1, 1], [IntMatrix.zeros(1, 1)])


def torus():
    # one vertex, two edges, one face attached along the commutator
    return FreeChainComplexZ([1, 2, 1], [IntMatrix.zeros(1, 2), IntMatrix.zeros(2, 1)])


def test_verify_circle():
    assert verify_complex(circle())


def test_verify_rejects_bad_composition():
    c = FreeChainComplexZ([1, 1, 1],
                          [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(CompositionNonzero):
        verify_complex(c)


def test_circle_homology():
    c = circle()
    assert homology(c, 0).free_rank == 1 and not homology(c, 0).torsion
    assert homology(c, 1).free_rank == 1 and not homology(c, 1).torsion


def test_torus_homology():
    c = torus()
    assert str(homology(c, 0)) == "Z"
    assert str(homology(c, 1)) == "Z^2"
    assert str(homology(c, 2)) == "Z"


def test_degree_out_of_range():
    with pytest.raises(DegreeOutOfRange):
        homology(circle(), 2)
    with pytest.raises(DegreeOutOfRange):
        homology(circle(), -1)


def test_contract_exact_two_term():
    c = FreeChainComplexZ([1, 1], [IntMatrix.from_rows([[1]])])
    d = contract(c)
    assert d.ranks == [0, 0]
    assert len(d.trace) == 1
    assert d.trace[0].degree == 1


def test_contract_no_units_unchanged():
    c = FreeChainComplexZ([1, 1], [IntMatrix.from_rows([[2]])])
    d = contract(c)
    assert d == c
    assert d.trace == []


def test_contract_projective_plane():
    # one cell per dimension 0..2, d2 = (2): only the degree-1 pair collapses
    c = FreeChainComplexZ([1, 1, 1],
                          [IntMatrix.zeros(1, 1), IntMatrix.from_rows([[2]])])
    with pytest.raises(DegreeOutOfRange):
        homology(c, 3)
    assert homology(c, 1).torsion == [2]
    d = contract(c)
    assert all_homology(d) == all_homology(c)


@pytest.mark.parametrize("pairs", [
    [(1, 0, 0)],              # entry 2 is no unit
    [(1, 0, 1)],              # no such target: the entry is absent
    [(2, 0, 0)],              # no degree 2
    [(1, 1, 0), (1, 1, 0)],   # the second time the pair is gone
])
def test_prescribed_pair_needs_a_unit_entry(pairs):
    c = FreeChainComplexZ([1, 2], [IntMatrix.from_rows([[2, 1]])])
    with pytest.raises(EliminationError):
        contract(c, pairs=pairs)


def test_prescribed_pairs_follow_their_order():
    # d_1 = [1 1]: either edge can take the vertex, the other one
    # survives, and the trace holds the prescribed pair
    c = FreeChainComplexZ([1, 2], [IntMatrix.from_rows([[1, 1]])])
    for a in (0, 1):
        d = contract(c, pairs=[(1, a, 0)])
        assert d.ranks == [0, 1]
        assert d.trace == [CollapseStep(1, a, 0)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_greedy_trace_replayed_as_pairs(seed):
    # the greedy reduction and the prescribed one share the elimination
    # step, so replaying the greedy trace rebuilds the same complex
    c, _ = random_complex(random.Random(seed))
    d = contract(c)
    again = contract(c, pairs=[(s.degree, s.source, s.target)
                               for s in d.trace])
    assert again == d and again.trace == d.trace


def test_contract_gamma0_300_unchanged():
    # the homology-l300 benchmark shape; ranks, collapse count and the
    # digests of the contracted complex and its trace as the greedy loop
    # gave them before prescribed pairs shared its elimination step
    c = tensor_with_z(restrict_resolution(sl2z_resolution(6),
                                          CongruenceSubgroup.gamma0(300)))
    assert c.ranks == [720] + [1440] * 6
    d = contract(c)
    assert d.ranks == [1, 122, 122, 122, 122, 122, 841]
    assert len(d.trace) == 3954
    steps = repr([(s.degree, s.source, s.target) for s in d.trace])
    assert hashlib.sha256(d.to_text().encode()).hexdigest() == \
        "178b5355e8680a72e189e4cb8f5f81bc8a79d7a17257d09b0f3200264d4bca31"
    assert hashlib.sha256(steps.encode()).hexdigest() == \
        "f93edb4bb83415bf8a1a577473ca9c3ac8999e5ae81f7f3d6dcd4179f9286eb3"


def test_text_roundtrip():
    c = FreeChainComplexZ([2, 3, 1],
                          [IntMatrix.from_rows([[0, 1, -1], [0, -1, 1]]),
                           IntMatrix.from_rows([[2], [1], [1]])])
    assert FreeChainComplexZ.from_text(c.to_text()) == c
    with pytest.raises(FormatError):
        FreeChainComplexZ.from_text("")
    with pytest.raises(FormatError):
        FreeChainComplexZ.from_text("2\n1 1 1\n")


class TestContractProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_homology_matches_oracle(self, seed):
        rng = random.Random(seed)
        c, oracle = random_complex(rng)
        got = all_homology(c)
        assert [(h.torsion, h.free_rank) for h in got] == \
            [(h.torsion, h.free_rank) for h in oracle]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_contract_preserves_homology(self, seed):
        rng = random.Random(seed)
        c, oracle = random_complex(rng)
        d = contract(c)
        verify_complex(d)
        assert all(dr <= cr for dr, cr in zip(d.ranks, c.ranks))
        got = all_homology(d)
        assert [(h.torsion, h.free_rank) for h in got] == \
            [(h.torsion, h.free_rank) for h in oracle]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_contract_idempotent_ranks(self, seed):
        rng = random.Random(seed)
        c, _ = random_complex(rng)
        d = contract(c)
        assert contract(d).ranks == d.ranks
        # nothing collapsible remains: no unit entries at all
        for mat in d.diffs:
            assert not any(v in (1, -1) for col in mat.columns for v in col.values())

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_trace_degrees_ascend(self, seed):
        rng = random.Random(seed)
        c, _ = random_complex(rng)
        d = contract(c)
        degs = [step.degree for step in d.trace]
        assert degs == sorted(degs)
        assert len(d.trace) * 2 == sum(c.ranks) - sum(d.ranks)


def _frozen_fixtures():
    # the complexes of this file, plus twelve seeded random ones
    yield "circle", circle()
    yield "torus", torus()
    yield "two_term", FreeChainComplexZ([1, 1], [IntMatrix.from_rows([[1]])])
    yield "no_units", FreeChainComplexZ([1, 1], [IntMatrix.from_rows([[2]])])
    yield "projective_plane", FreeChainComplexZ(
        [1, 1, 1], [IntMatrix.zeros(1, 1), IntMatrix.from_rows([[2]])])
    yield "text_roundtrip", FreeChainComplexZ(
        [2, 3, 1], [IntMatrix.from_rows([[0, 1, -1], [0, -1, 1]]),
                    IntMatrix.from_rows([[2], [1], [1]])])
    for seed in range(12):
        yield "random_%d" % seed, random_complex(random.Random(seed))[0]


def test_text_and_contraction_frozen():
    # recorded when boundaries were dense matrices: the serialization, the
    # contracted ranks and the collapse trace are unchanged byte for byte
    frozen = json.loads(FROZEN.read_text())
    got = {}
    for name, c in _frozen_fixtures():
        d = contract(c)
        got[name] = {"text": c.to_text(), "contracted_ranks": d.ranks,
                     "trace": [[s.degree, s.source, s.target] for s in d.trace],
                     "contracted_text": d.to_text()}
        assert FreeChainComplexZ.from_text(got[name]["text"]) == c
    assert got == frozen


def test_all_homology_one_form_per_boundary(monkeypatch):
    # every boundary, the zero maps off both ends included, is factored
    # once, and the groups are those of the degree-by-degree computation
    rng = random.Random(7)
    complexes = [random_complex(rng)[0] for _ in range(20)]
    want = [[homology(c, n) for n in range(c.top_degree + 1)] for c in complexes]
    calls = []
    snf = artifact.chaincx.smith_normal_form
    monkeypatch.setattr(artifact.chaincx, "smith_normal_form",
                        lambda M, **kw: calls.append(M) or snf(M, **kw))
    for c, w in zip(complexes, want):
        calls.clear()
        assert all_homology(c) == w
        assert len(calls) == c.top_degree + 2


def test_all_homology_checks_composition():
    c = FreeChainComplexZ([1, 1, 1],
                          [IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])])
    with pytest.raises(CompositionNonzero):
        all_homology(c)


def _dense(M):
    return IntMatrix(M.rows, M.cols, [[col.get(i, 0) for col in M.columns]
                                      for i in range(M.rows)])


def _truncated(C, top):
    return FreeChainComplexZ(C.ranks[:top + 1], C.diffs[:top])


def filtered_complex(rng):
    """A random complex with a subcomplex, and the side of each generator.

    Two random complexes A and B are glued along f = dA h - h dB for a
    random degree-0 map h: B -> A, so d = [[dA, f], [0, dB]] squares to
    zero and A spans a subcomplex (side False, B's generators side True).
    The generators of each degree are then shuffled.  Returns the complex,
    the sides, and A and B truncated to its top degree.
    """
    A, _ = random_complex(rng)
    B, _ = random_complex(rng)
    top = min(A.top_degree, B.top_degree)
    A, B = _truncated(A, top), _truncated(B, top)
    h = [IntMatrix(A.rank(n), B.rank(n),
                   [[rng.randint(-1, 1) for _ in range(B.rank(n))]
                    for _ in range(A.rank(n))]) for n in range(top + 1)]
    order = []
    for n in range(top + 1):
        order.append(list(range(A.rank(n) + B.rank(n))))
        rng.shuffle(order[n])
    diffs = []
    for n in range(1, top + 1):
        dA, dB = _dense(A.boundary(n)), _dense(B.boundary(n))
        f = dA * h[n] + h[n - 1] * (dB * -1)
        stacked = ([ra + rf for ra, rf in zip(dA.data, f.data)]
                   + [[0] * A.rank(n) + rb for rb in dB.data])
        diffs.append(IntMatrix.from_rows(
            [[stacked[i][j] for j in order[n]] for i in order[n - 1]])
            if order[n - 1] and order[n] else
            IntMatrix.zeros(len(order[n - 1]), len(order[n])))
    side = [[g >= A.rank(n) for g in order[n]] for n in range(top + 1)]
    return FreeChainComplexZ([len(o) for o in order], diffs), \
        side, A, B


def _kept_sides(c, d, side):
    gone = [set() for _ in c.ranks]
    for step in d.trace:
        gone[step.degree].add(step.source)
        gone[step.degree - 1].add(step.target)
    return [[s for g, s in enumerate(sides) if g not in out]
            for sides, out in zip(side, gone)]


def _block(d, kept, label):
    """The block of the reduced complex on the generators of one side."""
    index = [[g for g, s in enumerate(k) if s == label] for k in kept]
    diffs = [IntMatrix.from_rows([[mat.columns[j].get(i, 0) for j in index[n]]
                                  for i in index[n - 1]])
             if index[n - 1] and index[n] else
             IntMatrix.zeros(len(index[n - 1]), len(index[n]))
             for n, mat in enumerate(d.diffs, start=1)]
    return FreeChainComplexZ([len(i) for i in index], diffs)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_filtered_contract_keeps_the_subcomplex(seed):
    c, side, A, B = filtered_complex(random.Random(seed))
    verify_complex(c)
    d = contract(c, side=side)
    verify_complex(d)
    # no collapsed pair crosses sides
    assert all(side[s.degree][s.source] == side[s.degree - 1][s.target]
               for s in d.trace)
    # the survivors of A still span a subcomplex
    kept = _kept_sides(c, d, side)
    for n, mat in enumerate(d.diffs, start=1):
        for j, col in enumerate(mat.columns):
            if not kept[n][j]:
                assert not any(kept[n - 1][i] for i in col)
    # and the reduction is an equivalence of the complex, the subcomplex
    # and the quotient
    assert all_homology(d) == all_homology(c)
    assert all_homology(_block(d, kept, False)) == all_homology(A)
    assert all_homology(_block(d, kept, True)) == all_homology(B)


def test_one_side_contracts_as_without_sides():
    for _, c in _frozen_fixtures():
        plain = contract(c)
        d = contract(c, side=[[0] * r for r in c.ranks])
        assert d == plain and d.trace == plain.trace
