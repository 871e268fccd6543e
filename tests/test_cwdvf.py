"""Tests for regular CW-complexes and discrete vector fields."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from artifact import cwdvf
from artifact.chaincx import CollapseStep, all_homology
from artifact.cwdvf import (
    DiscreteVectorField,
    RegularCWComplex,
    bing_house,
    critical_complex,
    cubical_complex,
    is_admissible,
    load_complex,
    maximal_dvf,
    save_complex,
)
from artifact.errors import (CompositionNonzero, FormatError, MalformedArrow,
                             NotAdmissible)
from artifact.exactlin import AbelianInvariants

FROZEN = Path(__file__).resolve().parent / "frozen" / "critical_complexes.json"


def interval():
    # two vertices joined by one edge
    return RegularCWComplex([2, 1], [[[(1, 1), (0, -1)]]])


def circle():
    # two vertices, two edges glued into a loop
    return RegularCWComplex([2, 2], [[[(1, 1), (0, -1)], [(1, 1), (0, -1)]]])


def path_complex(n):
    # n edges strung along n+1 vertices
    return RegularCWComplex(
        [n + 1, n], [[[(i + 1, 1), (i, -1)] for i in range(n)]])


def cubic_tree(depth):
    """Truncation of the 3-regular tree: the root has three children and
    every later interior vertex two, so depth d gives 3*2^d - 2 vertices."""
    edges = []
    frontier = [0]
    nv = 1
    for level in range(depth):
        new = []
        for v in frontier:
            for _ in range(3 if level == 0 else 2):
                edges.append((v, nv))
                new.append(nv)
                nv += 1
        frontier = new
    return RegularCWComplex(
        [nv, len(edges)], [[[(b, 1), (a, -1)] for a, b in edges]])


def projective_plane():
    """Minimal triangulation on 6 vertices: 15 edges, 10 triangles."""
    faces = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    edges = sorted({(a, b) for f in faces for a in f for b in f if a < b})
    eidx = {e: i for i, e in enumerate(edges)}
    bnd1 = [[(b - 1, 1), (a - 1, -1)] for a, b in edges]
    bnd2 = [[(eidx[(b, c)], 1), (eidx[(a, c)], -1), (eidx[(a, b)], 1)]
            for a, b, c in faces]
    return RegularCWComplex([6, 15, 10], [bnd1, bnd2])


def random_cubical(rng):
    """Random downward-closed set of cubes, squares, edges in a small grid."""
    tops = []
    for x in range(3):
        for y in range(3):
            for z in range(2):
                if rng.random() < 0.2:
                    tops.append(((x, y, z), (0, 1, 2)))
    for x in range(3):
        for y in range(3):
            for z in range(3):
                for axes in ((0, 1), (0, 2), (1, 2)):
                    if rng.random() < 0.12:
                        tops.append(((x, y, z), axes))
    if rng.random() < 0.4:
        # a far-away edge or vertex for extra connected components
        tops.append(((5, 0, 0), (0,) if rng.random() < 0.5 else ()))
    if not tops:
        tops = [((0, 0, 0), ())]
    return cubical_complex(tops)


def boundary_chain(X, n, chain):
    """Boundary of a sparse chain in dimension n, as a chain in n-1."""
    out = {}
    for i, c in chain.items():
        for f, s in X.faces[n][i]:
            out[f] = out.get(f, 0) + c * s
    return {f: v for f, v in out.items() if v}


# ---------------------------------------------------------------- complexes


def test_validate_accepts_fixtures():
    for X in (interval(), circle(), path_complex(5), projective_plane()):
        X.validate()


def test_vertex_boundaries_optional():
    a = RegularCWComplex([2, 1], [[[], []], [[(1, 1), (0, -1)]]])
    b = interval()
    assert a.faces == b.faces


def test_validate_rejects_nonunit_incidence():
    with pytest.raises(FormatError):
        RegularCWComplex([2, 1], [[[(1, 2), (0, -1)]]])


def test_validate_rejects_duplicate_face():
    with pytest.raises(FormatError):
        RegularCWComplex([1, 1], [[[(0, 1), (0, -1)]]])


def test_validate_rejects_one_sided_edge():
    with pytest.raises(FormatError):
        RegularCWComplex([2, 1], [[[(1, 1), (0, 1)]]])


def test_validate_rejects_face_out_of_range():
    with pytest.raises(FormatError):
        RegularCWComplex([2, 1], [[[(2, 1), (0, -1)]]])


def test_validate_rejects_nonsquaring_boundary():
    # a 2-cell attached along a path rather than a cycle
    with pytest.raises(CompositionNonzero):
        RegularCWComplex(
            [3, 2, 1],
            [[[(1, 1), (0, -1)], [(2, 1), (1, -1)]], [[(0, 1), (1, 1)]]])


def test_boundary_chain_matches_matrix():
    X = projective_plane()
    C = X.as_chain_complex()
    rng = random.Random(5)
    for n in (1, 2):
        chain = {i: rng.randint(-3, 3) for i in range(X.counts[n])}
        vec = [chain.get(i, 0) for i in range(X.counts[n])]
        out = C.diffs[n - 1].apply(vec)
        sparse = boundary_chain(X, n, chain)
        assert out == [sparse.get(i, 0) for i in range(X.counts[n - 1])]


def test_cubical_complex_counts():
    sq = cubical_complex([((0, 0), (0, 1))])
    assert sq.counts == [4, 4, 1]
    cube = cubical_complex([((0, 0, 0), (0, 1, 2))])
    assert cube.counts == [8, 12, 6, 1]
    assert [str(h) for h in all_homology(cube.as_chain_complex())] \
        == ["Z", "0", "0", "0"]


def test_cubical_complex_rejects_bad_input():
    with pytest.raises(FormatError):
        cubical_complex([((0, 0), (0,)), ((0, 0, 0), (0,))])
    with pytest.raises(FormatError):
        cubical_complex([((0, 0), (1, 0))])
    with pytest.raises(FormatError):
        cubical_complex([((0, 0), (0, 5))])


# ------------------------------------------------------------ admissibility


def test_interval_arrow_admissible():
    assert is_admissible(interval(), DiscreteVectorField([(0, 1, 0)]))


def test_circle_cyclic_arrows_not_admissible():
    # each edge has both vertices in its boundary, so pairing v0 with e0 and
    # v1 with e1 closes a circuit
    V = DiscreteVectorField([(0, 0, 0), (0, 1, 1)])
    assert is_admissible(circle(), V) is False


def test_empty_field_admissible():
    assert is_admissible(circle(), DiscreteVectorField())


def test_malformed_source_not_a_face():
    X = path_complex(2)
    with pytest.raises(MalformedArrow):
        is_admissible(X, DiscreteVectorField([(0, 0, 1)]))


def test_malformed_cell_in_two_arrows():
    X = path_complex(2)
    with pytest.raises(MalformedArrow):
        is_admissible(X, DiscreteVectorField([(0, 1, 0), (0, 1, 1)]))
    with pytest.raises(MalformedArrow):
        is_admissible(X, DiscreteVectorField([(0, 0, 0), (0, 1, 0)]))


def test_malformed_out_of_range():
    X = interval()
    with pytest.raises(MalformedArrow):
        is_admissible(X, DiscreteVectorField([(1, 0, 0)]))
    with pytest.raises(MalformedArrow):
        is_admissible(X, DiscreteVectorField([(0, 5, 0)]))


# ------------------------------------------------------------ maximal_dvf


def test_interval_maximal_one_critical():
    X = interval()
    V = maximal_dvf(X)
    assert V.critical_counts(X) == [1, 0]
    assert V.arrows == [(0, 1, 0)]


@pytest.mark.parametrize("depth", [1, 3, 6])
def test_cubic_tree_one_critical(depth):
    X = cubic_tree(depth)
    assert X.counts[0] == 3 * 2 ** depth - 2
    V = maximal_dvf(X)
    assert V.critical_counts(X) == [1, 0]


def test_maximal_dvf_deterministic():
    Y = bing_house()
    assert maximal_dvf(Y).arrows == maximal_dvf(Y).arrows


def test_maximal_dvf_checks_its_result(monkeypatch):
    # the final admissibility check raises, also under python -O
    monkeypatch.setattr(cwdvf, "is_admissible", lambda X, V: False)
    with pytest.raises(NotAdmissible):
        maximal_dvf(circle())


def test_maximal_dvf_readmissible():
    for X in (interval(), circle(), projective_plane(), bing_house()):
        V = maximal_dvf(X)
        assert is_admissible(X, V)


def test_maximal_dvf_is_maximal():
    # no critical pair can still be added without closing a circuit
    for X in (circle(), projective_plane(), bing_house()):
        V = maximal_dvf(X)
        crit = set()
        for k, level in enumerate(V.critical_cells(X)):
            crit.update((k, i) for i in level)
        for k, t in [(k, t) for k, t in crit if k > 0]:
            for f, _ in X.faces[k][t]:
                if (k - 1, f) in crit:
                    bigger = DiscreteVectorField(V.arrows + [(k - 1, f, t)])
                    assert not is_admissible(X, bigger)


def test_single_vertex_complex():
    X = RegularCWComplex([1], [[[]]])
    V = maximal_dvf(X)
    assert V.critical_counts(X) == [1]
    M = critical_complex(X, V)
    assert M.ranks == [1]


def test_disconnected_components_each_get_a_critical_vertex():
    # two disjoint intervals
    X = RegularCWComplex(
        [4, 2], [[[(1, 1), (0, -1)], [(3, 1), (2, -1)]]])
    V = maximal_dvf(X)
    assert V.critical_counts(X) == [2, 0]
    M = critical_complex(X, V)
    assert all_homology(M) == [AbelianInvariants([], 2), AbelianInvariants([], 0)]


# ------------------------------------------------------------- Bing's house


def test_bing_house_counts():
    Y = bing_house()
    assert Y.counts == [72, 154, 83]


def test_bing_house_homology():
    hom = all_homology(bing_house().as_chain_complex())
    assert [str(h) for h in hom] == ["Z", "0", "0"]


def test_bing_house_every_edge_bounds_two_squares():
    # the structural fact behind the impossibility of a one-critical field
    Y = bing_house()
    assert all(len(up) >= 2 for up in Y.coface_table()[1])


def test_bing_house_needs_at_least_two_critical_cells():
    Y = bing_house()
    V = maximal_dvf(Y)
    assert sum(V.critical_counts(Y)) >= 2


# -------------------------------------------------------- critical_complex


def test_tree_critical_complex_ranks():
    X = cubic_tree(3)
    M = critical_complex(X, maximal_dvf(X))
    assert M.ranks == [1, 0]


def test_circle_critical_complex():
    X = circle()
    M = critical_complex(X, maximal_dvf(X))
    assert M.ranks == [1, 1]
    assert all_homology(M) == [AbelianInvariants([], 1), AbelianInvariants([], 1)]


def test_bing_critical_complex_homology():
    Y = bing_house()
    M = critical_complex(Y, maximal_dvf(Y))
    assert sum(M.ranks) < 10
    assert [str(h) for h in all_homology(M)] == ["Z", "0", "0"]


def test_projective_plane_torsion_preserved():
    X = projective_plane()
    M = critical_complex(X, maximal_dvf(X))
    assert [str(h) for h in all_homology(M)] == ["Z", "Z/2", "0"]


def test_critical_complex_rejects_inadmissible():
    V = DiscreteVectorField([(0, 0, 0), (0, 1, 1)])
    with pytest.raises(NotAdmissible):
        critical_complex(circle(), V)


def test_partial_field_still_reduces():
    # pairing only one vertex of a path leaves the rest critical but the
    # homology of the critical complex is unchanged
    X = path_complex(4)
    V = DiscreteVectorField([(0, 1, 0)])
    M = critical_complex(X, V)
    assert M.ranks == [4, 3]
    assert all_homology(M) == all_homology(X.as_chain_complex())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_cubical_homology_preserved(seed):
    X = random_cubical(random.Random(seed))
    V = maximal_dvf(X)
    M = critical_complex(X, V)
    assert all_homology(M) == all_homology(X.as_chain_complex())


def test_critical_complex_trace_lists_the_arrows():
    # arrow (k, s, t) is the collapse of degree k + 1, source t, target s
    Y = bing_house()
    V = maximal_dvf(Y)
    M = critical_complex(Y, V)
    assert M.trace == [CollapseStep(k + 1, t, s) for k, s, t in V.arrows]
    X = path_complex(4)
    M = critical_complex(X, DiscreteVectorField([(0, 3, 2), (0, 1, 0)]))
    assert M.trace == [CollapseStep(1, 2, 3), CollapseStep(1, 0, 1)]


def test_critical_complexes_frozen():
    """Critical complexes byte for byte, as the Morse flow computed them.

    tests/frozen/critical_complexes.json was written at commit 71c1b79,
    when critical_complex still iterated 1 - dh - hd on every critical
    cell.  It holds the two-room house under maximal_dvf, and eight
    random_cubical complexes (seeds 1000-1007), each stored as complex
    text plus arrows: even cases carry the maximal field, odd ones a
    random subset of it in shuffled order.
    """
    frozen = json.loads(FROZEN.read_text())
    Y = bing_house()
    assert critical_complex(Y, maximal_dvf(Y)).to_text() == \
        frozen["bing_house_maximal"]
    for case in frozen["cases"]:
        X = RegularCWComplex.from_text(case["complex"])
        V = DiscreteVectorField(case["arrows"])
        assert critical_complex(X, V).to_text() == case["critical"]


# ------------------------------------------------------------- file format


def test_text_roundtrip():
    Y = bing_house()
    Z = RegularCWComplex.from_text(Y.to_text())
    assert Z.counts == Y.counts and Z.faces == Y.faces


def test_save_load(tmp_path):
    X = projective_plane()
    p = tmp_path / "rp2.cw"
    save_complex(X, p)
    Z = load_complex(p)
    assert Z.counts == X.counts and Z.faces == X.faces


def test_from_text_comments_and_commas():
    text = "# a triangle boundary\ncells 3 3\n1 0: 1+, 0-\n1 1: 2+ 1-\n1 2: 2+, 0-\n"
    X = RegularCWComplex.from_text(text)
    assert X.counts == [3, 3]
    assert [str(h) for h in all_homology(X.as_chain_complex())] == ["Z", "Z"]


@pytest.mark.parametrize("text", [
    "1 0: 1+ 0-",                        # no header
    "cells 2 1\n1 0 1+ 0-",              # missing colon
    "cells 2 1\n1 0: 1* 0-",             # bad sign token
    "cells 2 1\n1 0: x+ 0-",             # bad face index
    "cells 2 1\n1 5: 1+ 0-",             # cell out of range
    "cells 2 1\n2 0: 1+ 0-",             # dimension out of range
    "cells 2 1\n1 0: 1+ 0-\n1 0: 1+ 0-", # duplicate cell line
    "cells two 1\n1 0: 1+ 0-",           # bad count
])
def test_from_text_rejects(text):
    with pytest.raises(FormatError):
        RegularCWComplex.from_text(text)
