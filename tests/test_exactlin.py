"""Tests for the exact integer linear algebra layer."""

import random
import time
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from artifact.errors import (CompositionNonzero, FormatError, NotInLattice,
                             NotMonic, ShapeMismatch)
from artifact.exactlin import (
    TRANSFORMS,
    AbelianInvariants,
    IntMatrix,
    QuotientLattice,
    SparseIntMatrix,
    charpoly,
    cokernel_invariants,
    column_span_basis,
    homology_of_pair,
    integer_kernel,
    integer_roots,
    kernel_with_left_inverse,
    smith_normal_form,
    solve_echelon,
    _sym_div,
)
from artifact.coeffmod import PolynomialModule, hom_complex
from artifact.congruence import CongruenceSubgroup
from artifact.hecke import matrix_on_quotient
from artifact.resolutions import restrict_resolution, sl2z_resolution

from genhelpers import dense


def small_matrix(max_dim=12, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-max_entry, max_entry), min_size=c, max_size=c),
                min_size=r, max_size=r).map(IntMatrix.from_rows)))


def random_unimodular(n, seed_ops):
    """Product of elementary row operations; |det| = 1 by construction."""
    m = IntMatrix.identity(n)
    for kind, a, b, q in seed_ops:
        a, b = a % n, b % n
        if a == b:
            continue
        if kind == 0:
            m.data[a], m.data[b] = m.data[b], m.data[a]
        else:
            m.data[a] = [x + q * y for x, y in zip(m.data[a], m.data[b])]
    return m


unimod_ops = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 11), st.integers(0, 11),
              st.integers(-3, 3)),
    max_size=10)


# ---------------------------------------------------------------- fixtures


def test_snf_identity():
    sf = smith_normal_form(IntMatrix.identity(3))
    assert sf.d == [1, 1, 1]
    assert sf.rank == 3


def test_snf_diag_2_3():
    # gcd/lcm by hand: diag(2,3) ~ diag(1,6)
    sf = smith_normal_form(IntMatrix.diagonal([2, 3]))
    assert sf.d == [1, 6]
    assert sf.U * IntMatrix.diagonal([2, 3]) * sf.V == IntMatrix.diagonal([1, 6])


def test_snf_zero():
    sf = smith_normal_form(IntMatrix.zeros(2, 2))
    assert sf.d == [0, 0]
    assert sf.rank == 0


def test_snf_empty():
    sf = smith_normal_form(IntMatrix.zeros(0, 3))
    assert sf.d == []
    assert sf.rank == 0


def test_kernel_sum_map():
    k = integer_kernel(IntMatrix.from_rows([[1, 1]]))
    assert k.cols == 1
    assert k.col(0) in ([1, -1], [-1, 1])


def test_integer_kernel_tracks_only_v(monkeypatch):
    # V alone spans the kernel; V^-1 would be a second square matrix
    # updated on every column operation and then discarded
    from artifact import exactlin
    asked = []
    real = exactlin.smith_normal_form

    def recorded(M, transforms=TRANSFORMS):
        asked.append(tuple(transforms))
        return real(M, transforms)

    monkeypatch.setattr(exactlin, "smith_normal_form", recorded)
    M = IntMatrix.from_rows([[2, 4, 6], [1, 3, 5]])
    assert integer_kernel(M) == kernel_with_left_inverse(M)[0]
    assert asked == [("V",), ("V", "Vinv")]


def test_kernel_identity_empty():
    assert integer_kernel(IntMatrix.identity(4)).cols == 0


def test_kernel_zero_full():
    k = integer_kernel(IntMatrix.zeros(2, 2))
    assert k.cols == 2
    assert smith_normal_form(k, transforms=()).rank == 2


def test_homology_circle():
    # one 1-cell attached trivially: H1 = Z
    inv = homology_of_pair(IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1))
    assert inv.torsion == [] and inv.free_rank == 1


def test_homology_z12():
    inv = homology_of_pair(IntMatrix.zeros(1, 1), IntMatrix.from_rows([[12]]))
    assert inv.torsion == [12] and inv.free_rank == 0


def test_homology_exact():
    inv = homology_of_pair(IntMatrix.identity(3), IntMatrix.zeros(3, 2))
    assert inv.is_trivial()


def test_homology_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        homology_of_pair(IntMatrix.zeros(1, 2), IntMatrix.zeros(3, 1))


def test_homology_composition_nonzero():
    with pytest.raises(CompositionNonzero):
        homology_of_pair(IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]))


def test_abelian_invariants_display():
    inv = AbelianInvariants([2, 4], 3)
    assert str(inv) == "Z/2 + Z/4 + Z^3"


def test_serialization_header_errors():
    with pytest.raises(FormatError):
        IntMatrix.from_text("2 2\n1 2 3")
    with pytest.raises(FormatError):
        IntMatrix.from_text("2\n")
    with pytest.raises(FormatError):
        IntMatrix.from_text("2 2\n1 2 3 x")


def test_charpoly_companion():
    # x^2 - x - 1 via its companion matrix
    m = IntMatrix.from_rows([[0, 1], [1, 1]])
    assert charpoly(m) == [1, -1, -1]
    assert charpoly(IntMatrix.diagonal([2, 3])) == [1, -5, 6]
    assert charpoly(IntMatrix.zeros(0, 0)) == [1]


def test_integer_roots():
    # (x-2)(x-3)(x^2+1) = x^4 -5x^3 +7x^2 -5x +6
    roots, residual = integer_roots([1, -5, 7, -5, 6])
    assert roots == [2, 3]
    assert residual == [1, 0, 1]
    roots, residual = integer_roots([1, 0, 0])
    assert roots == [0, 0] and residual == [1]
    roots, residual = integer_roots([1, 2, -2])
    assert roots == [] and residual == [1, 2, -2]


def test_quotient_lattice_diag():
    q = QuotientLattice(IntMatrix.identity(2), IntMatrix.diagonal([2, 3]))
    assert q.orders == [1, 6] and q.presented() == [1]
    # one SNF: the adapted basis is Z U^-1, and U undoes it
    assert q.U * q.basis == IntMatrix.identity(2)


def test_quotient_lattice_with_free_part():
    # L = span{(2,0,0), (0,1,0), (0,0,1)} modulo 2(2,0,0): Z/2 + Z^2
    Z = IntMatrix.diagonal([2, 1, 1])
    q = QuotientLattice(Z, IntMatrix.from_rows([[2], [0], [0]]))
    assert [q.orders[i] for i in q.presented()] == [0, 0, 2]
    # adapted coordinates of a lattice vector: U times its Z-coordinates,
    # torsion reduced; the adapted basis lifts them back into the class
    def coordinates(v):
        return solve_echelon(Z, IntMatrix.column(v)).col(0)

    def project(v):
        return [x % o if o > 1 else x
                for x, o in zip(q.U.apply(coordinates(v)), q.orders)]

    v = [6, 1, -4]
    assert q.basis.apply(q.U.apply(coordinates(v))) == v
    assert project(q.basis.apply(project(v))) == project(v)


def test_quotient_lattice_rejects_outside():
    # L = 2Z x 0; the operator below sends (2, 0) to (2, 2), outside L
    Z = IntMatrix.from_rows([[2], [0]])
    q = QuotientLattice(Z, IntMatrix.from_rows([[2]]))
    leaves = IntMatrix.from_rows([[1, 0], [1, 0]])
    with pytest.raises(NotInLattice):
        matrix_on_quotient(leaves, q, lambda V: solve_echelon(Z, V))
    matrix, orders, basis = matrix_on_quotient(
        IntMatrix.from_rows([[3, 0], [0, 0]]), q, lambda V: solve_echelon(Z, V))
    assert orders == (2,) and basis == [[2, 0]]
    assert matrix == IntMatrix.from_rows([[1]])
    # relations must be written in the lattice's coordinates
    with pytest.raises(ShapeMismatch):
        QuotientLattice(Z, IntMatrix.from_rows([[4], [0]]))


def test_solve_echelon_out_of_span():
    # 1 is not divisible by the pivot 2
    assert solve_echelon(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]])) is None
    # a nonzero entry left in a row below the last pivot
    assert solve_echelon(IntMatrix.from_rows([[1], [0]]),
                         IntMatrix.from_rows([[0], [1]])) is None
    # a nonzero entry left in a row between two pivots
    E = IntMatrix.from_rows([[1, 0], [2, 0], [0, 1]])
    assert solve_echelon(E, IntMatrix.from_rows([[1], [0], [0]])) is None
    assert solve_echelon(E, IntMatrix.from_rows([[1], [2], [5]])) == \
        IntMatrix.from_rows([[1], [5]])
    # one bad column spoils the whole solve
    assert solve_echelon(IntMatrix.diagonal([2, 3]),
                         IntMatrix.from_rows([[2, 4], [3, 1]])) is None


def test_solve_echelon_no_columns():
    E = column_span_basis(IntMatrix.from_rows([[1, 2, 3], [0, 4, 5]]))
    x = solve_echelon(E, IntMatrix.zeros(2, 0))
    assert (x.rows, x.cols) == (E.cols, 0)
    # a basis with no columns spans only zero
    empty = IntMatrix.zeros(2, 0)
    assert solve_echelon(empty, IntMatrix.zeros(2, 3)) == IntMatrix.zeros(0, 3)
    assert solve_echelon(empty, IntMatrix.from_rows([[0], [1]])) is None


@pytest.mark.parametrize("rows", [
    [[0, 1], [1, 0]],          # pivot rows decrease
    [[1, 1], [0, 1]],          # two columns share a pivot row
    [[1, 0], [0, 0]],          # a zero column
])
def test_solve_echelon_rejects_non_echelon(rows):
    with pytest.raises(ShapeMismatch, match="echelon"):
        solve_echelon(IntMatrix.from_rows(rows), IntMatrix.zeros(2, 1))


def test_solve_echelon_row_mismatch():
    with pytest.raises(ShapeMismatch, match="right-hand side"):
        solve_echelon(IntMatrix.identity(2), IntMatrix.zeros(3, 1))


def test_cokernel_invariants_examples():
    # Z^3 / span{(2,0,0), (0,3,0)} = Z/6 + Z
    inv = cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    assert inv.torsion == [6] and inv.free_rank == 1
    assert str(cokernel_invariants(IntMatrix.zeros(2, 0))) == "Z^2"


def _solve_with_form(M_form, b):
    """Solve M*x = b given the SmithForm of M (with transforms).

    b is a list; returns a list x with M*x = b, or None when no integer
    solution exists.  With U*M*V = D the system becomes D*y = U*b, x = V*y.
    This one-column form is the reference solve_echelon is compared against.
    """
    sf = M_form
    ub = sf.U.apply(b)
    n = sf.V.rows
    y = [0] * n
    for i, v in enumerate(ub):
        di = sf.d[i] if i < len(sf.d) else 0
        if di:
            if v % di:
                return None
            y[i] = v // di
        elif v:
            return None
    return sf.V.apply(y)


def _solve_by_columns(m, b):
    """Reference: _solve_with_form one column at a time."""
    sf = smith_normal_form(m)
    cols = [_solve_with_form(sf, b.col(j)) for j in range(b.cols)]
    if any(c is None for c in cols):
        return None
    return IntMatrix(m.cols, b.cols, [[c[i] for c in cols] for i in range(m.cols)])


def _invariant_chain(values):
    """Invariant factors of the diagonal group sum Z/v, v != 0."""
    ds = sorted(abs(v) for v in values if v)
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return ds


def test_cokernel_invariants_match_sympy():
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    rng = random.Random(20011)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        # a random scale per row makes torsion common
        data = [[rng.randint(-6, 6) * scale for _ in range(cols)]
                for scale in (rng.choice((1, 1, 2, 3, 6)) for _ in range(rows))]
        snf = sympy_snf(sympy.Matrix(data), domain=sympy.ZZ)
        diag = [int(snf[i, i]) for i in range(min(rows, cols))]
        chain = _invariant_chain(diag)
        inv = cokernel_invariants(IntMatrix.from_rows(data))
        assert inv.torsion == [d for d in chain if d > 1], data
        assert inv.free_rank == rows - len(chain), data


# ---------------------------------------------------------------- properties


class TestSmithProperties:
    @given(small_matrix())
    def test_transform_identity(self, m):
        sf = smith_normal_form(m)
        d = IntMatrix.diagonal(sf.d, rows=m.rows, cols=m.cols)
        assert sf.U * m * sf.V == d

    @given(small_matrix())
    def test_divisibility_chain(self, m):
        sf = smith_normal_form(m)
        assert all(v >= 0 for v in sf.d)
        for a, b in zip(sf.d, sf.d[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0

    @given(small_matrix())
    def test_transforms_unimodular(self, m):
        sf = smith_normal_form(m)
        assert sympy.Matrix(sf.U.data).det() in (1, -1)
        assert sympy.Matrix(sf.V.data).det() in (1, -1)
        assert sf.U * sf.Uinv == IntMatrix.identity(m.rows)
        assert sf.Vinv * sf.V == IntMatrix.identity(m.cols)

    @given(small_matrix(max_dim=8), unimod_ops, unimod_ops)
    def test_invariant_under_unimodular(self, m, ops1, ops2):
        a = random_unimodular(m.rows, ops1)
        b = random_unimodular(m.cols, ops2)
        assert smith_normal_form(a * m * b, transforms=()).d == \
            smith_normal_form(m, transforms=()).d

    @given(small_matrix())
    def test_kernel(self, m):
        k = integer_kernel(m)
        assert (m * k).is_zero()
        assert k.cols == m.cols - smith_normal_form(m, transforms=()).rank
        if k.cols:
            # saturation: the basis extends to a basis of the ambient lattice,
            # equivalently all invariant factors are 1
            sf = smith_normal_form(k, transforms=())
            assert sf.d[:k.cols] == [1] * k.cols

    @given(small_matrix())
    def test_column_transforms(self, m):
        full = smith_normal_form(m)
        cols = smith_normal_form(m, transforms=("V", "Vinv"))
        assert cols.U is None and cols.Uinv is None
        assert (cols.d, cols.V, cols.Vinv) == (full.d, full.V, full.Vinv)

    @given(small_matrix(), st.sets(st.sampled_from(TRANSFORMS)))
    def test_named_transforms(self, m, names):
        # each named transform is the full form's, entry for entry; the
        # others are not tracked
        full = smith_normal_form(m)
        part = smith_normal_form(m, transforms=tuple(names))
        assert (part.d, part.rank) == (full.d, full.rank)
        for name in TRANSFORMS:
            expected = getattr(full, name) if name in names else None
            assert getattr(part, name) == expected, name

    @given(small_matrix())
    def test_kernel_with_left_inverse(self, m):
        z, p = kernel_with_left_inverse(m)
        assert (m * z).is_zero()
        assert p * z == IntMatrix.identity(z.cols)
        assert z == integer_kernel(m)

    @given(small_matrix(max_dim=6, max_entry=5), st.data())
    def test_solve_echelon_matches_columnwise(self, m, data):
        E = column_span_basis(m)
        ncols = data.draw(st.integers(0, 4))
        entries = st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)
        x = IntMatrix(E.cols, ncols, data.draw(
            st.lists(entries, min_size=E.cols, max_size=E.cols)))
        noise = IntMatrix(E.rows, ncols, data.draw(
            st.lists(entries, min_size=E.rows, max_size=E.rows)))
        # a consistent right-hand side, and one that usually is not; the
        # Smith-form reference agrees on both, None included, because E
        # has full column rank and a solution is unique
        for b in (E * x, E * x + noise):
            got = solve_echelon(E, b)
            assert got == _solve_by_columns(E, b)
            if got is not None:
                assert E * got == b

    @given(small_matrix(max_dim=8), st.lists(st.integers(-5, 5), min_size=8, max_size=8))
    def test_solve_consistent_system(self, m, xs):
        E = column_span_basis(m)
        x = xs[:E.cols]
        b = IntMatrix.column(E.apply(x))
        got = solve_echelon(SparseIntMatrix.of(E), SparseIntMatrix.of(b))
        assert got == IntMatrix.column(x)

    @given(small_matrix(max_dim=8))
    def test_column_span_basis(self, m):
        basis = column_span_basis(m)
        assert basis.cols == smith_normal_form(m, transforms=()).rank
        assert column_span_basis(SparseIntMatrix.of(m)) == basis
        # every original column is an integer combination of the basis
        got = solve_echelon(basis, m)
        assert got is not None and got == _solve_by_columns(basis, m)
        # and conversely
        if basis.cols:
            assert _solve_by_columns(m, basis) is not None

    @given(small_matrix(max_dim=6, max_entry=4))
    def test_charpoly_trace_det(self, m):
        if m.rows != m.cols:
            return
        p = charpoly(m)
        tr = sum(m.data[i][i] for i in range(m.rows))
        assert p[0] == 1
        assert p[1] == -tr
        assert p[-1] == (-1) ** m.rows * sympy.Matrix(m.data).det()

    @given(small_matrix())
    def test_text_roundtrip(self, m):
        assert IntMatrix.from_text(m.to_text()) == m


@given(st.integers(1, 6))
def test_exact_shifted_identity_trivial(k):
    # the exact complex 0 -> Z^k -id-> Z^k -0-> Z^k -id-> Z^k -> 0 has
    # trivial homology in both middle degrees
    assert homology_of_pair(IntMatrix.identity(k), IntMatrix.zeros(k, k)).is_trivial()
    assert homology_of_pair(IntMatrix.zeros(k, k), IntMatrix.identity(k)).is_trivial()


# ------------------------------------------------ pivot search reference


def _full_scan_snf(M, hits):
    """Smith form whose pivot search rescans the whole active block.

    The elimination of smith_normal_form as it was before its row pivot
    keys were cached, with all four transforms; the cached search must
    choose the same pivots, so every output agrees with this one.  hits
    counts the remainder swap-ins and the divisibility fix-ups, and the
    changes between two pivot searches in a row whose entries stayed put
    that the cached search handles without rescanning every such row: a
    column swap that moves the row's least-key entry up (the row is
    rescanned), one that moves only other entries up (the row keeps its
    key), and an occupancy change in the column of a +-1 entry that is not
    alone in its row (that entry's key is recomputed).  So a test can show
    that its matrices reach them.
    """
    m, n = M.rows, M.cols
    row = [dict() for _ in range(m)]
    colocc = [set() for _ in range(n)]
    for i in range(m):
        for j in range(n):
            if M.data[i][j]:
                row[i][j] = M.data[i][j]
                colocc[j].add(i)
    U = [[int(a == b) for b in range(m)] for a in range(m)]
    Ui = [r[:] for r in U]
    V = [[int(a == b) for b in range(n)] for a in range(n)]
    Vi = [r[:] for r in V]
    # each row's least key at the last pivot search; rows whose entries
    # changed since then, and columns whose occupancy changed
    least = {}
    changed = set()
    occ_changed = set()

    def count(name):
        hits[name] = hits.get(name, 0) + 1

    def row_swap(a, b):
        if a == b:
            return
        row[a], row[b] = row[b], row[a]
        for j in set(row[a]) | set(row[b]):
            occ = colocc[j]
            occ.add(a) if j in row[a] else occ.discard(a)
            occ.add(b) if j in row[b] else occ.discard(b)
        changed.update((a, b))
        U[a], U[b] = U[b], U[a]
        for r in Ui:
            r[a], r[b] = r[b], r[a]

    def col_swap(a, b):
        if a == b:
            return
        for i in colocc[a] | colocc[b]:
            if i >= k and i not in changed:
                # every swap takes a column to a higher index b; the
                # entries that come down to a are eliminated at once
                if i in colocc[b]:
                    changed.add(i)
                elif least[i][3] == a:
                    count("moved least entry")
                    changed.add(i)
                else:
                    count("moved other entry")
            ri = row[i]
            va, vb = ri.pop(a, None), ri.pop(b, None)
            if vb is not None:
                ri[a] = vb
            if va is not None:
                ri[b] = va
        colocc[a], colocc[b] = colocc[b], colocc[a]
        for r in V:
            r[a], r[b] = r[b], r[a]
        Vi[a], Vi[b] = Vi[b], Vi[a]

    def row_addmul(dst, src, q):
        if q == 0:
            return
        rd = row[dst]
        for j, v in row[src].items():
            w = rd.get(j, 0) + q * v
            if (j in rd) != bool(w):
                occ_changed.add(j)
            if w:
                rd[j] = w
                colocc[j].add(dst)
            else:
                del rd[j]
                colocc[j].discard(dst)
        changed.add(dst)
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        for r in Ui:
            r[src] -= q * r[dst]

    def col_addmul(dst, src, q):
        if q == 0:
            return
        for i in list(colocc[src]):
            ri = row[i]
            w = ri.get(dst, 0) + q * ri[src]
            if (dst in ri) != bool(w):
                occ_changed.add(dst)
            changed.add(i)
            if w:
                ri[dst] = w
                colocc[dst].add(i)
            else:
                del ri[dst]
                colocc[dst].discard(i)
        for r in V:
            r[dst] += q * r[src]
        Vi[src] = [x - q * y for x, y in zip(Vi[src], Vi[dst])]

    def row_negate(i):
        for j in row[i]:
            row[i][j] = -row[i][j]
        U[i] = [-x for x in U[i]]
        for r in Ui:
            r[i] = -r[i]

    def col_transform2(a, b, p, q, r, s):
        for i in list(colocc[a] | colocc[b]):
            ri = row[i]
            va, vb = ri.get(a, 0), ri.get(b, 0)
            for col, w in ((a, p * va + q * vb), (b, r * va + s * vb)):
                if w:
                    ri[col] = w
                    colocc[col].add(i)
                else:
                    ri.pop(col, None)
                    colocc[col].discard(i)
        for rw in V:
            va, vb = rw[a], rw[b]
            rw[a], rw[b] = p * va + q * vb, r * va + s * vb
        ra = [s * x - r * y for x, y in zip(Vi[a], Vi[b])]
        rb = [-q * x + p * y for x, y in zip(Vi[a], Vi[b])]
        Vi[a], Vi[b] = ra, rb

    limit = min(m, n)
    k = 0
    while k < limit:
        for j in occ_changed:
            for i in colocc[j]:
                if (i >= k and i not in changed and abs(row[i][j]) == 1
                        and len(row[i]) > 1):
                    count("unit occupancy change")
        changed.clear()
        occ_changed.clear()
        best = None
        for i in range(k, m):
            least.pop(i, None)
            for j, v in row[i].items():
                if abs(v) == 1:
                    key = (0, (len(row[i]) - 1) * (len(colocc[j]) - 1), i, j)
                else:
                    key = (1, abs(v), i, j)
                least[i] = min(key, least.get(i, key))
                if best is None or key < best:
                    best = key
        if best is None:
            break
        row_swap(k, best[2])
        col_swap(k, best[3])
        while True:
            if row[k][k] < 0:
                row_negate(k)
            p = row[k][k]
            for i in [i for i in colocc[k] if i != k]:
                row_addmul(i, k, -_sym_div(row[i][k], p))
            leftover = [i for i in colocc[k] if i != k]
            if leftover:
                count("row remainder")
                row_swap(k, min(leftover, key=lambda i: (abs(row[i][k]), i)))
                continue
            for j in [j for j in row[k] if j != k]:
                col_addmul(j, k, -_sym_div(row[k][j], p))
            leftover = [j for j in row[k] if j != k]
            if leftover:
                count("column remainder")
                col_swap(k, min(leftover, key=lambda j: (abs(row[k][j]), j)))
                continue
            break
        k += 1

    d = [row[i].get(i, 0) for i in range(limit)]
    i = 0
    while i < k:
        fixed_any = False
        for j in range(i + 1, k):
            if d[j] % d[i]:
                count("divisibility fix-up")
                a, b = d[i], d[j]
                g = gcd(a, b)
                p0, p1, q0, q1, x, y = 1, 0, 0, 1, a, b
                while y:
                    t, x, y = x // y, y, x % y
                    p0, p1 = p1, p0 - t * p1
                    q0, q1 = q1, q0 - t * q1
                row_addmul(i, j, 1)
                col_transform2(i, j, p0, q0, -b // g, a // g)
                row_addmul(j, i, -(q0 * b) // g)
                d[i], d[j] = g, a * b // g
                fixed_any = True
        if not fixed_any:
            i += 1
    return d, U, V, Ui, Vi


def _sparse_test_matrix(rng, rows, cols):
    """Sparse random matrix with some zero rows and columns.

    Half of the matrices have entries +-1 among others, half have none, so
    that both kinds of pivot key occur; entries with common factors make
    remainders and out-of-order diagonals likely.
    """
    values = rng.choice(((1, -1, 2, 3, -4), (2, -3, 4, 6, -9, 10, 15)))
    density = rng.choice((0.15, 0.3, 0.5))
    dead_rows = set(rng.sample(range(rows), rows // 5))
    dead_cols = set(rng.sample(range(cols), cols // 5))
    return IntMatrix(rows, cols, [
        [rng.choice(values) if i not in dead_rows and j not in dead_cols
         and rng.random() < density else 0 for j in range(cols)]
        for i in range(rows)])


def test_pivot_sequence_matches_full_scan():
    # cached row keys choose the pivots a full scan chooses, so the whole
    # form, transforms included, is unchanged
    rng = random.Random(20260)
    hits = {"row remainder": 0, "column remainder": 0, "divisibility fix-up": 0}
    shapes = []
    for t in range(72):
        small, large = rng.randint(1, 9), rng.randint(10, 16)
        shapes.append(((large, large), (small, large), (large, small))[t % 3])
    for rows, cols in shapes:
        m = _sparse_test_matrix(rng, rows, cols)
        d, U, V, Ui, Vi = _full_scan_snf(m, hits)
        sf = smith_normal_form(m)
        assert sf.d == d, m
        assert (sf.U.data, sf.V.data, sf.Uinv.data, sf.Vinv.data) == (U, V, Ui, Vi), m
    assert all(hits.values()), hits


def test_pivot_sequence_matches_full_scan_on_coboundaries():
    # the coboundaries of Gamma0(11) at weight 6 and of Gamma0(17) with
    # P(2) coefficients, unit-heavy and with many column moves, reach every
    # refresh the cached search makes without a full rescan
    hits = {name: 0 for name in ("moved least entry", "moved other entry",
                                 "unit occupancy change")}
    for level, k in ((11, 4), (17, 2)):
        R = restrict_resolution(sl2z_resolution(3),
                                CongruenceSubgroup.gamma0(level))
        for delta in hom_complex(R, PolynomialModule(k)).deltas:
            m = dense(delta)
            d, U, V, Ui, Vi = _full_scan_snf(m, hits)
            sf = smith_normal_form(delta)
            assert sf.d == d, (level, k, delta.rows, delta.cols)
            assert (sf.U.data, sf.V.data, sf.Uinv.data, sf.Vinv.data) == (U, V, Ui, Vi)
    assert all(hits.values()), hits


# ------------------------------------------------ sparse d.d check


def test_composition_check_sees_last_entry():
    # d_n * d_next has one nonzero entry, in its last row and last column
    d_n, d_next = IntMatrix.zeros(4, 5), IntMatrix.zeros(5, 6)
    d_n.data[3][4] = 2
    d_next.data[4][5] = 3
    d_n.data[0][0] = d_next.data[1][2] = 1
    with pytest.raises(CompositionNonzero):
        homology_of_pair(d_n, d_next)


def test_composition_check_lets_cancelling_terms_pass():
    # every entry of d_n * d_next is a sum of nonzero terms that cancel
    d_n = IntMatrix.from_rows([[1, 1, 0], [2, 2, 0]])
    d_next = IntMatrix.from_rows([[1, 3], [-1, -3], [0, 0]])
    inv = homology_of_pair(d_n, d_next)
    assert inv.torsion == [] and inv.free_rank == 1


# ------------------------------------------------ integer roots


def _roots_by_all_divisors(poly):
    """integer_roots as a trial division over every divisor of c0."""
    coeffs, roots = list(poly), []
    while len(coeffs) > 1:
        if coeffs[-1] == 0:
            roots.append(0)
            coeffs.pop()
            continue
        c0 = abs(coeffs[-1])
        found = None
        for r in sorted(s * k for k in range(1, c0 + 1) if c0 % k == 0
                        for s in (1, -1)):
            acc = 0
            for c in coeffs:
                acc = acc * r + c
            if acc == 0:
                found = r
                break
        if found is None:
            break
        roots.append(found)
        out, acc = [], 0
        for c in coeffs[:-1]:
            acc = acc * found + c
            out.append(acc)
        coeffs = out
    return sorted(roots), coeffs


def _times_linear(poly, r):
    """poly * (x - r), coefficients highest degree first."""
    return [a - r * b for a, b in zip(poly + [0], [0] + poly)]


def test_integer_roots_match_all_divisors():
    rng = random.Random(7741)
    for _ in range(120):
        poly = [1] + [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
        for _ in range(rng.randint(0, 4)):
            poly = _times_linear(poly, rng.randint(-9, 9))
        assert integer_roots(poly) == _roots_by_all_divisors(poly), poly


def test_integer_roots_large_constant_term():
    # trial division over every divisor of a 100-bit constant term would
    # never finish; the root bound keeps the search to small divisors
    rng = random.Random(4040)
    roots = sorted(rng.choice((-12, -11, -7, -6, -5, 5, 6, 7, 11, 12))
                   for _ in range(42))
    poly = [1, 1, 1]
    for r in roots:
        poly = _times_linear(poly, r)
    assert len(poly) - 1 >= 40 and abs(poly[-1]).bit_length() >= 100
    start = time.perf_counter()
    assert integer_roots(poly) == (roots, [1, 1, 1])
    assert time.perf_counter() - start < 1.0


def test_integer_roots_needs_monic():
    with pytest.raises(NotMonic):
        integer_roots([2, 1])
    with pytest.raises(NotMonic):
        integer_roots([])


# ------------------------------------------------ sparse matrices


def _mostly_zero(rows, cols):
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: IntMatrix(rows, cols, data))


# three chained shapes r x k x c, 0 included on every side
_chain = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).flatmap(
    lambda s: st.tuples(_mostly_zero(s[0], s[1]), _mostly_zero(s[1], s[2]),
                        _mostly_zero(s[0], s[1]), _mostly_zero(s[2], s[0])))


class TestSparseAgainstDense:
    @settings(max_examples=150, deadline=None)
    @given(_chain, st.lists(st.integers(-5, 5), min_size=6, max_size=6))
    def test_matches_dense(self, mats, vec):
        A, B, A2, Bt = mats
        S, T = SparseIntMatrix.of(A), SparseIntMatrix.of(B)
        assert dense(S) == A and (S.rows, S.cols) == (A.rows, A.cols)
        assert not any(0 in col.values() for col in S.columns)
        assert all(list(r) == sorted(r) for r in S.row_dicts())
        assert S.row_dicts() == A.row_dicts()
        # products: sparse with dense in both orders, and sparse with sparse
        for got, want in ((S * B, A * B), (Bt * S, Bt * A), (A2 * T, A2 * B)):
            assert type(got) is IntMatrix and got == want
        ST = S * T
        assert type(ST) is SparseIntMatrix and dense(ST) == A * B
        assert S.apply(vec[:A.cols]) == A.apply(vec[:A.cols])
        assert dense(S.transpose()) == A.transpose()
        assert S.is_zero() == A.is_zero()
        assert S.nonzero_count() == A.nonzero_count()
        # equality, within the type and against dense matrices
        assert S == A and A == S and not S != A
        assert (S == SparseIntMatrix.of(A2)) == (A == A2)
        assert (S == A2) == (A == A2)
        assert S != SparseIntMatrix(A.rows + 1, A.cols)
        # text is the dense format, both ways
        assert S.to_text() == A.to_text()
        assert SparseIntMatrix.from_text(A.to_text()) == S

    def test_empty_shapes(self):
        for r, c in ((0, 3), (3, 0), (0, 0)):
            S = SparseIntMatrix(r, c)
            assert S.is_zero() and S.nonzero_count() == 0
            assert S == IntMatrix.zeros(r, c)
            assert S.to_text() == IntMatrix.zeros(r, c).to_text()
            assert S.apply([0] * c) == [0] * r
            assert (S * IntMatrix.zeros(c, 2)) == IntMatrix.zeros(r, 2)
            assert (IntMatrix.zeros(2, r) * S) == IntMatrix.zeros(2, c)

    def test_shape_checks(self):
        S = SparseIntMatrix(2, 3)
        with pytest.raises(ShapeMismatch):
            S * IntMatrix.zeros(2, 2)
        with pytest.raises(ShapeMismatch):
            IntMatrix.zeros(2, 3) * S
        with pytest.raises(ShapeMismatch):
            S * SparseIntMatrix(2, 2)
        with pytest.raises(ShapeMismatch):
            S.apply([1, 2])
        with pytest.raises(ShapeMismatch):
            SparseIntMatrix(2, 3, [{}])
        with pytest.raises(FormatError):
            SparseIntMatrix.from_text("2 2\n1 2 3")

    @settings(max_examples=60, deadline=None)
    @given(_chain)
    def test_smith_form_reads_sparse_input(self, mats):
        A = mats[0]
        full = smith_normal_form(A)
        got = smith_normal_form(SparseIntMatrix.of(A))
        assert (got.d, got.rank) == (full.d, full.rank)
        assert (got.U, got.V, got.Uinv, got.Vinv) == (full.U, full.V, full.Uinv, full.Vinv)
