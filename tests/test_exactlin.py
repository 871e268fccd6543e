"""Tests for the exact integer linear algebra layer."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from artifact.errors import (CompositionNonzero, FormatError, NotInLattice,
                             ShapeMismatch)
from artifact.exactlin import (
    AbelianInvariants,
    IntMatrix,
    QuotientLattice,
    charpoly,
    cokernel_invariants,
    column_span_basis,
    determinant,
    homology_of_pair,
    integer_kernel,
    integer_roots,
    kernel_with_left_inverse,
    rank,
    smith_normal_form,
    solve,
    solve_matrix,
    solve_with_form,
)
from artifact.hecke import matrix_on_quotient


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


def test_kernel_identity_empty():
    assert integer_kernel(IntMatrix.identity(4)).cols == 0


def test_kernel_zero_full():
    k = integer_kernel(IntMatrix.zeros(2, 2))
    assert k.cols == 2
    assert rank(k) == 2


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
    assert inv.entries() == [2, 4, 0, 0, 0]
    assert str(inv) == "Z/2 + Z/4 + Z^3"
    assert AbelianInvariants([], 0).order() == 1
    assert AbelianInvariants([2, 6], 0).order() == 12
    assert AbelianInvariants([], 1).order() == 0


def test_serialization_header_errors():
    with pytest.raises(FormatError):
        IntMatrix.from_text("2 2\n1 2 3")
    with pytest.raises(FormatError):
        IntMatrix.from_text("2\n")
    with pytest.raises(FormatError):
        IntMatrix.from_text("2 2\n1 2 3 x")


def test_determinant_examples():
    assert determinant(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
    assert determinant(IntMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert determinant(IntMatrix.identity(5)) == 1
    assert determinant(IntMatrix.zeros(3, 3)) == 0


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
    inv = q.invariants()
    assert inv.torsion == [6] and inv.free_rank == 0
    assert q.orders == [1, 6] and q.presented() == [1]
    # one SNF: the adapted basis is Z U^-1, and U undoes it
    assert q.U * q.basis == IntMatrix.identity(2)


def test_quotient_lattice_with_free_part():
    # L = span{(2,0,0), (0,1,0), (0,0,1)} modulo 2(2,0,0): Z/2 + Z^2
    Z = IntMatrix.diagonal([2, 1, 1])
    q = QuotientLattice(Z, IntMatrix.from_rows([[2], [0], [0]]))
    inv = q.invariants()
    assert inv.torsion == [2] and inv.free_rank == 2
    assert [q.orders[i] for i in q.presented()] == [0, 0, 2]
    # adapted coordinates of a lattice vector: U times its Z-coordinates,
    # torsion reduced; the adapted basis lifts them back into the class
    def project(v):
        return [x % o if o > 1 else x
                for x, o in zip(q.U.apply(solve(Z, v)), q.orders)]

    v = [6, 1, -4]
    assert q.basis.apply(q.U.apply(solve(Z, v))) == v
    assert project(q.basis.apply(project(v))) == project(v)


def test_quotient_lattice_rejects_outside():
    # L = 2Z x 0; the operator below sends (2, 0) to (2, 2), outside L
    Z = IntMatrix.from_rows([[2], [0]])
    q = QuotientLattice(Z, IntMatrix.from_rows([[2]]))
    leaves = IntMatrix.from_rows([[1, 0], [1, 0]])
    with pytest.raises(NotInLattice):
        matrix_on_quotient(leaves, q, lambda V: solve_matrix(Z, V))
    matrix, orders, basis = matrix_on_quotient(
        IntMatrix.from_rows([[3, 0], [0, 0]]), q, lambda V: solve_matrix(Z, V))
    assert orders == (2,) and basis == [[2, 0]]
    assert matrix == IntMatrix.from_rows([[1]])
    # relations must be written in the lattice's coordinates
    with pytest.raises(ShapeMismatch):
        QuotientLattice(Z, IntMatrix.from_rows([[4], [0]]))


def test_solve_matrix_out_of_span():
    # 1 is not divisible by the invariant factor 2
    assert solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]])) is None
    # a nonzero entry in a row beyond the rank
    assert solve_matrix(IntMatrix.from_rows([[1], [0]]),
                        IntMatrix.from_rows([[0], [1]])) is None
    # one bad column spoils the whole solve
    assert solve_matrix(IntMatrix.diagonal([2, 3]),
                        IntMatrix.from_rows([[2, 4], [3, 1]])) is None


def test_solve_matrix_no_columns():
    x = solve_matrix(IntMatrix.from_rows([[1, 2, 3], [0, 4, 5]]),
                     IntMatrix.zeros(2, 0))
    assert (x.rows, x.cols) == (3, 0)


def test_cokernel_invariants_examples():
    # Z^3 / span{(2,0,0), (0,3,0)} = Z/6 + Z
    inv = cokernel_invariants(IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]]))
    assert inv.torsion == [6] and inv.free_rank == 1
    assert str(cokernel_invariants(IntMatrix.zeros(2, 0))) == "Z^2"


def _solve_by_columns(m, b):
    """Reference: solve_with_form one column at a time."""
    sf = smith_normal_form(m)
    cols = [solve_with_form(sf, b.col(j)) for j in range(b.cols)]
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
    sympy = pytest.importorskip("sympy")
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
        assert determinant(sf.U) in (1, -1)
        assert determinant(sf.V) in (1, -1)
        assert sf.U * sf.Uinv == IntMatrix.identity(m.rows)
        assert sf.Vinv * sf.V == IntMatrix.identity(m.cols)

    @given(small_matrix(max_dim=8), unimod_ops, unimod_ops)
    def test_invariant_under_unimodular(self, m, ops1, ops2):
        a = random_unimodular(m.rows, ops1)
        b = random_unimodular(m.cols, ops2)
        assert smith_normal_form(a * m * b, transforms=False).d == \
            smith_normal_form(m, transforms=False).d

    @given(small_matrix())
    def test_kernel(self, m):
        k = integer_kernel(m)
        assert (m * k).is_zero()
        assert k.cols == m.cols - rank(m)
        if k.cols:
            # saturation: the basis extends to a basis of the ambient lattice,
            # equivalently all invariant factors are 1
            sf = smith_normal_form(k, transforms=False)
            assert sf.d[:k.cols] == [1] * k.cols

    @given(small_matrix())
    def test_column_transforms(self, m):
        full = smith_normal_form(m)
        cols = smith_normal_form(m, transforms="columns")
        assert cols.U is None and cols.Uinv is None
        assert (cols.d, cols.V, cols.Vinv) == (full.d, full.V, full.Vinv)

    @given(small_matrix())
    def test_kernel_with_left_inverse(self, m):
        z, p = kernel_with_left_inverse(m)
        assert (m * z).is_zero()
        assert p * z == IntMatrix.identity(z.cols)
        assert z == integer_kernel(m)

    @given(small_matrix(max_dim=6, max_entry=5), st.data())
    def test_solve_matrix_matches_columnwise(self, m, data):
        ncols = data.draw(st.integers(0, 4))
        entries = st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)
        x = IntMatrix(m.cols, ncols, data.draw(
            st.lists(entries, min_size=m.cols, max_size=m.cols)))
        noise = IntMatrix(m.rows, ncols, data.draw(
            st.lists(entries, min_size=m.rows, max_size=m.rows)))
        # a consistent right-hand side, and one that usually is not
        for b in (m * x, m * x + noise):
            got = solve_matrix(m, b)
            assert got == _solve_by_columns(m, b)
            if got is not None:
                assert m * got == b

    @given(small_matrix(max_dim=8), st.lists(st.integers(-5, 5), min_size=8, max_size=8))
    def test_solve_consistent_system(self, m, xs):
        x = xs[:m.cols]
        b = m.apply(x)
        got = solve(m, b)
        assert got is not None
        assert m.apply(got) == b

    @given(small_matrix(max_dim=8))
    def test_column_span_basis(self, m):
        basis = column_span_basis(m)
        assert basis.cols == rank(m)
        # every original column is an integer combination of the basis
        assert solve_matrix(basis, m) is not None
        # and conversely
        if basis.cols:
            assert solve_matrix(m, basis) is not None

    @given(small_matrix(max_dim=6, max_entry=4))
    def test_charpoly_trace_det(self, m):
        if m.rows != m.cols:
            return
        p = charpoly(m)
        tr = sum(m.data[i][i] for i in range(m.rows))
        assert p[0] == 1
        assert p[1] == -tr
        assert p[-1] == (-1) ** m.rows * determinant(m)

    @given(small_matrix())
    def test_text_roundtrip(self, m):
        assert IntMatrix.from_text(m.to_text()) == m

    @settings(max_examples=40)
    @given(st.integers(1, 5),
           st.lists(st.integers(-4, 4), min_size=50, max_size=50))
    def test_det_multiplicative(self, n, entries):
        a = IntMatrix(n, n, [entries[i * n:(i + 1) * n] for i in range(n)])
        b = IntMatrix(n, n, [entries[25 + i * n:25 + (i + 1) * n] for i in range(n)])
        assert determinant(a * b) == determinant(a) * determinant(b)


@given(st.integers(1, 6))
def test_exact_shifted_identity_trivial(k):
    # the exact complex 0 -> Z^k -id-> Z^k -0-> Z^k -id-> Z^k -> 0 has
    # trivial homology in both middle degrees
    assert homology_of_pair(IntMatrix.identity(k), IntMatrix.zeros(k, k)).is_trivial()
    assert homology_of_pair(IntMatrix.zeros(k, k), IntMatrix.identity(k)).is_trivial()
