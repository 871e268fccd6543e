"""Exact integer linear algebra.

Arbitrary-precision integer matrices (sparse for boundary, coboundary and
other cochain-level maps, dense for everything else), Smith normal form
with unimodular transforms, integer kernels, column echelon lattice bases
with triangular solves against them, characteristic polynomials, and
abelian-invariant extraction for pairs of boundary maps.  Everything is
exact: no floating point, no modular shortcuts.

The Smith normal form is the workhorse behind every homology computation in
the package, so its elimination runs on the nonzero entries only, one dict
per row, with a pivot strategy that prefers unit entries of low fill-in and
otherwise entries of minimal absolute value (integer entry growth, not
asymptotics, is the dominant cost on boundary matrices).  Each row caches
its best pivot key in a heap, and a pivot search recomputes only the rows
that the previous elimination step touched, instead of rescanning the
whole active block.  It tracks only the unimodular transforms its caller
names.
"""

from collections import namedtuple
from heapq import heappop, heappush
from math import gcd

from .errors import (CompositionNonzero, EliminationError, FormatError,
                     NotMonic, ShapeMismatch)


class IntMatrix:
    """Dense integer matrix, stored row-major as lists of Python ints.

    Row and column counts are kept explicitly so 0xN and Nx0 matrices
    compose correctly.  Dense matrices carry the Smith transforms, lattice
    bases, solutions of solve_echelon and Hecke matrices; boundary maps and
    the other cochain-level matrices are SparseIntMatrix.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        if len(data) != rows:
            raise ShapeMismatch("expected %d rows, got %d" % (rows, len(data)))
        for r in data:
            if len(r) != cols:
                raise ShapeMismatch("ragged row in %dx%d matrix" % (rows, cols))
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def diagonal(cls, entries, rows=None, cols=None):
        k = len(entries)
        rows = k if rows is None else rows
        cols = k if cols is None else cols
        m = cls(rows, cols)
        for i, v in enumerate(entries):
            m.data[i][i] = v
        return m

    @classmethod
    def column(cls, entries):
        return cls(len(entries), 1, [[v] for v in entries])

    def transpose(self):
        return IntMatrix(self.cols, self.rows,
                         [[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def col(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def nonzero_count(self):
        return sum(1 for row in self.data for v in row if v)

    def row_dicts(self):
        """The nonzero entries as one dict {column: entry} per row."""
        return [{j: v for j, v in enumerate(r) if v} for r in self.data]

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("add %dx%d to %dx%d" % (self.rows, self.cols,
                                                        other.rows, other.cols))
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(self.rows, self.cols,
                             [[other * v for v in row] for row in self.data])
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch("multiply %dx%d by %dx%d" % (self.rows, self.cols,
                                                             other.rows, other.cols))
        # accumulate rows of the product as combinations of rows of `other`,
        # skipping zero coefficients; boundary matrices are sparse enough that
        # this beats the naive triple loop by a wide margin
        out = []
        odata = other.data
        for arow in self.data:
            acc = [0] * other.cols
            for k, a in enumerate(arow):
                if a:
                    brow = odata[k]
                    acc = [x + a * y for x, y in zip(acc, brow)]
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    __rmul__ = __mul__

    def apply(self, vector):
        """Matrix times column vector, both as plain lists."""
        if len(vector) != self.cols:
            raise ShapeMismatch("apply %dx%d to vector of length %d"
                                % (self.rows, self.cols, len(vector)))
        return [sum(a * x for a, x in zip(row, vector) if a) for row in self.data]

    def take_columns(self, indices):
        return IntMatrix(self.rows, len(indices),
                         [[row[j] for j in indices] for row in self.data])

    def to_text(self):
        """Serialize as 'rows cols' header plus one line per row."""
        lines = ["%d %d" % (self.rows, self.cols)]
        for row in self.data:
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        tokens = text.split()
        if len(tokens) < 2:
            raise FormatError("matrix text needs a 'rows cols' header")
        try:
            rows, cols = int(tokens[0]), int(tokens[1])
            entries = [int(t) for t in tokens[2:]]
        except ValueError as e:
            raise FormatError("non-integer token in matrix text: %s" % e) from None
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise FormatError("matrix text has %d entries, expected %d*%d"
                              % (len(entries), rows, cols))
        return cls(rows, cols, [entries[i * cols:(i + 1) * cols] for i in range(rows)])

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return "IntMatrix(%d, %d, %r)" % (self.rows, self.cols, self.data)
        return "IntMatrix(%d, %d, <%d nonzero>)" % (self.rows, self.cols,
                                                    self.nonzero_count())


class SparseIntMatrix:
    """Sparse integer matrix: one dict {row: nonzero entry} per column.

    This is the type of every boundary, coboundary and other cochain-level
    map.  Those are about 0.1% dense, and column j is the image of basis
    vector j, which is the form in which resolutions produce them and in
    which contract collapses them.  Products with a dense operand return
    an IntMatrix; a product with a sparse matrix or an int is sparse.
    Zero entries are never stored.  The text format is the dense one of
    IntMatrix.
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, rows, cols, columns=None):
        if columns is None:
            columns = [{} for _ in range(cols)]
        if len(columns) != cols:
            raise ShapeMismatch("expected %d columns, got %d" % (cols, len(columns)))
        self.rows = rows
        self.cols = cols
        self.columns = columns

    @classmethod
    def of(cls, M):
        """M itself if it is sparse, else the nonzero entries of the IntMatrix M."""
        if isinstance(M, SparseIntMatrix):
            return M
        columns = [{} for _ in range(M.cols)]
        for i, row in enumerate(M.data):
            for j, v in enumerate(row):
                if v:
                    columns[j][i] = v
        return cls(M.rows, M.cols, columns)

    def row_dicts(self):
        """The nonzero entries as one dict {column: entry} per row, each
        in ascending column order."""
        out = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def transpose(self):
        return SparseIntMatrix(self.cols, self.rows, self.row_dicts())

    def is_zero(self):
        return not any(self.columns)

    def nonzero_count(self):
        return sum(len(c) for c in self.columns)

    def __eq__(self, other):
        if isinstance(other, SparseIntMatrix):
            return (self.rows == other.rows and self.cols == other.cols
                    and self.columns == other.columns)
        if isinstance(other, IntMatrix):
            return (self.rows == other.rows and self.cols == other.cols
                    and self.row_dicts() == other.row_dicts())
        return NotImplemented

    __hash__ = None

    def __mul__(self, other):
        if isinstance(other, int):
            columns = [{i: other * v for i, v in c.items()}
                       for c in self.columns] if other else None
            return SparseIntMatrix(self.rows, self.cols, columns)
        if self.cols != other.rows:
            raise ShapeMismatch("multiply %dx%d by %dx%d" % (self.rows, self.cols,
                                                             other.rows, other.cols))
        if isinstance(other, IntMatrix):
            # IntMatrix.__mul__ over the nonzero entries of each row
            out = []
            odata = other.data
            for entries in self.row_dicts():
                acc = [0] * other.cols
                for k, a in entries.items():
                    acc = [x + a * y for x, y in zip(acc, odata[k])]
                out.append(acc)
            return IntMatrix(self.rows, other.cols, out)
        columns = []
        mine = self.columns
        for col in other.columns:
            acc = {}
            for k, b in col.items():
                for i, a in mine[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            columns.append({i: v for i, v in acc.items() if v})
        return SparseIntMatrix(self.rows, other.cols, columns)

    def __rmul__(self, other):
        # other * self with other a dense IntMatrix
        if other.cols != self.rows:
            raise ShapeMismatch("multiply %dx%d by %dx%d" % (other.rows, other.cols,
                                                             self.rows, self.cols))
        rows = self.row_dicts()
        out = []
        for arow in other.data:
            acc = [0] * self.cols
            for k, a in enumerate(arow):
                if a:
                    for j, v in rows[k].items():
                        acc[j] += a * v
            out.append(acc)
        return IntMatrix(other.rows, self.cols, out)

    def apply(self, vector):
        """Matrix times column vector, both as plain lists."""
        if len(vector) != self.cols:
            raise ShapeMismatch("apply %dx%d to vector of length %d"
                                % (self.rows, self.cols, len(vector)))
        out = [0] * self.rows
        for x, col in zip(vector, self.columns):
            if x:
                for i, v in col.items():
                    out[i] += v * x
        return out

    def to_text(self):
        """Serialize in the dense 'rows cols' text format of IntMatrix."""
        lines = ["%d %d" % (self.rows, self.cols)]
        for entries in self.row_dicts():
            row = [0] * self.cols
            for j, v in entries.items():
                row[j] = v
            lines.append(" ".join(str(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        return cls.of(IntMatrix.from_text(text))

    def __repr__(self):
        return "SparseIntMatrix(%d, %d, <%d nonzero>)" % (self.rows, self.cols,
                                                          self.nonzero_count())


class SmithForm(namedtuple("SmithForm", "d rank U V Uinv Vinv",
                           defaults=(None,) * 4)):
    """Diagonalization U*M*V = diag(d) with unimodular U, V.

    d has length min(rows, cols), entries nonnegative, each dividing the
    next; rank counts the nonzero entries.  The inverse transforms are
    tracked during elimination (cheaper than inverting afterwards) because
    lattice computations need both directions.  A transform the form was
    not asked to track is None.
    """
    __slots__ = ()


class AbelianInvariants(namedtuple("AbelianInvariants", "torsion free_rank")):
    """A finitely generated abelian group: torsion chain plus free rank.

    torsion is the list of invariant factors > 1 in divisibility order, so
    the canonical decomposition is Z/t1 + ... + Z/tk + Z^free_rank.
    """
    __slots__ = ()

    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    def __str__(self):
        if self.is_trivial():
            return "0"
        parts = ["Z/%d" % t for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append("Z^%d" % self.free_rank)
        return " + ".join(parts)


def _sym_div(a, b):
    """Quotient q with a - q*b the symmetric remainder in (-|b|/2, |b|/2]."""
    if b < 0:
        return -_sym_div(a, -b)
    q, r = divmod(a, b)
    if 2 * r > b:
        q += 1
    return q


TRANSFORMS = ("U", "V", "Uinv", "Vinv")


def smith_normal_form(M, transforms=TRANSFORMS):
    """Smith normal form of an integer matrix.

    Returns a SmithForm with U*M*V = diag(d).  transforms names the
    transforms to track, any of "U", "V", "Uinv", "Vinv" (all four by
    default); the others are left None.  Each one costs a dense square
    matrix updated on every elementary operation, so callers ask only for
    what they read.

    Elimination runs on the nonzero entries of M, one dict per row in
    ascending column order (M.row_dicts(), which a SparseIntMatrix builds
    from its columns without a dense scan): pivots are chosen among +-1
    entries by least fill-in when any exist, otherwise by least absolute
    value, which keeps both fill-in and entry growth tolerable on boundary
    matrices.  Each row caches its best pivot key, (0, fill-in, i, j) for a
    unit and (1, |a|, i, j) otherwise, and the keys sit in a heap.  A pivot
    search refreshes only the keys that can have changed since the last
    one:
      - a row whose entries changed is rescanned in full;
      - a change in column j's occupancy moves only the fill-in of a +-1
        entry in a row with more than one entry, so only that entry's key is
        recomputed; if it fell, it becomes the row's key, and if it rose and
        was the row's key, the row is rescanned;
      - a column swap moves the column's occupancy with it and changes only
        the tie-break index j of a moved entry: a row with an entry that
        moved to a lower index is rescanned, and so is a row whose best
        entry moved to a higher one; any other row keeps its key.
    The chosen pivots, and so d and all four transforms, are those of a
    full scan of the active block.  The result is deterministic for a
    given input.
    """
    m, n = M.rows, M.cols
    # row[i][j] = nonzero entry, colocc[j] = rows with an entry in column j
    row = M.row_dicts()
    colocc = [set() for _ in range(n)]
    for i, ri in enumerate(row):
        for j in ri:
            colocc[j].add(i)

    U = IntMatrix.identity(m).data if "U" in transforms else None
    Ui = IntMatrix.identity(m).data if "Uinv" in transforms else None
    V = IntMatrix.identity(n).data if "V" in transforms else None
    Vi = IntMatrix.identity(n).data if "Vinv" in transforms else None

    # rows to rescan at the next pivot search (their entries changed, or
    # col_swap moved an entry of theirs that can lower or was their key),
    # and columns whose occupancy changed since the last one
    dirty = set(range(m))
    occcols = set()
    rowkey = [None] * m

    def row_swap(a, b):
        if a == b:
            return
        row[a], row[b] = row[b], row[a]
        for j in set(row[a]) | set(row[b]):
            occ = colocc[j]
            ina, inb = j in row[a], j in row[b]
            occ.add(a) if ina else occ.discard(a)
            occ.add(b) if inb else occ.discard(b)
        dirty.update((a, b))
        if U is not None:
            U[a], U[b] = U[b], U[a]
        if Ui is not None:
            for r in Ui:
                r[a], r[b] = r[b], r[a]

    def col_swap(a, b):
        # occupancy moves with the column, so only the tie-break index of a
        # moved entry changes: a row with an entry that moves down to a is
        # rescanned, and so is a row whose best entry moves up to b; in any
        # other row only keys above the row's key rose
        if a == b:
            return
        a, b = min(a, b), max(a, b)
        for i in colocc[a] | colocc[b]:
            ri = row[i]
            va, vb = ri.pop(a, None), ri.pop(b, None)
            if vb is not None:
                ri[a] = vb
            if va is not None:
                ri[b] = va
            key = rowkey[i]
            if vb is not None or key is None or key[3] == a:
                dirty.add(i)
        colocc[a], colocc[b] = colocc[b], colocc[a]
        if (a in occcols) != (b in occcols):
            occcols.symmetric_difference_update((a, b))
        if V is not None:
            for r in V:
                r[a], r[b] = r[b], r[a]
        if Vi is not None:
            Vi[a], Vi[b] = Vi[b], Vi[a]

    def row_addmul(dst, src, q):
        # R_dst += q * R_src
        if q == 0:
            return
        rd = row[dst]
        for j, v in row[src].items():
            old = rd.get(j)
            if old is None:
                rd[j] = q * v
                colocc[j].add(dst)
                occcols.add(j)
                continue
            w = old + q * v
            if w:
                rd[j] = w
            else:
                del rd[j]
                colocc[j].discard(dst)
                occcols.add(j)
        dirty.add(dst)
        if U is not None:
            U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]
        if Ui is not None:
            for r in Ui:
                r[src] -= q * r[dst]

    def col_addmul(dst, src, q):
        # C_dst += q * C_src
        if q == 0:
            return
        occ = colocc[dst]
        for i in colocc[src]:
            ri = row[i]
            old = ri.get(dst)
            if old is None:
                ri[dst] = q * ri[src]
                occ.add(i)
                occcols.add(dst)
                continue
            w = old + q * ri[src]
            if w:
                ri[dst] = w
            else:
                del ri[dst]
                occ.discard(i)
                occcols.add(dst)
        dirty.update(colocc[src])
        if V is not None:
            for r in V:
                r[dst] += q * r[src]
        if Vi is not None:
            Vi[src] = [x - q * y for x, y in zip(Vi[src], Vi[dst])]

    def row_negate(i):
        # absolute values are unchanged, and so is the row's pivot key
        ri = row[i]
        for j in ri:
            ri[j] = -ri[j]
        if U is not None:
            U[i] = [-x for x in U[i]]
        if Ui is not None:
            for r in Ui:
                r[i] = -r[i]

    def col_transform2(a, b, p, q, r, s):
        # (C_a, C_b) <- (p*C_a + q*C_b, r*C_a + s*C_b), with p*s - q*r = 1
        if p * s - q * r != 1:
            raise EliminationError("column transform of determinant %d"
                                   % (p * s - q * r))
        touched = colocc[a] | colocc[b]
        for i in touched:
            ri = row[i]
            va, vb = ri.get(a, 0), ri.get(b, 0)
            for col, w in ((a, p * va + q * vb), (b, r * va + s * vb)):
                if w:
                    ri[col] = w
                    colocc[col].add(i)
                else:
                    ri.pop(col, None)
                    colocc[col].discard(i)
        dirty.update(touched)
        occcols.update((a, b))
        if V is not None:
            for rw in V:
                va, vb = rw[a], rw[b]
                rw[a], rw[b] = p * va + q * vb, r * va + s * vb
        if Vi is not None:
            ra = [s * x - r * y for x, y in zip(Vi[a], Vi[b])]
            rb = [-q * x + p * y for x, y in zip(Vi[a], Vi[b])]
            Vi[a], Vi[b] = ra, rb

    heap = []
    limit = min(m, n)
    k = 0
    while k < limit:
        # pivot search over the active block (rows >= k; cleared columns
        # < k hold no entries in those rows).  Rows outside dirty recompute
        # the keys of their +-1 entries in columns whose occupancy changed;
        # then the rows in dirty are rescanned, and heap entries that are
        # no longer some active row's key are dropped.
        for j in occcols:
            occ = colocc[j]
            deg = len(occ) - 1
            for i in occ:
                if i < k or i in dirty:
                    continue
                ri = row[i]
                v = ri[j]
                if v != 1 and v != -1:
                    continue    # occupancy does not enter a non-unit key
                key = (0, (len(ri) - 1) * deg, i, j)
                old = rowkey[i]
                if key < old:
                    rowkey[i] = key
                    heappush(heap, key)
                elif key != old and old[3] == j:
                    dirty.add(i)
        occcols.clear()
        for i in dirty:
            if i < k:
                continue
            ri = row[i]
            fill = len(ri) - 1
            best = None
            for j, v in ri.items():
                if v == 1 or v == -1:
                    key = (0, fill * (len(colocc[j]) - 1), i, j)
                else:
                    key = (1, -v if v < 0 else v, i, j)
                if best is None or key < best:
                    best = key
            if best != rowkey[i]:
                rowkey[i] = best
                if best is not None:
                    heappush(heap, best)
        dirty.clear()
        while heap and (heap[0][2] < k or rowkey[heap[0][2]] != heap[0]):
            heappop(heap)
        if not heap:
            break
        best = heap[0]
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
                # a division left a remainder smaller than the pivot; swap it in
                row_swap(k, min(leftover, key=lambda i: (abs(row[i][k]), i)))
                continue
            for j in [j for j in row[k] if j != k]:
                col_addmul(j, k, -_sym_div(row[k][j], p))
            leftover = [j for j in row[k] if j != k]
            if leftover:
                col_swap(k, min(leftover, key=lambda j: (abs(row[k][j]), j)))
                continue
            break
        k += 1

    rank = k
    d = [row[i].get(i, 0) for i in range(limit)]
    if not all(v > 0 for v in d[:rank]) or any(d[rank:]):
        raise EliminationError("Smith diagonal of rank %d is not positive "
                               "then zero" % rank)

    # enforce the divisibility chain d_i | d_j for i < j on the diagonal
    i = 0
    while i < rank:
        fixed_any = False
        for j in range(i + 1, rank):
            if d[j] % d[i]:
                a, b = d[i], d[j]
                g = gcd(a, b)
                # extended euclid: pa + qb = g
                p0, p1, q0, q1, x, y = 1, 0, 0, 1, a, b
                while y:
                    t, x, y = x // y, y, x % y
                    p0, p1 = p1, p0 - t * p1
                    q0, q1 = q1, q0 - t * q1
                pp, qq = p0, q0
                if pp * a + qq * b != g:
                    raise EliminationError("extended gcd of %d and %d" % (a, b))
                row_addmul(i, j, 1)
                col_transform2(i, j, pp, qq, -b // g, a // g)
                row_addmul(j, i, -(qq * b) // g)
                d[i], d[j] = g, a * b // g
                if row[i] != {i: d[i]} or row[j] != {j: d[j]}:
                    raise EliminationError("divisibility fix-up left rows %d, %d "
                                           "off the diagonal" % (i, j))
                fixed_any = True
        if not fixed_any:
            i += 1

    return SmithForm(d, rank,
                     U=None if U is None else IntMatrix(m, m, U),
                     V=None if V is None else IntMatrix(n, n, V),
                     Uinv=None if Ui is None else IntMatrix(m, m, Ui),
                     Vinv=None if Vi is None else IntMatrix(n, n, Vi))


def kernel_with_left_inverse(M):
    """Saturated integer kernel basis Z of M with a left inverse P.

    With U*M*V = D and r = rank(M), Z is the columns r: of V and P the
    rows r: of V^-1, so P*Z = I and P maps any vector of span(Z) to its
    coordinates in that basis.  The transforms are released on return.
    """
    sf = smith_normal_form(M, transforms=("V", "Vinv"))
    r = sf.rank
    Z = sf.V.take_columns(range(r, M.cols))
    P = IntMatrix(M.cols - r, M.cols, sf.Vinv.data[r:])
    return Z, P


def integer_kernel(M):
    """Basis of the integer kernel of M, as matrix columns.

    With U*M*V = D, the columns of V beyond the rank map to zero and span
    the kernel; since V is unimodular the basis is automatically saturated
    (the quotient by the kernel is torsion free).  Only V is tracked.
    """
    sf = smith_normal_form(M, transforms=("V",))
    return sf.V.take_columns(range(sf.rank, M.cols))


def cokernel_invariants(Y):
    """Abelian invariants of Z^rows / colspan(Y), without transforms.

    The torsion is the invariant factors > 1 of Y and the free rank is
    rows - rank(Y).
    """
    sf = smith_normal_form(Y, transforms=())
    return AbelianInvariants(torsion=[v for v in sf.d if v > 1],
                             free_rank=Y.rows - sf.rank)


def column_span_basis(M):
    """Basis (as columns) of the lattice spanned by the columns of M.

    Column-operations-only echelon reduction, so the span is preserved
    exactly; used to extract honest bases from redundant generating sets.
    M may be dense or sparse; the basis is in column echelon form.
    """
    n = M.cols
    cols = [[c.get(i, 0) for i in range(M.rows)]
            for c in SparseIntMatrix.of(M).columns]
    lead = 0
    for i in range(M.rows):
        # gcd-reduce all active columns against each other in row i
        while True:
            live = [j for j in range(lead, n) if cols[j][i]]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: (abs(cols[j][i]), j))
            piv = live[0]
            p = cols[piv][i]
            for j in live[1:]:
                q = _sym_div(cols[j][i], p)
                cols[j] = [x - q * y for x, y in zip(cols[j], cols[piv])]
        live = [j for j in range(lead, n) if cols[j][i]]
        if live:
            j = live[0]
            cols[lead], cols[j] = cols[j], cols[lead]
            lead += 1
    basis = cols[:lead]
    return IntMatrix(len(basis), M.rows, basis).transpose() if basis \
        else IntMatrix.zeros(M.rows, 0)


def solve_echelon(E, B):
    """The unique integer X with E*X = B, or None when there is none.

    E is in column echelon form, as column_span_basis returns it: the
    first nonzero of column j is in row r_j, and r_j strictly increases.
    Forward substitution on the rows r_j solves each column of B (dense
    or sparse); a nonzero left at the end, such as the remainder of an
    entry its pivot does not divide, means None.  Raises ShapeMismatch on
    a row count mismatch or an E that is not in column echelon form.
    """
    if E.rows != B.rows:
        raise ShapeMismatch("solve %dx%d against %dx%d right-hand side"
                            % (E.rows, E.cols, B.rows, B.cols))
    pivots = []
    for col in SparseIntMatrix.of(E).columns:
        r = min(col, default=-1)
        if r <= (pivots[-1][0] if pivots else -1):
            raise ShapeMismatch("matrix is not in column echelon form")
        pivots.append((r, col[r], col))
    X = [[0] * B.cols for _ in pivots]
    for c, b in enumerate(SparseIntMatrix.of(B).columns):
        res = dict(b)
        for xrow, (r, p, col) in zip(X, pivots):
            if res.get(r):
                # a remainder stays in row r, which no later column reaches
                q = xrow[c] = res[r] // p
                for i, e in col.items():
                    res[i] = res.get(i, 0) - q * e
        if any(res.values()):
            return None
    return IntMatrix(len(pivots), B.cols, X)


def homology_of_pair(d_n, d_next):
    """Abelian invariants of ker(d_n) / im(d_next).

    Convention: d_n maps degree n to degree n-1 and d_next maps degree n+1
    to degree n, both acting on column vectors, so composability means
    d_n.cols == d_next.rows and the product d_n * d_next must vanish.
    """
    if d_n.cols != d_next.rows:
        raise ShapeMismatch("chain group has dimension %d as source, %d as target"
                            % (d_n.cols, d_next.rows))
    if not (d_n * d_next).is_zero():
        raise CompositionNonzero("boundary maps do not compose to zero")
    return homology_from_forms(smith_normal_form(d_n, transforms=()),
                               smith_normal_form(d_next, transforms=()), d_n.cols)


def homology_from_forms(form_n, form_next, dim):
    """ker(d_n) / im(d_next) from the Smith forms of d_n and d_next.

    dim is the rank of the chain group between them.  The kernel of d_n
    is a saturated sublattice (the quotient embeds into the codomain,
    hence is torsion free), so the invariant factors of d_next are
    unchanged by viewing it as a map into that kernel.  The torsion of the
    quotient is therefore the set of invariant factors > 1 of d_next, and
    the free rank is nullity(d_n) - rank(d_next).
    """
    free = dim - form_n.rank - form_next.rank
    if free < 0:
        raise CompositionNonzero("ranks %d and %d exceed the chain group "
                                 "dimension %d" % (form_n.rank, form_next.rank, dim))
    return AbelianInvariants(torsion=[v for v in form_next.d if v > 1],
                             free_rank=free)


def charpoly(M):
    """Characteristic polynomial det(xI - M), coefficients highest degree first.

    Division-free Berkowitz iteration over principal submatrices; returns a
    list of length n+1 starting with 1.
    """
    if M.rows != M.cols:
        raise ShapeMismatch("charpoly of a %dx%d matrix" % (M.rows, M.cols))
    n = M.rows
    a = M.data
    poly = [1]
    for r in range(1, n + 1):
        # first column of the (r+1) x r Toeplitz factor:
        # 1, -a_rr, -(R C), -(R A C), ..., with A the leading (r-1) block
        vec = [1, -a[r - 1][r - 1]]
        w = [a[i][r - 1] for i in range(r - 1)]
        for _ in range(r - 1):
            vec.append(-sum(a[r - 1][j] * w[j] for j in range(r - 1)))
            w = [sum(a[i][j] * w[j] for j in range(r - 1)) for i in range(r - 1)]
        # multiply by the Toeplitz factor: new[i] = sum vec[i-j] * poly[j]
        new = [0] * (r + 1)
        for j, pj in enumerate(poly):
            if pj:
                for i in range(j, min(j + len(vec), r + 1)):
                    new[i] += vec[i - j] * pj
        poly = new
    return poly


def integer_roots(poly):
    """Integer roots (with multiplicity) of a monic integer polynomial.

    poly lists coefficients highest degree first.  Returns (roots, residual)
    where residual is the monic factor with no integer roots; for a monic
    polynomial every rational root is an integer, so the residual has no
    rational roots either.  Roots are returned in ascending order.

    A root divides the constant term c0 and, by Fujiwara's bound, has
    absolute value at most 2*max_i |a_(n-i)|^(1/i).  The candidates are the
    divisors k of c0 with k <= min(|c0|, B), B = 2*max_i 2^ceil(bits(a_(n-i))/i)
    being that bound rounded up in exact integers, so the trial division
    no longer scales with |c0|.  It still scales with B: a polynomial with
    huge real roots, or huge coefficients, keeps the search long.
    """
    if not poly or poly[0] != 1:
        raise NotMonic("integer_roots needs a monic polynomial, got leading "
                       "coefficient %r" % (poly[0] if poly else None))
    coeffs = list(poly)
    roots = []
    while len(coeffs) > 1:
        # strip zero roots first
        if coeffs[-1] == 0:
            roots.append(0)
            coeffs = coeffs[:-1]
            continue
        c0 = abs(coeffs[-1])
        bound = 2 * max(1 << -(-abs(c).bit_length() // i)
                        for i, c in enumerate(coeffs[1:], 1))
        divisors = [k for k in range(1, min(c0, bound) + 1) if c0 % k == 0]
        candidates = sorted({s * k for k in divisors for s in (1, -1)})
        found = None
        for r in candidates:
            acc = 0
            for c in coeffs:
                acc = acc * r + c
            if acc == 0:
                found = r
                break
        if found is None:
            break
        roots.append(found)
        # synthetic division by (x - found)
        out = []
        acc = 0
        for c in coeffs[:-1]:
            acc = acc * found + c
            out.append(acc)
        coeffs = out
    return sorted(roots), coeffs


class QuotientLattice:
    """The quotient of a lattice L by relations, on an adapted basis.

    Z has full column rank, so its columns are a basis of L, and the
    columns of Y are relations written in Z's coordinates.  One Smith form
    U*Y*V = D gives the adapted basis Z*U^-1 of L, in which the relations
    are diagonal: component i is cyclic of order orders[i] (0 for free, 1
    for trivial).  U turns Z-coordinates into adapted ones, so a vector
    Z*u of L has adapted coordinates U*u.  This is how operators acting on
    cocycles are pushed down to cohomology.
    """

    def __init__(self, Z, Y):
        if Z.cols != Y.rows:
            raise ShapeMismatch("lattice of rank %d, relations in %d coordinates"
                                % (Z.cols, Y.rows))
        sf = smith_normal_form(Y, transforms=("U", "Uinv"))
        self.basis = Z * sf.Uinv
        self.U = sf.U
        self.orders = list(sf.d) + [0] * (Y.rows - len(sf.d))

    def is_relation(self, C):
        """Whether every column of C, written in Z's coordinates, lies in
        the span of the relations: row i of U*C is divisible by orders[i],
        and zero where orders[i] is 0 (a free component)."""
        return all(not any(row) if o == 0 else not any(v % o for v in row)
                   for row, o in zip((self.U * C).data, self.orders))

    def presented(self):
        """Indices of the nontrivial components, free first, then torsion."""
        return ([i for i, o in enumerate(self.orders) if o == 0]
                + [i for i, o in enumerate(self.orders) if o > 1])
