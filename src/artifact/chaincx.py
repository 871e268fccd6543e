"""Finitely generated free Z-chain complexes and their reduction.

A complex is a list of ranks plus one boundary matrix per positive degree,
with the column-vector convention: d_n has shape rank(n-1) x rank(n).
Reduction is by simple homotopy collapses: whenever some boundary entry
d_n[b][a] is a unit, the pair (a, b) spans an exact direct summand and can
be removed after a single row update, preserving all homology.  Iterating
this is how the large boundary matrices coming from resolutions are cut
down to a size where Smith normal form is cheap.

Serialization format (used by the tests and their fixtures; the CLI reads
cell complexes in the cwdvf format instead):

    line 1: D, the number of chain degrees (groups C_0 .. C_{D-1})
    line 2: the D ranks
    then D-1 matrices, the boundaries d_1 .. d_{D-1}, each in the
    matrix text format ("rows cols" header plus row lines).
"""

import heapq
from collections import namedtuple

from .errors import (CompositionNonzero, DegreeOutOfRange, EliminationError,
                     FormatError, ShapeMismatch)
from .exactlin import (SparseIntMatrix, homology_from_forms, homology_of_pair,
                       smith_normal_form)


class CollapseStep(namedtuple("CollapseStep", "degree source target")):
    """One simple homotopy collapse: the removed source generator (degree
    `degree`) and target generator (degree-1), in the labelling of the
    complex the reduction started from."""
    __slots__ = ()


class FreeChainComplexZ:
    """A chain complex of finitely generated free Z-modules.

    ranks[n] is the rank of C_n; diffs[n - 1] (1 <= n <= top_degree) is the
    boundary C_n -> C_{n-1} acting on column vectors, as a SparseIntMatrix
    (boundaries given as dense IntMatrix are stored sparse).  The
    constructor checks shapes only; use verify_complex for the d.d = 0
    check, which costs a sparse matrix product per degree.
    """

    def __init__(self, ranks, diffs, trace=None):
        ranks = list(ranks)
        diffs = [SparseIntMatrix.of(d) for d in diffs]
        if not ranks:
            raise ShapeMismatch("a complex needs at least one degree")
        if len(diffs) != len(ranks) - 1:
            raise ShapeMismatch("expected %d boundary maps, got %d"
                                % (len(ranks) - 1, len(diffs)))
        for n, d in enumerate(diffs, start=1):
            if d.rows != ranks[n - 1] or d.cols != ranks[n]:
                raise ShapeMismatch(
                    "boundary %d has shape %dx%d, expected %dx%d"
                    % (n, d.rows, d.cols, ranks[n - 1], ranks[n]))
        self.ranks = ranks
        self.diffs = list(diffs)
        self.trace = list(trace) if trace else []

    @property
    def top_degree(self):
        return len(self.ranks) - 1

    def rank(self, n):
        return self.ranks[n] if 0 <= n <= self.top_degree else 0

    def boundary(self, n):
        """d_n as a matrix, including the zero maps off both ends."""
        if 1 <= n <= self.top_degree:
            return self.diffs[n - 1]
        if n <= 0:
            return SparseIntMatrix(0, self.rank(0) if n == 0 else 0)
        # n > top_degree: source is zero
        return SparseIntMatrix(self.rank(n - 1), 0)

    def __eq__(self, other):
        return (isinstance(other, FreeChainComplexZ)
                and self.ranks == other.ranks and self.diffs == other.diffs)

    def to_text(self):
        out = ["%d" % len(self.ranks), " ".join(str(r) for r in self.ranks)]
        for d in self.diffs:
            out.append(d.to_text().rstrip("\n"))
        return "\n".join(out) + "\n"

    @classmethod
    def from_text(cls, text):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty chain complex text")
        try:
            ndeg = int(lines[0])
            ranks = [int(t) for t in lines[1].split()]
        except (ValueError, IndexError):
            raise FormatError("bad chain complex header") from None
        if len(ranks) != ndeg:
            raise FormatError("rank line lists %d degrees, header says %d"
                              % (len(ranks), ndeg))
        pos = 2
        diffs = []
        for _ in range(ndeg - 1):
            if pos >= len(lines):
                raise FormatError("missing boundary matrix")
            header = lines[pos].split()
            if len(header) != 2:
                raise FormatError("bad matrix header %r" % lines[pos])
            nrows = int(header[0])
            chunk = "\n".join(lines[pos:pos + 1 + nrows])
            diffs.append(SparseIntMatrix.from_text(chunk))
            pos += 1 + nrows
        return cls(ranks, diffs)

    def __repr__(self):
        return "FreeChainComplexZ(ranks=%r)" % (self.ranks,)


def verify_complex(C):
    """Check d_n . d_{n+1} = 0 in every degree; raises CompositionNonzero."""
    for n in range(1, C.top_degree):
        if not (C.boundary(n) * C.boundary(n + 1)).is_zero():
            raise CompositionNonzero("d_%d . d_%d is nonzero" % (n, n + 1))
    return True


def homology(C, n):
    """H_n(C) as abelian invariants."""
    if not 0 <= n <= C.top_degree:
        raise DegreeOutOfRange("degree %d not in 0..%d" % (n, C.top_degree))
    return homology_of_pair(C.boundary(n), C.boundary(n + 1))


def all_homology(C):
    """H_n(C) in every degree, from one Smith form per boundary."""
    verify_complex(C)
    forms = [smith_normal_form(C.boundary(n), transforms=())
             for n in range(C.top_degree + 2)]
    return [homology_from_forms(forms[n], forms[n + 1], C.rank(n))
            for n in range(C.top_degree + 1)]


def contract(C, pairs=None, side=None):
    """Reduce by simple homotopy collapses; homology is preserved.

    Greedy strategy: degrees are processed bottom up and exhausted one at a
    time; within a degree the unit entry with least fill-in
    (nnz(row)-1)*(nnz(col)-1) is collapsed first, ties going to the least
    source, then the least target.  The candidates wait on a heap of
    single integers, each packing (fill, source, target) in that order; an
    entry popped with a stale fill-in goes back with its current one, and
    one that is collapsed or no longer a unit is dropped.  A collapse at
    degree n can create new unit entries only at degree n itself (higher
    degrees just lose a column, lower ones a row), so one ascending pass
    is complete and the result has no unit entries at all.  The collapse
    trace is recorded on the result in the original generator labelling.

    Filtered: side[n][g] labels degree-n generator g, and the greedy
    strategy collapses a unit entry only when its source and target carry
    the same label (so unit entries across labels may remain).  A collapse
    of (a, b) adds multiples of the boundary of a to the sources hitting b;
    if the generators of one label span a subcomplex, b is in it whenever
    such a source is, and then so is a.  So the survivors of that label
    still span a subcomplex, and the collapse is a filtered chain homotopy
    equivalence (the basic perturbation lemma): the subcomplex and the
    quotient keep their homology too.  Without side every generator
    carries the same label, so both strategies run one loop.

    Prescribed pairs: given (degree, source, target) triples in that
    labelling, exactly those pairs are collapsed, in order, by the same
    elimination step; EliminationError if an entry is absent or not a unit.
    """
    top = C.top_degree
    # mutable copy of the columns: bnd[n][src][tgt] = coeff, cob[n][tgt] =
    # sources; a generator is alive while it is a key of these dicts
    bnd = {}
    cob = {}
    for n in range(1, top + 1):
        d = C.boundary(n)
        bnd[n] = {s: dict(col) for s, col in enumerate(d.columns)}
        cn = {t: set() for t in range(d.rows)}
        for s, col in enumerate(d.columns):
            for t in col:
                cn[t].add(s)
        cob[n] = cn
    trace = []

    def collapse(n, a, b):
        """Remove source a and target b; returns the sources it changed."""
        # collapsed generators have no entries left
        rows = bnd.get(n, {})
        row_a = rows.get(a, {})
        eps = row_a.get(b, 0)
        if eps != 1 and eps != -1:
            raise EliminationError("pair (%d, %d) in degree %d has no unit "
                                   "entry" % (a, b, n))
        # clear column b: row_s -= (lambda * eps) * row_a for the other
        # sources s hitting b (eps is its own inverse)
        cols = cob[n]
        touched = list(cols[b])
        touched.remove(a)
        for s in touched:
            row_s = rows[s]
            coef = row_s[b] * eps
            for t, v in row_a.items():
                w = row_s.get(t)
                if w is None:
                    row_s[t] = -coef * v
                    cols[t].add(s)
                else:
                    w -= coef * v
                    if w:
                        row_s[t] = w
                    else:
                        del row_s[t]
                        cols[t].discard(s)
            if b in row_s:
                raise EliminationError("collapse of (%d, %d) in degree %d "
                                       "left an entry in its column"
                                       % (a, b, n))

        # delete a (degree n) and b (degree n-1)
        for t in rows.pop(a):
            cols[t].discard(a)
        del cols[b]
        if n + 1 <= top:
            # higher boundary just loses the target coordinate a
            for c in cob[n + 1].pop(a, ()):  # pragma: no branch
                bnd[n + 1][c].pop(a, None)
        if n - 1 >= 1:
            # lower boundary loses the source row b
            for t in bnd[n - 1].pop(b, {}):
                cob[n - 1][t].discard(b)
        trace.append(CollapseStep(n, a, b))
        return touched

    if pairs is not None:
        for n, a, b in pairs:
            collapse(n, a, b)
    else:
        if side is None:
            # unfiltered: every generator carries the same label
            side = [[0] * r for r in C.ranks]
        heappop, heappush = heapq.heappop, heapq.heappush
        for n in range(1, top + 1):
            rows, cols, up, down = bnd[n], cob[n], side[n], side[n - 1]
            # the key (fill * R + s) * R + t orders as the tuple
            # (fill, s, t), since every source s and target t is below R
            R = max(C.rank(n), C.rank(n - 1), 1)
            RR = R * R
            heap, touched = [], rows
            while True:
                # queue the unit entries of the touched sources (at first
                # all of them) whose source and target carry the same
                # label, by fill-in
                for s in touched:
                    row = rows[s]
                    k = (len(row) - 1) * RR
                    sR = s * R
                    for t, v in row.items():
                        if (v == 1 or v == -1) and up[s] == down[t]:
                            heappush(heap, k * (len(cols[t]) - 1) + sR + t)
                # pop until an entry that is still a unit, at the fill-in
                # it was queued with, is collapsed; a collapsed source is
                # no key of rows, and a collapsed target is in no row
                while heap:
                    key = heappop(heap)
                    fill, ab = divmod(key, RR)
                    a, b = divmod(ab, R)
                    row = rows.get(a)
                    if row is None:
                        continue
                    v = row.get(b, 0)
                    if v != 1 and v != -1:
                        continue
                    current = (len(row) - 1) * (len(cols[b]) - 1)
                    if current != fill:
                        heappush(heap, key + (current - fill) * RR)
                        continue
                    touched = collapse(n, a, b)
                    break
                else:
                    break

    # rebuild matrices over the survivors
    alive = [sorted(cob[1]) if top else range(C.rank(0))]
    alive += [sorted(bnd[n]) for n in range(1, top + 1)]
    ranks = [len(gens) for gens in alive]
    diffs = []
    for n in range(1, top + 1):
        tgt = {g: i for i, g in enumerate(alive[n - 1])}
        diffs.append(SparseIntMatrix(
            ranks[n - 1], ranks[n],
            [{tgt[t]: v for t, v in bnd[n][s].items()} for s in alive[n]]))
    return FreeChainComplexZ(ranks, diffs, trace=trace)
