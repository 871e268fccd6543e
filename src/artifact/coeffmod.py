"""Coefficient modules of homogeneous forms; cochain complexes; cohomology.

P(k) is the module of integral homogeneous degree-k forms in two
variables, with the substitution action gamma . p = p(d x - b y, -c x + a y)
for gamma = [[a, b], [c, d]].  The monomial basis is ordered
x^k, x^(k-1) y, ..., y^k; on it the action is by integer matrices, and
M(gamma gamma') = M(gamma) M(gamma') (a left action; the property test in
the suite pins this convention).  The definition makes sense for any
integral 2x2 matrix of nonzero determinant, which is what the double coset
operators need; for group elements the matrices are invertible over Z.

hom_complex turns a free resolution over a matrix group into the integer
cochain complex Hom_{Z Gamma}(R_*, P(k)): one block column per resolution
generator, coboundary = boundary rows with each group ring element
replaced by its action matrix.  cohomology reads off the abelian
invariants of a single degree from the three cochain groups around it,
reduced first by the unit collapses of chaincx.contract, so the Smith
forms run on the reduced coboundaries; as_chain_complex reverses arrows
so the whole complex can be handed to the chaincx tooling.
"""

from functools import lru_cache
from math import comb

from .chaincx import FreeChainComplexZ, contract, verify_complex
from .congruence import CongruenceSubgroup
from .errors import (
    ActionMismatch,
    CompositionNonzero,
    DegreeOutOfRange,
    FormatError,
)
from .exactlin import IntMatrix, SparseIntMatrix, homology_of_pair
from .sl2z import SL2ZMatrix


def _entries(gamma):
    """The four integer entries of an SL2ZMatrix or a 4-tuple (a, b, c, d)."""
    if isinstance(gamma, SL2ZMatrix):
        return (gamma.a, gamma.b, gamma.c, gamma.d)
    if (isinstance(gamma, (tuple, list)) and len(gamma) == 4
            and all(isinstance(v, int) for v in gamma)):
        return tuple(gamma)
    raise FormatError("expected a 2x2 integer matrix, got %r" % (gamma,))


@lru_cache(maxsize=1 << 14)
def _action_matrix(entries, k):
    a, b, c, d = entries
    n = k + 1
    out = IntMatrix.zeros(n, n)
    # column i: the image of x^(k-i) y^i under the substitution
    # x -> d x - b y, y -> -c x + a y, expanded binomially
    for i in range(n):
        for r in range(k - i + 1):
            cr = comb(k - i, r) * d ** (k - i - r) * (-b) ** r
            if not cr:
                continue
            for s in range(i + 1):
                cs = comb(i, s) * (-c) ** (i - s) * a ** s
                if not cs:
                    continue
                out.data[r + s][i] += cr * cs
    return out


def action_matrix(gamma, k):
    """Matrix of gamma on degree-k forms, in the monomial basis.

    Accepts an SL2ZMatrix or a 4-tuple (a, b, c, d).  The returned
    matrix is cached and shared: treat it as read-only.
    """
    if k < 0:
        raise FormatError("form degree must be nonnegative")
    return _action_matrix(_entries(gamma), k)


class PolynomialModule:
    """Degree-k integral forms with the substitution action.

    The module pairs with a resolution over any matrix group.  For even k
    the central -1 acts trivially, for odd k it acts by -1 (so odd-k
    cohomology of a group containing -1 is all torsion).
    """

    def __init__(self, k):
        if k < 0:
            raise FormatError("form degree must be nonnegative")
        self.k = k

    @property
    def rank(self):
        return self.k + 1

    def action(self, gamma):
        return action_matrix(gamma, self.k)

    def ring_action(self, gre):
        """Matrix of a group ring element: the sum of c * action(gamma).

        This is the module-action block that the coboundaries and the
        cuspidal restriction place for one group ring entry, by
        block_matrix.  Hecke cochains do not use it: hecke_cochain sums
        c * action(gamma1) per block and multiplies by its coset pair's
        matrix once, straight into the sparse columns.
        """
        m = self.rank
        block = [[0] * m for _ in range(m)]
        for gamma, c in gre.items():
            for brow, arow in zip(block, self.action(gamma).data):
                for s, a in enumerate(arow):
                    if a:
                        brow[s] += c * a
        return IntMatrix(m, m, block)

    def __repr__(self):
        return "PolynomialModule(%d)" % self.k


class CochainComplexZ:
    """A finite cochain complex of free Z-modules.

    deltas[n] maps degree n to degree n + 1 (acting on column vectors of
    stacked module coordinates), as a SparseIntMatrix (coboundaries given
    as dense IntMatrix are stored sparse).  as_chain_complex reverses the
    grading so the chain-complex tooling applies.
    """

    def __init__(self, ranks, deltas):
        deltas = [SparseIntMatrix.of(d) for d in deltas]
        if len(deltas) != max(len(ranks) - 1, 0):
            raise FormatError("expected %d coboundaries, got %d"
                              % (max(len(ranks) - 1, 0), len(deltas)))
        for n, mat in enumerate(deltas):
            if mat.cols != ranks[n] or mat.rows != ranks[n + 1]:
                raise FormatError("coboundary %d has shape %dx%d, expected "
                                  "%dx%d" % (n, mat.rows, mat.cols,
                                             ranks[n + 1], ranks[n]))
        self.ranks = list(ranks)
        self.deltas = list(deltas)

    def top_degree(self):
        return len(self.ranks) - 1

    def delta(self, n):
        """delta_n as a matrix, including the zero maps off both ends."""
        if 0 <= n < len(self.deltas):
            return self.deltas[n]

        def rank(k):
            return self.ranks[k] if 0 <= k < len(self.ranks) else 0
        return SparseIntMatrix(rank(n + 1), rank(n))

    def as_chain_complex(self):
        """The same maps with the grading reversed (degree n -> top - n)."""
        return FreeChainComplexZ(list(reversed(self.ranks)),
                                 list(reversed(self.deltas)))


def block_matrix(m, nrows, ncols, blocks):
    """The (nrows*m) x (ncols*m) SparseIntMatrix of a sum of m x m blocks.

    blocks yields triples (j, i, B), B an m x m IntMatrix added at rows
    j*m.. and columns i*m..: the layout of every cochain-level matrix.
    """
    columns = [{} for _ in range(ncols * m)]
    for j, i, block in blocks:
        for r, brow in enumerate(block.data):
            row = j * m + r
            for s, v in enumerate(brow):
                if v:
                    col = columns[i * m + s]
                    v += col.get(row, 0)
                    if v:
                        col[row] = v
                    else:
                        del col[row]
    return SparseIntMatrix(nrows * m, ncols * m, columns)


def hom_complex(resolution, module):
    """Hom over the group ring from a free resolution into P(k).

    A ZG-map out of a rank-r free module is determined by the images of
    the r generators, so the degree-n cochains are M^(r_n); the coboundary
    substitutes action matrices for group elements in the boundary rows.
    Raises ActionMismatch when the resolution is not over a matrix group.
    """
    if not isinstance(resolution.group, CongruenceSubgroup):
        raise ActionMismatch("resolution is not over a matrix group: %r"
                             % (resolution.group,))
    m = module.rank
    top = resolution.top_degree()
    ranks = [resolution.rank(n) * m for n in range(top + 1)]
    deltas = [block_matrix(m, resolution.rank(n + 1), resolution.rank(n),
                           ((j, i, module.ring_action(gre))
                            for j, row in enumerate(resolution.boundary_rows(n + 1))
                            for i, gre in row.items()))
              for n in range(top)]
    C = CochainComplexZ(ranks, deltas)
    _spot_check_squares(C)
    return C


def _spot_check_squares(C):
    # cheap always-on guard: delta(delta(v)) on a deterministic +-1 vector
    # (full matrix products are verified in the test suite on small inputs)
    for n in range(len(C.deltas) - 1):
        v = [1 if (i * 2654435761) % 3 != 1 else -1
             for i in range(C.ranks[n])]
        w = C.deltas[n + 1].apply(C.deltas[n].apply(v))
        if any(w):
            raise CompositionNonzero("coboundary square is nonzero in "
                                     "degree %d" % n)


def cohomology(C, n):
    """Abelian invariants of H^n of a CochainComplexZ.

    Only C^(n-1) -> C^n -> C^(n+1) matters, taken as a chain complex with
    boundaries delta_n and delta_(n-1).  Its d.d = 0 check runs on the
    maps as given (CompositionNonzero), then contract cuts it down by unit
    collapses, which are chain homotopy equivalences, and the Smith forms
    run on what is left.  The top degree is computed against a zero
    outgoing map, so it reflects the truncation of the underlying
    resolution; ask one degree below the resolution's top for the genuine
    group cohomology.
    """
    top = C.top_degree()
    if not 0 <= n <= top:
        raise DegreeOutOfRange("degree %d outside 0..%d" % (n, top))
    out, into = C.delta(n), C.delta(n - 1)
    K = FreeChainComplexZ([out.rows, C.ranks[n], into.cols], [out, into])
    verify_complex(K)
    K = contract(K)
    return homology_of_pair(K.boundary(1), K.boundary(2))
