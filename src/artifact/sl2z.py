"""Exact SL2(Z) arithmetic and the walk on the cubic tree.

The group is generated by S (order 4) and U = S*T (order 6); the vertices
of the tree are the cosets g<U>, the edges the cosets g<S>, and the edge e1
joins the vertices <U> and T<U>.  decompose() walks a matrix to the base
vertex through exact integer geometry and yields a reduced word in S, U,
U^2.  tree_contraction() walks all the vertices of a 0-chain up the same
parent edges together, deepest first, so walks merge where they meet and
cancelling ones stop there; it is the contracting homotopy of the tree,
the corners and arcs of resolutions.borel_serre_complex, and what makes
every resolution in this package computable.  nearest_vertex() reduces
M.rho for an integral M of positive determinant into a translate of the
fundamental domain, which puts the Hecke chain map's degree-0 images
next to their targets.

Printed forms: matrices as "[[a,b],[c,d]]"; words as "S U2 S U ... | U^k"
with the trailing stabilizer power after the bar.
"""

import heapq
from collections import namedtuple
from functools import lru_cache

from .errors import EliminationError, NotInGroup


class SL2ZMatrix:
    """An element of SL2(Z).  Immutable, hashable, det checked on entry."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if a * d - b * c != 1:
            raise NotInGroup("determinant %d is not 1" % (a * d - b * c))
        self.a, self.b, self.c, self.d = a, b, c, d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        return _mk(self.a * other.a + self.b * other.c,
                   self.a * other.b + self.b * other.d,
                   self.c * other.a + self.d * other.c,
                   self.c * other.b + self.d * other.d)

    def inverse(self):
        return _mk(self.d, -self.b, -self.c, self.a)

    def __neg__(self):
        return _mk(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = I
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, SL2ZMatrix) and self.a == other.a
                and self.b == other.b and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "[[%d,%d],[%d,%d]]" % (self.a, self.b, self.c, self.d)


def _mk(a, b, c, d):
    # internal fast constructor: products of group elements stay in the
    # group, so skip the determinant check
    m = SL2ZMatrix.__new__(SL2ZMatrix)
    m.a, m.b, m.c, m.d = a, b, c, d
    return m


I = SL2ZMatrix(1, 0, 0, 1)
S = SL2ZMatrix(0, -1, 1, 0)
T = SL2ZMatrix(1, 1, 0, 1)
U = S * T  # [[0,-1],[1,1]], order 6

U_POWERS = [I, U, U * U, -I, -U, -(U * U)]
S_POWERS = [I, S, -I, -S]
if not (U ** 6 == I and S ** 4 == I and U ** 3 == S ** 2 == -I):
    raise EliminationError("S and U do not satisfy S^4 = U^6 = I, S^2 = U^3")

_U_SET = frozenset(U_POWERS)
_S_INV = S.inverse()

# factorization alphabet: X = S * U^c, so that X^-1 * T lies in <U> and the
# parent step B = A * X^-1 satisfies B*T<U> = A<U> (edges climb toward the
# base vertex without any correcting translate)
_X = [S, S * U, S * (U * U)]
_X_INV = [x.inverse() for x in _X]
for _x in _X_INV:
    if _x * T not in _U_SET:
        raise EliminationError("X^-1 * T is outside <U> for X^-1 = %r" % _x)


def _rho_invariants(a, b, c, d):
    """(Q, R) with M.rho = (R + sqrt(3) * det(M) * i) / (2Q), rho = exp(2*pi*i/3).

    Q = c^2 - c*d + d^2 = |c*rho + d|^2 and R = 2ac + 2bd - ad - bc, for
    M = [[a,b],[c,d]] with positive determinant.
    """
    return c * c - c * d + d * d, 2 * a * c + 2 * b * d - a * d - b * c


def _vertex_key(A):
    """(Q, |R|) of the vertex A<U>: lower Q means a higher point A.rho.

    Both are unchanged by right multiplication by U, which fixes rho, so
    the key belongs to the vertex and not to its representative.
    """
    q, r = _rho_invariants(A.a, A.b, A.c, A.d)
    return q, abs(r)


@lru_cache(maxsize=1 << 18)
def _parent(A):
    """The tree parent of the vertex A<U>, with the chosen letter index.

    Exact geometric criterion at rho: the candidate B with the highest
    point B.rho, that is the least _vertex_key (Q, then |Re| = |R| / 2Q),
    ties broken by the fixed candidate order.
    """
    best = None
    for idx, xinv in enumerate(_X_INV):
        B = A * xinv
        key = (_vertex_key(B), idx)
        if best is None or key < best[0]:
            best = (key, B, idx)
    return best[1], best[2]


def _walk_to_base(A):
    """Letter indices c_i and the final stabilizer element U^j."""
    cs = []
    M = A
    while M not in _U_SET:
        M, c = _parent(M)
        cs.append(c)
    j = U_POWERS.index(M)
    return cs, j


class GeneratorWord(namedtuple("GeneratorWord", "letters u_power")):
    """A reduced word: letters from {S, U, U2} and a trailing power of U.

    Reduced means no S following S and no two adjacent U-type letters (a
    U^3 would be -I, which belongs in the trailing power).
    """
    __slots__ = ()

    def evaluate(self):
        g = I
        for letter in self.letters:
            g = g * _LETTER[letter]
        return g * U_POWERS[self.u_power]

    def is_reduced(self):
        if not 0 <= self.u_power <= 5:
            return False
        prev_kind = None
        for letter in self.letters:
            if letter not in _LETTER:
                return False
            # adjacent letters of the same kind would be an S^2 or a U^3
            kind = "S" if letter == "S" else "U"
            if kind == prev_kind:
                return False
            prev_kind = kind
        return True

    def __str__(self):
        return ("%s | U^%d" % (" ".join(self.letters), self.u_power)).strip()


_LETTER = {"S": S, "U": U, "U2": U * U}


def decompose(A):
    """Reduced word for A: evaluate(decompose(A)) == A.

    A is an SL2ZMatrix.  The S/U-letter prefix walks the tree from the
    base vertex out to A<U>; the trailing U-power corrects inside the
    vertex stabilizer.
    """
    cs, j = _walk_to_base(A)
    # A = U^j * (S U^{c_m}) (S U^{c_{m-1}}) ... (S U^{c_1}); fold the central
    # -I = U^3 part of U^j and the innermost U^{c_1} into the trailing power
    prefix = {0: (), 1: ("U",), 2: ("U2",)}[j % 3]
    if not cs:
        return GeneratorWord(prefix, (3 * (j // 3)) % 6)
    letters = list(prefix)
    for c in reversed(cs[1:]):
        # interior letters always carry a nonzero U-power: stepping to the
        # plain S-neighbor would walk straight back to the previous vertex
        if c not in (1, 2):
            raise EliminationError("interior letter S U^%d of %r walks back"
                                   % (c, A))
        letters.extend(("S", "U" if c == 1 else "U2"))
    letters.append("S")
    word = GeneratorWord(tuple(letters), (cs[0] + 3 * (j // 3)) % 6)
    return word


# ----------------------------------------------------------- canonical reps

def _coset_key(g):
    # the identity must represent its own coset, so order by total size,
    # then by trace descending, then lexicographically
    return (abs(g.a) + abs(g.b) + abs(g.c) + abs(g.d), -(g.a + g.d),
            (g.a, g.b, g.c, g.d))


@lru_cache(maxsize=None)
def coset_normal_form(powers):
    """The normal form g -> (rep, k) with g = rep * powers[k].

    powers is the tuple (s^0, s^1, ..., s^(q-1)) of a finite cyclic
    subgroup; rep is the element of g<s> of least _coset_key.  The returned
    function is cached on g, and one function serves each subgroup.
    """
    inverses = tuple(p.inverse() for p in powers)

    @lru_cache(maxsize=1 << 18)
    def normal_form(g):
        best = None
        for k, pinv in enumerate(inverses):
            cand = g * pinv
            key = _coset_key(cand)
            if best is None or key < best[0]:
                best = (key, cand, k)
        return best[1], best[2]

    return normal_form


_vertex_rep = coset_normal_form(tuple(U_POWERS))


def tree_contraction(vertices):
    """The parent edges of the merged walks of a vertex 0-chain to the base.

    vertices holds (g, c) pairs, c times the vertex g<U>.  Each vertex
    walks up its parent edges B.e1, which join B<U> to the vertex below
    (B*T<U>), so the boundaries telescope to g.e0 - e0.  The walks run
    together: a heap pops the deepest vertex by _vertex_key, emits its
    parent edge with the coefficient gathered there and adds that
    coefficient to the parent, so every vertex is left once, after all
    the walks through it have arrived, and one whose coefficient has
    cancelled to 0 is dropped.  A chain of augmentation 0 stops where its
    walks meet.  Returns [(B, c)]: the edges B.e1 with their coefficients,
    summing to the geodesic contraction of the chain: the contraction of
    the corners of resolutions.borel_serre_complex by its arcs.  Raises
    EliminationError if a parent's key is not below its child's; the base
    vertex is exempt, since it takes no coefficient (its neighbour T<U>
    has the same key).
    """
    acc, heap = {}, []

    def arrive(g, c):
        if g in _U_SET:
            # the base vertex walks nowhere
            return
        rep = _vertex_rep(g)[0]
        if rep in acc:
            acc[rep] += c
        else:
            acc[rep] = c
            q, r = _vertex_key(rep)
            # entries are unique per vertex, so ties never compare matrices
            heapq.heappush(heap, (-q, -r, rep.entries(), rep))

    for g, c in vertices:
        arrive(g, c)
    edges = []
    while heap:
        q, r, _, rep = heapq.heappop(heap)
        c = acc.pop(rep)
        if not c:
            continue
        parent, _ = _parent(rep)
        if parent not in _U_SET and _vertex_key(parent) >= (-q, -r):
            raise EliminationError("tree parent %r of %r is not higher"
                                   % (parent, rep))
        edges.append((parent, c))
        arrive(parent, c)
    return edges


def nearest_vertex(M):
    """The m in SL2(Z) with M.rho in m.F, F the closed standard domain.

    M = (a, b, c, d) is integral with positive determinant D.  Exactly in
    integers: M.rho has real part R / 2Q and imaginary part
    sqrt(3) D / 2Q (_rho_invariants).  Translate by k = floor((R + Q) / 2Q)
    so the real part lands in [-1/2, 1/2), and invert while
    |M.rho|^2 = (R^2 + 3D^2) / 4Q^2 is below 1.  Each inversion raises
    the imaginary part, so the loop ends.  m.rho is a corner of m.F, the
    vertex of the tree nearest M.rho in this sense.
    """
    a, b, c, d = M
    det = a * d - b * c
    if det <= 0:
        raise NotInGroup("determinant %d is not positive" % det)
    # m accumulates the inverse of the reduction applied to M
    m = I
    while True:
        q, r = _rho_invariants(a, b, c, d)
        k = (r + q) // (2 * q)
        if k:
            # z -> z - k is T^-k, and shifts R by -2kQ
            a, b, r = a - k * c, b - k * d, r - 2 * k * q
            m = m * _mk(1, k, 0, 1)
        if r * r + 3 * det * det >= 4 * q * q:
            return m
        # z -> -1/z is S; undo it with S^-1 on the right of m
        a, b, c, d = -c, -d, a, b
        m = m * _S_INV
