"""Exact SL2(Z) arithmetic and the walk on the cubic tree.

The group is generated by S (order 4) and U = S*T (order 6); the vertices
of the tree are the cosets g<U>, the edges the cosets g<S>, and the edge e1
joins the vertices <U> and T<U>.  decompose() walks a matrix to the base
vertex through exact integer geometry and yields a reduced word in S, U,
U^2; tree_walk() yields the edges of the same walk, which is the
contracting homotopy of the tree (resolutions.tree_cell_complex) and what
makes every resolution in this package computable.

Printed forms: matrices as "[[a,b],[c,d]]"; words as "S U2 S U ... | U^k"
with the trailing stabilizer power after the bar.
"""

from dataclasses import dataclass
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

# factorization alphabet: X = S * U^c, so that X^-1 * T lies in <U> and the
# parent step B = A * X^-1 satisfies B*T<U> = A<U> (edges climb toward the
# base vertex without any correcting translate)
_X = [S, S * U, S * (U * U)]
_X_INV = [x.inverse() for x in _X]
for _x in _X_INV:
    if _x * T not in _U_SET:
        raise EliminationError("X^-1 * T is outside <U> for X^-1 = %r" % _x)


@lru_cache(maxsize=1 << 18)
def _parent(A):
    """The tree parent of the vertex A<U>, with the chosen letter index.

    Exact geometric criterion at z = exp(2*pi*i/3): for B = [[a,b],[c,d]],
    Im(Bz) = (sqrt(3)/2) / Q with Q = c^2 - c*d + d^2, and
    Re(Bz) = R / (2Q) with R = 2ac + 2bd - ad - bc.  Raising Im means
    lowering Q; ties are broken by |Re| (equal Q makes that |R|), then by
    the fixed candidate order.
    """
    best = None
    for idx, xinv in enumerate(_X_INV):
        B = A * xinv
        q = B.c * B.c - B.c * B.d + B.d * B.d
        r = 2 * B.a * B.c + 2 * B.b * B.d - B.a * B.d - B.b * B.c
        key = (q, abs(r), idx)
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


@dataclass(frozen=True)
class GeneratorWord:
    """A reduced word: letters from {S, U, U2} and a trailing power of U.

    Reduced means no S following S and no two adjacent U-type letters (a
    U^3 would be -I, which belongs in the trailing power).
    """
    letters: tuple
    u_power: int

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

    Accepts an SL2ZMatrix or a 4-sequence (a, b, c, d); raises NotInGroup
    when the determinant is not 1.  The S/U-letter prefix walks the tree
    from the base vertex out to A<U>; the trailing U-power corrects inside
    the vertex stabilizer.
    """
    if not isinstance(A, SL2ZMatrix):
        a, b, c, d = A
        if a * d - b * c != 1:
            raise NotInGroup("determinant %d is not 1" % (a * d - b * c))
        A = _mk(a, b, c, d)
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


def tree_walk(g):
    """The parent edges B.e1 on the walk from the vertex g<U> to the base.

    Each B.e1 joins B<U> to the vertex before it (B*T<U>), so the
    boundaries telescope to g.e0 - e0: summed, the edges are the tree's
    geodesic contraction of g.e0.
    """
    while g not in _U_SET:
        g, _ = _parent(g)
        yield g
