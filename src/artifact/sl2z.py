"""Exact SL2(Z) arithmetic, the cubic tree, and its chain complex.

The group is generated by S (order 4) and U = S*T (order 6); the vertices
of the tree are the cosets g<U>, the edges the cosets g<S>, and the edge e1
joins the vertices <U> and T<U>.  decompose() walks a matrix to the base
vertex through exact integer geometry and yields a reduced word in S, U,
U^2; the same walk drives the contracting homotopy of the tree complex,
which is what makes every resolution in this package computable.

Printed forms: matrices as "[[a,b],[c,d]]"; words as "S U2 S U ... | U^k"
with the trailing stabilizer power after the bar.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import EliminationError, NotInGroup, WrongDegree


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


def in_unit_stabilizer(g):
    """Whether g lies in <U> = {+-I, +-U, +-U^2} (the base vertex)."""
    return g in _U_SET


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


@lru_cache(maxsize=1 << 18)
def canon_vertex(g):
    """Canonical representative of the coset g<U>."""
    return min((g * u for u in U_POWERS), key=_coset_key)


@lru_cache(maxsize=1 << 18)
def canon_edge(g):
    """Canonical representative of g<S> with the orientation sign.

    Returns (rep, sign) where g . e1 = sign . rep . e1: S reverses the
    edge, so rep = g * S^k contributes (-1)^k.
    """
    best = None
    for k, s in enumerate(S_POWERS):
        cand = g * s
        key = _coset_key(cand)
        if best is None or key < best[0]:
            best = (key, cand, k)
    return best[1], (-1) ** best[2]


def tree_neighbors(g):
    """The three neighboring vertices of g<U>, as canonical representatives."""
    return [canon_vertex(g * xinv) for xinv in _X_INV]


@lru_cache(maxsize=1 << 18)
def coset_normal_form(g, powers):
    """Canonical decomposition g = rep * powers[k] for a finite cyclic list.

    powers is the tuple (s^0, s^1, ..., s^(q-1)) of a finite subgroup; the
    representative minimizes the same key as canon_vertex/canon_edge, so
    the three agree where they overlap.  Returns (rep, k).
    """
    best = None
    for k, p in enumerate(powers):
        cand = g * p.inverse()
        key = _coset_key(cand)
        if best is None or key < best[0]:
            best = (key, cand, k)
    return best[1], best[2]


# ----------------------------------------------------------- tree chains

class TreeChain:
    """Formal Z-linear combination of translated cells of the tree.

    Degree 0 terms are vertices g.e0 keyed by the canonical <U>-coset
    representative (the stabilizer acts trivially); degree 1 terms are
    edges g.e1 keyed by the canonical <S>-representative with the
    orientation sign folded into the coefficient.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms=None):
        if degree not in (0, 1):
            raise WrongDegree("tree chains live in degrees 0 and 1")
        self.degree = degree
        self.terms = {}
        if terms:
            for g, c in terms:
                self.add_term(g, c)

    def add_term(self, g, coeff):
        if coeff == 0:
            return
        if self.degree == 0:
            key = canon_vertex(g)
        else:
            key, sign = canon_edge(g)
            coeff = coeff * sign
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    @classmethod
    def vertex(cls, g, coeff=1):
        x = cls(0)
        x.add_term(g, coeff)
        return x

    @classmethod
    def edge(cls, g, coeff=1):
        x = cls(1)
        x.add_term(g, coeff)
        return x

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def coefficient_sum(self):
        return sum(self.terms.values())

    def __add__(self, other):
        if self.degree != other.degree:
            raise WrongDegree("cannot add chains of degrees %d and %d"
                              % (self.degree, other.degree))
        out = TreeChain(self.degree)
        out.terms = dict(self.terms)
        for g, c in other.terms.items():
            new = out.terms.get(g, 0) + c
            if new:
                out.terms[g] = new
            else:
                out.terms.pop(g, None)
        return out

    def __neg__(self):
        out = TreeChain(self.degree)
        out.terms = {g: -c for g, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, TreeChain) and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        cell = "e0" if self.degree == 0 else "e1"
        if not self.terms:
            return "0.%s" % cell
        return " + ".join("%d*%r.%s" % (c, g, cell) for g, c in self.terms.items())


def tree_boundary(x):
    """d1(g.e1) = g(T-1).e0, extended linearly."""
    if x.degree != 1:
        raise WrongDegree("tree_boundary acts on degree-1 chains")
    out = TreeChain(0)
    for g, c in x.terms.items():
        out.add_term(g * T, c)
        out.add_term(g, -c)
    return out


def tree_homotopy(x):
    """Contracting homotopy h0: d1 h0 = 1 - eps, h0 d1 = 1.

    For a vertex A.e0, h0 accumulates the parent edge B.e1 along the walk
    from A<U> to the base vertex; the telescoping of d1 along the path is
    exact because B*T and the previous vertex span the same coset.
    """
    if x.degree != 0:
        raise WrongDegree("tree_homotopy acts on degree-0 chains")
    out = TreeChain(1)
    for g, coeff in x.terms.items():
        M = g
        while M not in _U_SET:
            M, _ = _parent(M)
            out.add_term(M, coeff)
    return out


def tree_augmentation(x):
    """eps: degree-0 chains to multiples of the base vertex e0."""
    if x.degree != 0:
        raise WrongDegree("augmentation acts on degree-0 chains")
    return TreeChain.vertex(I, x.coefficient_sum()) if x.terms else TreeChain(0)
