"""Quadratic integer rings, ideal arithmetic, and torsion growth ratios.

Elements of the ring of integers of Q(sqrt(d)) are stored as a + b*omega
where omega is sqrt(d) for d = 2, 3 mod 4 and (1 + sqrt(d))/2 for
d = 1 mod 4, so the ring is exactly Z + Z*omega.  Ideals are handled as
rank-2 sublattices of Z + Z*omega in a canonical row normal form, which
reduces norm, membership, and sums of ideals to integer linear algebra:
the form is exactlin's column echelon basis of the generating pairs with
its signs fixed.  Primality and the Gamma0 index read the factorization
of the norm, found by one trial-division routine.
The module also evaluates the quadratic character of the field and the
L-value ratio that the torsion growth of congruence subgroup
abelianizations is conjectured to approach.
"""

import math
import re

from .errors import EliminationError, FormatError, MixedField, ZeroIdeal
from .exactlin import IntMatrix, column_span_basis


def _squarefree(d):
    if d in (0, 1):
        return False
    n = abs(d)
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 1
    return True


class QuadInt:
    """An element a + b*omega of the quadratic ring with parameter d."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        if not _squarefree(d):
            raise FormatError("d must be square-free and not 0 or 1, got %r"
                              % (d,))
        self.a = a
        self.b = b
        self.d = d

    def _same(self, other):
        if not isinstance(other, QuadInt):
            other = QuadInt(int(other), 0, self.d)
        if other.d != self.d:
            raise MixedField("mixing d=%d with d=%d" % (self.d, other.d))
        return other

    def __add__(self, other):
        other = self._same(other)
        return QuadInt(self.a + other.a, self.b + other.b, self.d)

    def __sub__(self, other):
        other = self._same(other)
        return QuadInt(self.a - other.a, self.b - other.b, self.d)

    def __neg__(self):
        return QuadInt(-self.a, -self.b, self.d)

    def __mul__(self, other):
        other = self._same(other)
        a, b, c, e, d = self.a, self.b, other.a, other.b, self.d
        if d % 4 == 1:
            # omega^2 = omega + (d - 1)/4
            m = (d - 1) // 4
            return QuadInt(a * c + b * e * m, a * e + b * c + b * e, d)
        # omega^2 = d
        return QuadInt(a * c + b * e * d, a * e + b * c, d)

    __radd__ = __add__
    __rmul__ = __mul__

    def conj(self):
        """Galois conjugate: sqrt(d) -> -sqrt(d), so omega -> tr - omega."""
        if self.d % 4 == 1:
            return QuadInt(self.a + self.b, -self.b, self.d)
        return QuadInt(self.a, -self.b, self.d)

    def norm(self):
        """N(x) = x * conj(x), an ordinary integer."""
        a, b, d = self.a, self.b, self.d
        if d % 4 == 1:
            return a * a + a * b + b * b * (1 - d) // 4
        return a * a - d * b * b

    def trace(self):
        """tr(x) = x + conj(x), an ordinary integer."""
        if self.d % 4 == 1:
            return 2 * self.a + self.b
        return 2 * self.a

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        if not isinstance(other, QuadInt):
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return "QuadInt(%d, %d, d=%d)" % (self.a, self.b, self.d)


_QUAD_RE = re.compile(r"""
    (?:(?P<a>[+-]?\d+)(?![0-9iIwW]))?       # optional rational part
    (?:(?P<b>[+-]?\d*)\s*[iIwW])?           # optional omega part
    $""", re.VERBOSE)


def parse_quad(text, d):
    """Parse strings like '41+56i', '-3w', '7' into a QuadInt.

    The letters i, I, w, W all denote omega (i is the natural spelling
    for d = -1).  Raises FormatError on anything else.
    """
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise FormatError("empty quadratic integer %r" % (text,))
    m = _QUAD_RE.fullmatch(s)
    if m is None or (m.group("a") is None and m.group("b") is None):
        raise FormatError("cannot parse %r as a quadratic integer" % (text,))
    a = int(m.group("a")) if m.group("a") is not None else 0
    braw = m.group("b")
    if braw is None:
        b = 0
    elif braw in ("", "+"):
        b = 1
    elif braw == "-":
        b = -1
    else:
        b = int(braw)
    return QuadInt(a, b, d)


def _hnf_rows(rows):
    """Canonical upper-triangular row form of a full-rank 2-column lattice.

    rows is a list of (x, y) integer pairs.  Returns ((p, q), (0, s)) with
    p, s > 0 and 0 <= q < s; this form is unique for the lattice spanned,
    which is what makes ideal equality a plain tuple comparison.  The
    pairs are the columns of a 2 x k matrix whose column echelon basis
    (p, q), (0, s) then only needs its signs and q fixed.
    """
    M = IntMatrix(2, len(rows), [[x for x, _ in rows], [y for _, y in rows]])
    B = column_span_basis(M)
    if B.cols < 2:
        raise EliminationError("lattice has rank < 2")
    (p, _), (q, s) = B.data
    if p < 0:
        p, q = -p, -q
    s = abs(s)
    return (p, q % s), (0, s)


class QuadIdeal:
    """A nonzero ideal as a canonical Z-basis of a sublattice of Z + Z*omega.

    basis is ((p, q), (0, s)): the ideal is spanned over Z by p + q*omega
    and s*omega.  The constructor verifies the normal form and that the
    lattice is closed under multiplication by omega, which is what makes
    it an ideal of the full ring and not merely a subgroup.
    """

    __slots__ = ("d", "basis")

    def __init__(self, d, basis):
        (p, q), (z, s) = basis
        if not (z == 0 and p > 0 and s > 0 and 0 <= q < s):
            raise FormatError("basis %r is not in normal form" % (basis,))
        self.d = d
        self.basis = ((p, q), (0, s))
        for x, y in self.basis:
            w = QuadInt(0, 1, d) * QuadInt(x, y, d)
            if not self._contains(w.a, w.b):
                raise FormatError("basis %r is not an ideal: the lattice is "
                                  "not closed under omega" % (basis,))

    def _contains(self, a, b):
        (p, q), (_, s) = self.basis
        if a % p:
            return False
        return (b - (a // p) * q) % s == 0

    def generators(self):
        """The two basis elements as ring elements."""
        (p, q), (_, s) = self.basis
        return [QuadInt(p, q, self.d), QuadInt(0, s, self.d)]

    def norm(self):
        """The index of the ideal in the full ring: |det| of the basis."""
        return self.basis[0][0] * self.basis[1][1]

    def member(self, x):
        """Whether the ring element x lies in the ideal."""
        if x.d != self.d:
            raise MixedField("element has d=%d, ideal d=%d" % (x.d, self.d))
        return self._contains(x.a, x.b)

    def is_prime(self):
        """Prime ideals have prime norm, or norm p^2 with p inert."""
        f = _factor(self.norm())
        if len(f) != 1:
            return False
        (p, e), = f.items()
        # norm p^2 is prime only for the inert rational prime (p)
        return e == 1 or (e == 2 and self.basis == ((p, 0), (0, p))
                          and quad_character(self.d, p) == -1)

    def __eq__(self, other):
        if not isinstance(other, QuadIdeal):
            return NotImplemented
        return (self.d, self.basis) == (other.d, other.basis)

    def __hash__(self):
        return hash((self.d, self.basis))

    def __repr__(self):
        (p, q), (_, s) = self.basis
        return "QuadIdeal(d=%d, <%d+%dw, %dw>)" % (self.d, p, q, s)


def _factor(n):
    """{prime: exponent} of an integer n >= 1 by trial division.

    The primes come out in ascending order.
    """
    out = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = 1
    return out


def ideal_from_generators(gens):
    """The ideal generated by a list of ring elements.

    Since the ring is Z + Z*omega, the ideal is the Z-span of the
    generators together with their omega-multiples; one stacking pass
    therefore suffices before reducing to the canonical normal form.
    Raises ZeroIdeal if there is no generator or every generator is zero.
    """
    gens = list(gens)
    if not gens:
        raise ZeroIdeal("no generators")
    d = gens[0].d
    rows = []
    for g in gens:
        if g.d != d:
            raise MixedField("generators mix d=%d and d=%d" % (d, g.d))
        if g.is_zero():
            continue
        w = QuadInt(0, 1, d) * g
        rows.append((g.a, g.b))
        rows.append((w.a, w.b))
    if not rows:
        raise ZeroIdeal("all generators are zero")
    return QuadIdeal(d, _hnf_rows(rows))


def quad_character(d, n):
    """chi(n) for the quadratic field with parameter d (Kronecker symbol).

    The modulus is the field discriminant D = d for d = 1 mod 4 and 4d
    otherwise; the value is 0 on primes dividing D, and +1/-1 according
    to whether the prime splits or stays inert.  Computed by the
    reciprocity cascade (_kronecker), no factoring involved.
    """
    if not _squarefree(d):
        raise FormatError("d must be square-free and not 0 or 1, got %r" % (d,))
    if n < 1:
        raise FormatError("the character is evaluated at n >= 1, got %r" % (n,))
    return _kronecker(d if d % 4 == 1 else 4 * d, n)


def _kronecker(D, n):
    """The Kronecker symbol (D / n) for n >= 1, unchecked."""
    a, m = D, n
    s = 1
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            s = -s
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                s = -s
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            s = -s
        a %= m
    return s if m == 1 else 0


def l_ratio(d, pi_multiple=18):
    """Partial sum of L(2, chi)/(pi_multiple * pi) with a certified tail.

    Character sums over any interval are bounded by the period |D| (full
    periods cancel), so by partial summation the tail after M terms is at
    most |D|/M^2; M is chosen to push that below 1e-8.  d is checked once,
    and the terms are quad_character's values through the unchecked
    _kronecker.
    """
    if not (d < 0 and _squarefree(d)):
        raise FormatError("l_ratio needs a negative square-free d, got %r"
                          % (d,))
    D = d if d % 4 == 1 else 4 * d
    M = max(20000, math.isqrt(int(abs(D) / 1e-8)) + 1)
    total = 0.0
    for n in range(1, M + 1):
        c = _kronecker(D, n)
        if c:
            total += c / (n * n)
    return total / (pi_multiple * math.pi)


def torsion_ratio(orders, a):
    """log(product of torsion orders) / N(a) for an ideal a.

    This is the quantity whose limit over prime ideals of growing norm
    the torsion growth conjecture compares against l_ratio.

    The base-10 logarithm is truncated to its integer part (digit count
    minus one) before dividing, which is what two-argument integer-log
    routines in computer algebra systems return and is the convention
    behind the frozen comparison value in the tests.
    """
    orders = list(orders)
    if not orders:
        raise FormatError("need at least one torsion order")
    prod = 1
    for o in orders:
        if o < 1:
            raise FormatError("torsion orders are positive, got %r" % (o,))
        prod *= o
    # exact integer log for arbitrarily large products
    return (len(str(prod)) - 1) / a.norm()


def gamma0_index(a):
    """Index of the Hecke congruence subgroup of level a: #P^1(O/a).

    The count is N(a) * prod (1 + 1/N(p)) over the prime ideals p dividing
    a.  Trial division factors N(a), and each rational prime l dividing it
    contributes by its splitting type (quad_character): inert, the one
    prime (l) of norm l^2; ramified, one prime of norm l; split, as many
    primes of norm l as divide a, which is log_l N(a + lO).
    """
    out = a.norm()
    for ell in _factor(out):
        chi = quad_character(a.d, ell)
        if chi == -1:
            norms = [ell * ell]
        elif chi == 0:
            norms = [ell]
        else:
            gcd = ideal_from_generators(a.generators() + [QuadInt(ell, 0, a.d)])
            norms = [ell] * (1 if gcd.norm() == ell else 2)
        for q in norms:
            out = out // q * (q + 1)
    return out
