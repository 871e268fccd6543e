"""Congruence subgroups of SL2(Z): membership, transversals, generators.

Right cosets are identified by invariants mod N: a canonical point of
P^1(Z_N) for Gamma_0 (the bottom row) and for Gamma^0 (the first row:
Gamma^0(N) g holds the first rows of g up to a unit), the bottom row for
Gamma_1, the full matrix for the principal subgroup.  Transversals come
from a breadth-first search of the coset graph with the fixed neighbor
order S, U, U^2, S^-1, U^-1.

Generating sets come from the action on the subdivided tree (vertices the
cosets g<U> and g<S>, edges the cosets g{+-I}): the subgroup is the
fundamental group of the quotient graph of groups, so one stabilizer
generator per vertex orbit with nontrivial stabilizer plus one Schreier
element per non-tree edge orbit generates.  Subdividing matters: elements
conjugate to S reverse a tree edge, and on the subdivision the action has
no inversions, which is what the generation theorem needs.
"""

from collections import deque, namedtuple
from functools import lru_cache
from math import gcd

from .errors import EliminationError, FormatError, NotInGroup
from .sl2z import I, S, S_POWERS, U, U_POWERS


class CongruenceSubgroup(namedtuple("CongruenceSubgroup", "kind level")):
    """One of Gamma(N), Gamma_1(N), Gamma_0(N), Gamma^0(N) = {N | b}."""
    __slots__ = ()

    def __new__(cls, kind, level):
        if kind not in ("principal", "gamma1", "gamma0", "gamma0_upper"):
            raise FormatError("unknown subgroup kind %r" % kind)
        if level < 1:
            raise FormatError("level must be >= 1")
        return super().__new__(cls, kind, level)

    @classmethod
    def gamma0(cls, n):
        return cls("gamma0", n)

    @classmethod
    def gamma1(cls, n):
        return cls("gamma1", n)

    @classmethod
    def principal(cls, n):
        return cls("principal", n)

    @classmethod
    def gamma0_upper(cls, n):
        return cls("gamma0_upper", n)

    def member(self, A):
        n = self.level
        if self.kind == "gamma0_upper":
            return A.b % n == 0
        if A.c % n:
            return False
        if self.kind == "gamma0":
            return True
        if A.a % n != 1 % n or A.d % n != 1 % n:
            return False
        if self.kind == "gamma1":
            return True
        return A.b % n == 0

    def __str__(self):
        name = {"principal": "Gamma", "gamma1": "Gamma1", "gamma0": "Gamma0",
                "gamma0_upper": "Gamma^0"}[self.kind]
        return "%s(%d)" % (name, self.level)


# ----------------------------------------------------------- P^1(Z_N)

class _P1System:
    """Canonicalization of P^1(Z_N) points.

    Representatives are normalized so the first coordinate is the divisor
    gcd(c, N); the leftover unit ambiguity (units congruent to 1 mod N/c1)
    is resolved by minimizing the second coordinate over that subgroup.
    """

    def __init__(self, n):
        self.n = n
        self._unit_subsets = {}

    def _units_one_mod(self, m):
        # units of Z_N congruent to 1 mod m, cached per divisor m of N
        got = self._unit_subsets.get(m)
        if got is None:
            n = self.n
            got = [t for t in range(1, n + 1) if t % m == 1 % m and gcd(t, n) == 1]
            self._unit_subsets[m] = got
        return got

    def canon(self, c, d):
        n = self.n
        if n == 1:
            return (0, 0)
        c %= n
        d %= n
        c1 = gcd(c, n)
        if c1 == 1:
            return (1, (pow(c, -1, n) * d) % n)
        if c1 == n:
            # the point (0 : unit); gcd(d, n) = 1 by primitivity
            if gcd(d, n) != 1:
                raise NotInGroup("(%d : %d) is not a point of P^1(Z_%d)"
                                 % (c, d, n))
            return (0, 1)
        m = n // c1
        u = pow((c // c1) % m, -1, m)
        # lift u to a unit mod n; the arithmetic progression u + k*m hits
        # one because gcd(u, m) = 1
        while gcd(u, n) != 1:
            u += m
        d1 = (u * d) % n
        return (c1, min((t * d1) % n for t in self._units_one_mod(m)))


@lru_cache(maxsize=None)
def _p1_system(n):
    return _P1System(n)


def _coset_key_fn(gamma):
    n = gamma.level
    if gamma.kind == "gamma0":
        p1 = _p1_system(n)
        return lambda g: p1.canon(g.c, g.d)
    if gamma.kind == "gamma0_upper":
        p1 = _p1_system(n)
        return lambda g: p1.canon(g.a, g.b)
    if gamma.kind == "gamma1":
        return lambda g: (g.c % n, g.d % n)
    return lambda g: (g.a % n, g.b % n, g.c % n, g.d % n)


# ----------------------------------------------------------- transversals

class Transversal:
    """Ordered coset representatives of Gamma in SL2(Z) with O(1) lookup."""

    def __init__(self, group, reps, table, keyfn):
        self.group = group
        self.reps = reps
        self._table = table
        self._key = keyfn

    def __len__(self):
        return len(self.reps)

    def rep(self, i):
        return self.reps[i]

    def lookup(self, g):
        """(index, gamma) with g = gamma * rep and gamma in Gamma."""
        i = self._table[self._key(g)]
        gamma = g * self.reps[i].inverse()
        if not self.group.member(gamma):
            raise NotInGroup("%r times the inverse of representative %d is "
                             "not in %s" % (g, i, self.group))
        return i, gamma


_NEIGHBORS = [S, U, U * U, S.inverse(), U.inverse()]


@lru_cache(maxsize=None)
def transversal(gamma):
    """BFS transversal of Gamma in SL2(Z); identity is the first rep."""
    keyfn = _coset_key_fn(gamma)
    reps = [I]
    table = {keyfn(I): 0}
    queue = deque([I])
    while queue:
        g = queue.popleft()
        for step in _NEIGHBORS:
            h = g * step
            k = keyfn(h)
            if k not in table:
                table[k] = len(reps)
                reps.append(h)
                queue.append(h)
    return Transversal(gamma, reps, table, keyfn)


def index(gamma):
    """The index of Gamma in SL2(Z)."""
    return len(transversal(gamma))


# ----------------------------------------------------------- generators

class GeneratorData(namedtuple("GeneratorData", (
        "generators", "dropped", "stabilizer_count", "schreier_count",
        "vertices", "edges"))):
    """Generating set with its provenance and elimination certificates.

    generators: the retained generating set.
    dropped: list of (element, expression) where expression is a list of
        (index into generators, +-1) of length <= 2 whose product is the
        element.
    stabilizer_count / schreier_count: how many raw generators of each
        kind the quotient graph produced (before deduplication).
    vertices / edges: sizes of the quotient of the subdivided tree.
    """
    __slots__ = ()


def _canonical_pm_key(g):
    return min(h.entries() for h in (g, g.inverse(), -g, -g.inverse()))


def generator_data(gamma):
    """Generators of Gamma from the quotient of the subdivided tree."""
    keyfn = _coset_key_fn(gamma)

    def vkey_u(g):
        return min(keyfn(g * u) for u in U_POWERS)

    def vkey_s(g):
        return min(keyfn(g * s) for s in S_POWERS)

    def ekey(g):
        return min(keyfn(g), keyfn(-g))

    raw = []
    stab_count = 0
    schreier_count = 0

    def stabilizer_generator(typ, r):
        # minimal power of the cell stabilizer conjugated back to the
        # vertex representative; generates the full stabilizer in Gamma
        powers = (1, 2, 3) if typ == "U" else (1, 2)
        base = U_POWERS if typ == "U" else S_POWERS
        rinv = r.inverse()
        for k in powers:
            cand = r * base[k] * rinv
            if gamma.member(cand):
                return cand
        return None

    verts = {}
    queue = deque()

    def add_vertex(typ, key, rep):
        nonlocal stab_count
        verts[(typ, key)] = rep
        queue.append((typ, rep))
        g = stabilizer_generator(typ, rep)
        if g is not None:
            raw.append(g)
            stab_count += 1

    add_vertex("U", vkey_u(I), I)
    edges_seen = set()
    while queue:
        typ, r = queue.popleft()
        if typ == "U":
            halves = [r, r * U, r * (U * U)]
            ttyp, tkey, tpowers = "S", vkey_s, S_POWERS
        else:
            halves = [r, r * S]
            ttyp, tkey, tpowers = "U", vkey_u, U_POWERS
        for h in halves:
            ek = ekey(h)
            if ek in edges_seen:
                continue
            edges_seen.add(ek)
            tk = tkey(h)
            existing = verts.get((ttyp, tk))
            if existing is None:
                # tree edge: the child representative is the edge element,
                # so the tree edge itself carries the identity
                add_vertex(ttyp, tk, h)
            else:
                einv = existing.inverse()
                for w in tpowers:
                    cand = h * w * einv
                    if gamma.member(cand):
                        break
                else:
                    raise EliminationError("double coset mismatch in tree BFS")
                raw.append(cand)
                schreier_count += 1

    # deduplicate up to inverse and sign, then eliminate generators that
    # are words of length <= 2 in the ones kept so far
    seen = set()
    candidates = []
    for g in raw:
        k = _canonical_pm_key(g)
        if k not in seen:
            seen.add(k)
            candidates.append(g)

    table = _WordTable()
    dropped = []
    for g in candidates:
        expr = table.expression(g)
        if expr is None:
            table.keep(g)
        else:
            dropped.append((g, expr))
    return GeneratorData(table.kept, dropped, stab_count, schreier_count,
                         len(verts), len(edges_seen))


class _WordTable:
    """The words of length <= 2 in the generators kept so far.

    The table lists each kept r and then r^-1, tagged (index, 1) and
    (index, -1); it grows with each keep, and every entry stores the
    entries of its inverse (those of r^-1 for r, of r for r^-1).  first
    maps the entries of each element in the table to its first tag.
    """

    def __init__(self):
        self.kept = []
        self._table = []
        self._first = {}

    def keep(self, r):
        idx = len(self.kept)
        self.kept.append(r)
        a, b, c, d = r.entries()
        self._table += [((d, -b, -c, a), (idx, 1)), ((a, b, c, d), (idx, -1))]
        self._first.setdefault((a, b, c, d), (idx, 1))
        self._first.setdefault((d, -b, -c, a), (idx, -1))

    def expression(self, g):
        """Expression of g as a word of length <= 2 in the kept
        generators, or None.

        A word [ta, tb] pairs the first table entry a for which a^-1 * g
        is in the table with the first occurrence of a^-1 * g.
        """
        if g == I:
            return []
        first = self._first
        p, q, r, s = g.entries()
        hit = first.get((p, q, r, s))
        if hit is not None:
            return [hit]
        for (a, b, c, d), ta in self._table:
            tb = first.get((a * p + b * r, a * q + b * s,
                            c * p + d * r, c * q + d * s))
            if tb is not None:
                return [ta, tb]
        return None


@lru_cache(maxsize=None)
def generators(gamma):
    """A finite generating set of Gamma, a tuple cached per group
    (see generator_data for details)."""
    return tuple(generator_data(gamma).generators)
