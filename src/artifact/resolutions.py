"""Free resolutions over group rings, with contracting homotopies.

The objects here are free left ZG-resolutions of the trivial module Z,
carried around together with enough extra structure to actually compute:
an augmentation, a section of it, and a Z-linear contracting homotopy h
with d h + h d = 1 - section.augmentation in degree 0 and d h + h d = 1
above.  Everything downstream (group cohomology, Hecke operators, the
cuspidal subspace) reduces to evaluating these maps on basis elements.

Constructions provided:

  * borel_serre_complex   -- the equivariant cell structure on the
                             compactified upper half plane whose quotient
                             is the compactified modular curve, with its
                             horocycle boundary marked; its corners and
                             arcs are the trivalent tree onto which it
                             retracts, contracted by sl2z.tree_contraction;
  * wall_resolution       -- the assembly for SL2(Z) acting on a
                             contractible cell complex with finitely many
                             orbits and finite cyclic stabilizers, each
                             generator labelled with its cell orbit: the
                             one builder, gluing the cells to the periodic
                             resolutions of their stabilizers;
  * sub_resolution        -- the rows, augmentation, homotopy and section
                             of a resolution on chosen generators (the
                             generators over a subcomplex, by Wall's
                             assembly, or a truncation);
  * sl2z_resolution       -- the resolution for SL2(Z): the tree's
                             generators of the Borel-Serre assembly, in a
                             fixed basis;
  * restrict_resolution   -- restriction of a ZG-resolution to a finite
                             index subgroup, along its transversal:
                             gam = rep(t) * g * rep(ti)^-1, with ti from
                             the coset permutations of S and U;
  * tensor_with_z         -- the integral chain complex Z tensor_Zgamma R,
                             by Shapiro's lemma, from the same
                             permutations.

Conventions.  A chain in degree n is a dict {generator index:
GroupRingElement}; zero group-ring values are dropped.  The boundary is
stored one row per source generator, as {target index: GroupRingElement},
and acts by d(xi . e_j) = sum_i (xi * row_j[i]) . e_i, i.e. module
coefficients multiply the stored row from the left.  Homotopies are only
Z-linear; each construction evaluates its h on a whole chain at once,
through canonical coset representatives, which is what makes them
effective and lets the tree walks of different terms merge.
"""

from .chaincx import FreeChainComplexZ
from .congruence import CongruenceSubgroup, transversal
from .errors import (
    CompositionNonzero,
    DegreeOutOfRange,
    FormatError,
    MissingHomotopy,
    ShapeMismatch,
    WrongDegree,
)
from .exactlin import SparseIntMatrix
from .sl2z import (I, S, SL2ZMatrix, T, U, coset_normal_form, decompose,
                   tree_contraction)


class GroupRingElement:
    """A finitely supported formal Z-linear combination of group elements.

    The group elements only need hashable equality, multiplication and
    inverse(), as SL2ZMatrix has.  Sums are kept with zero coefficients
    dropped, so is_zero is just emptiness.

    Multiplication: gre * gre is the convolution product, gre * g and
    g-on-the-left via left_mul(g) translate the support, int scaling works
    on either side.  (left_mul exists because g * gre would dispatch into
    the matrix class, which does not know about us.)
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for g, c in items:
                if not c:
                    continue
                new = self.terms.get(g, 0) + c
                if new:
                    self.terms[g] = new
                else:
                    del self.terms[g]

    @classmethod
    def unit(cls, g, coeff=1):
        out = cls()
        if coeff:
            out.terms[g] = coeff
        return out

    @classmethod
    def wrap(cls, terms):
        """The element with the term dict terms, taken over uncopied.

        terms must hold no zero coefficient, and its owner must not
        change it afterwards.
        """
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        """Sum of coefficients (the image under ZG -> Z)."""
        return sum(self.terms.values())

    def left_mul(self, g):
        """The product g * self (g a group element)."""
        out = GroupRingElement()
        for k, c in self.terms.items():
            out.terms[g * k] = c
        return out

    def __add__(self, other):
        out = GroupRingElement(dict(self.terms))
        for g, c in other.terms.items():
            new = out.terms.get(g, 0) + c
            if new:
                out.terms[g] = new
            else:
                out.terms.pop(g, None)
        return out

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        out = GroupRingElement()
        for g, c in self.terms.items():
            out.terms[g] = -c
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            out = GroupRingElement()
            if other:
                for g, c in self.terms.items():
                    out.terms[g] = c * other
            return out
        if isinstance(other, GroupRingElement):
            out = GroupRingElement()
            for g1, c1 in self.terms.items():
                for g2, c2 in other.terms.items():
                    k = g1 * g2
                    new = out.terms.get(k, 0) + c1 * c2
                    if new:
                        out.terms[k] = new
                    else:
                        del out.terms[k]
            return out
        # other is a bare group element: translate the support on the right
        out = GroupRingElement()
        for g, c in self.terms.items():
            out.terms[g * other] = c
        return out

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        return "GroupRingElement(%s)" % self.to_str()

    def to_str(self):
        """Deterministic text form: 'c*g + c*g + ...', '0' when empty."""
        if not self.terms:
            return "0"
        parts = sorted((repr(g), c) for g, c in self.terms.items())
        return " + ".join("%d*%s" % (c, gs) for gs, c in parts)


# ---------------------------------------------------------------------------
# chains: dict {generator index: GroupRingElement}


class ChainSum:
    """A chain {key: GroupRingElement} summed in place and built once.

    add(key, terms) adds at key the group-ring element whose (g, c) terms
    are given: distinct g and nonzero c, as the items of one element or
    of its translate or nonzero multiple.  The sums live in term dicts
    that this object owns.  No group-ring element is ever mutated: one
    handed in is only read, since stored values are shared between
    boundary rows, homotopy values and chains.  chain() wraps each dict
    as a GroupRingElement once and spends the sum.

    Key and term order are those of summing the elements one by one into
    a dict of elements with +: a key enters at the end, stays in place
    while its sum is nonzero and leaves the moment an add brings it to
    zero, so a later add puts it at the end again; within a sum a new
    group element enters at the end and a cancelled one leaves.
    """

    __slots__ = ("sums",)

    def __init__(self):
        self.sums = {}

    def add(self, key, terms):
        sums = self.sums
        acc = sums.get(key)
        if acc is None:
            acc = dict(terms)
            if acc:
                sums[key] = acc
            return
        for g, c in terms:
            new = acc.get(g, 0) + c
            if new:
                acc[g] = new
            else:
                del acc[g]
        if not acc:
            del sums[key]

    def add_product(self, key, x, y):
        """Add the product x * y of two group-ring elements at key."""
        if len(y.terms) == 1:
            (h, e), = y.terms.items()
            self.add(key, ((g * h, c * e) for g, c in x.terms.items()))
        elif len(x.terms) == 1:
            (h, e), = x.terms.items()
            self.add(key, ((h * g, e * c) for g, c in y.terms.items()))
        else:
            # a convolution can cancel within itself: add it as one element
            self.add(key, (x * y).terms.items())

    def add_chain(self, chain):
        for key, gre in chain.items():
            self.add(key, gre.terms.items())

    def chain(self):
        out = {key: GroupRingElement.wrap(acc)
               for key, acc in self.sums.items()}
        self.sums = None
        return out


class FreeZGResolution:
    """A free ZG-resolution of Z carried with its contracting homotopy.

    ranks[n] is the rank of the degree-n module.  boundaries[n] (n >= 1)
    is a list of rows, one per source generator, each a dict
    {target index: GroupRingElement}.  The homotopy is given on chains:
    homotopy(n, chain) -> chain in degree n+1, Z-linear, so its value on
    a chain is the sum of its values on the terms; h checks the degree
    and calls it.  augmentation maps degree-0 chains to Z and section(c)
    produces a degree-0 chain with augmentation c.

    group is an identification tag, the CongruenceSubgroup resolved over;
    consumers compare it to detect mismatched inputs.
    labels[n][j], where given (wall_resolution), names what degree-n
    generator j sits over.
    """

    def __init__(self, group, ranks, boundaries, homotopy=None,
                 augmentation=None, section=None, labels=None):
        if len(boundaries) != len(ranks):
            raise ShapeMismatch("%d boundary tables for %d degrees; need one "
                                "per degree" % (len(boundaries), len(ranks)))
        if boundaries[0] != [] and boundaries[0] != [{}] * ranks[0]:
            raise ShapeMismatch("the degree-0 boundary table must be empty")
        self.group = group
        self.ranks = list(ranks)
        self._rows = boundaries
        self._homotopy = homotopy
        self._augmentation = augmentation
        self._section = section
        self.labels = labels

    def top_degree(self):
        return len(self.ranks) - 1

    def rank(self, n):
        if 0 <= n <= self.top_degree():
            return self.ranks[n]
        return 0

    def boundary_rows(self, n):
        if not 1 <= n <= self.top_degree():
            raise DegreeOutOfRange("no boundary stored in degree %d" % n)
        return self._rows[n]

    def d(self, n, chain):
        """Boundary of a degree-n chain (degree 0 maps to zero)."""
        if n == 0:
            return {}
        rows = self.boundary_rows(n)
        out = ChainSum()
        for j, xi in chain.items():
            if xi.is_zero():
                continue
            for i, row in rows[j].items():
                out.add_product(i, xi, row)
        return out.chain()

    def h(self, n, chain):
        """Contracting homotopy on a degree-n chain (Z-linear)."""
        if self._homotopy is None:
            raise MissingHomotopy("resolution carries no homotopy")
        if not 0 <= n < self.top_degree():
            raise DegreeOutOfRange("homotopy defined in degrees 0..%d"
                                   % (self.top_degree() - 1))
        return self._homotopy(n, chain)

    def aug(self, chain):
        if self._augmentation is None:
            raise MissingHomotopy("resolution carries no augmentation")
        return self._augmentation(chain)

    def section(self, c=1):
        if self._section is None:
            raise MissingHomotopy("resolution carries no section")
        return self._section(c)


def sub_resolution(resolution, keep):
    """The resolution on the generators in keep, as a resolution of its own.

    keep[n] (n = 0..top) lists (generator, sign) pairs: new degree-n
    generator a is sign times the parent's generator keep[n][a][0].  The
    kept boundary rows are re-indexed and signed in the parent's key
    order, sharing the parent's entries where the signs agree; the
    augmentation, homotopy and section are the parent's through the same
    basis change, with homotopy values keyed in the kept order.  Kept
    over a subcomplex's cells, this is Wall's assembly of the subcomplex;
    kept up to top, a truncation.  A row or value that leaves keep raises
    FormatError (so does the homotopy of a subcomplex that is not
    contractible), and keep beyond the parent's top degree raises
    DegreeOutOfRange.
    """
    top = len(keep) - 1
    if top > resolution.top_degree():
        raise DegreeOutOfRange("resolution has top degree %d < %d"
                               % (resolution.top_degree(), top))
    pos = []
    for n, kept in enumerate(keep):
        if any(not 0 <= g < resolution.rank(n) for g, _ in kept):
            raise FormatError("keep names no degree-%d generator" % n)
        pos.append({g: (a, s) for a, (g, s) in enumerate(kept)})

    def into(n, chain, what, sign=1):
        """sign times a parent chain, in the kept basis."""
        out = {}
        for g, gre in chain.items():
            if g not in pos[n]:
                raise FormatError("%s leaves the kept generators at degree-%d "
                                  "generator %d" % (what, n, g))
            a, s = pos[n][g]
            out[a] = gre if s == sign else -gre
        return out

    def out_of(n, chain):
        return {keep[n][a][0]: gre if keep[n][a][1] == 1 else -gre
                for a, gre in chain.items()}

    def homotopy(n, chain):
        value = into(n + 1, resolution.h(n, out_of(n, chain)), "the homotopy")
        return {a: value[a] for a in sorted(value)}

    boundaries = [[]]
    for n in range(1, top + 1):
        rows = resolution.boundary_rows(n)
        boundaries.append([into(n - 1, rows[g], "a boundary row", s)
                           for g, s in keep[n]])
    return FreeZGResolution(
        resolution.group, [len(kept) for kept in keep], boundaries, homotopy,
        lambda chain: resolution.aug(out_of(0, chain)),
        lambda c=1: into(0, resolution.section(c), "the section"))


# ---------------------------------------------------------------------------
# induced columns: ZG tensored over a finite cyclic subgroup


def _cyclic_powers(x):
    """(x^0, x^1, ..., x^(q-1)) for x of finite order q."""
    ident = x * x.inverse()
    powers = [ident]
    cur = x
    while cur != ident:
        powers.append(cur)
        cur = cur * x
        if len(powers) > 10000:
            raise FormatError("element does not look finite order: no "
                              "power up to 10000 is the identity")
    return tuple(powers)


class _InducedColumn:
    """Computational face of ZG (x)_{ZH} (periodic resolution), H = <s> cyclic.

    The periodic resolution of H = <s> of order q resolves Z, twisted by
    the orientation character chi(s) = -1 when twisted: its boundary out
    of an odd degree multiplies by s - chi(s), out of an even one by the
    norm sum_k chi(s)^k s^k, and its contracting homotopy sends s^k to
    sum_{i<k} chi(s)^(k-1-i) s^i out of an even degree and only s^(q-1)
    to chi(s) . 1 out of an odd one.  q = 1 is no exception: the
    boundaries are 0, 1, 0, 1, ...  Induced up to G, each vertical
    degree is free of rank one over ZG; the vertical boundary is right
    multiplication by the multiplier, and the contracting homotopy
    extends the subgroup one termwise through canonical coset
    representatives g = t * s^k.  Both have period 2, so each is
    tabulated once for odd and once for even degrees.  powers is the
    tuple (s^0, ..., s^(q-1)) from _cyclic_powers.
    """

    def __init__(self, powers, twisted):
        self.powers = powers
        self.normal_form = coset_normal_form(powers)
        order = len(powers)
        # s itself, which is 1 when q = 1
        s = powers[1 % order]
        chi = -1 if twisted else 1
        one = powers[0]
        # mults[m % 2]: the multiplier out of degree m >= 1
        self.mults = (GroupRingElement((p, chi ** k)
                                       for k, p in enumerate(powers)),
                      GroupRingElement([(s, 1), (one, -chi)]))
        # pieces[m % 2][k]: the terms of h_m(s^k), () when it is zero
        self.pieces = (
            [tuple((powers[i], chi ** (k - 1 - i)) for i in range(k))
             for k in range(order)],
            [()] * (order - 1) + [((one, chi),)])

    def mult(self, m):
        """Right multiplier of the vertical boundary out of degree m >= 1."""
        return self.mults[m % 2]

    def hv(self, m, gre):
        """Induced contracting homotopy, vertical degree m -> m + 1."""
        pieces = self.pieces[m % 2]
        terms = []
        for g, c in gre.items():
            # g = t * s^k with t the canonical coset representative
            t, k = self.normal_form(g)
            terms.extend((t * x, cx * c) for x, cx in pieces[k])
        return GroupRingElement(terms)


# ---------------------------------------------------------------------------
# the SL2(Z) resolution


def sl2z_resolution(max_degree):
    """A free resolution of Z over Z[SL2(Z)] with contracting homotopy.

    The tree's generators of wall_resolution(borel_serre_complex()), over
    the corners (stabilizer <U> of order 6) and the arcs (stabilizer <S>
    of order 4, which reverses them), whose Borel-Serre contraction is
    the tree's own (sl2z.tree_contraction).  Ranks are (1, 2, 2, ...):
    degree 0 is the corner, and in degree n >= 1 generator 0 is minus the
    arc and generator 1 the corner.  Hecke bases are stated in this basis.
    """
    if max_degree < 1:
        raise DegreeOutOfRange("need max_degree >= 1")
    W = wall_resolution(borel_serre_complex(), max_degree)
    corner, arc = (0, 0), (1, 0)
    return sub_resolution(W, [[(W.labels[0].index(corner), 1)]] + [
        [(labels.index(arc), -1), (labels.index(corner), 1)]
        for labels in W.labels[1:]])


# ---------------------------------------------------------------------------
# equivariant cell complexes


class CellOrbit:
    """One orbit of cells: stabilizer data and the attaching words.

    stabilizer_generator generates the (finite cyclic) stabilizer of the
    chosen orbit representative; twisted says whether the stabilizer
    reverses the cell's orientation (the orientation character sends the
    generator to -1).  boundary lists (target orbit index, word) pairs
    with words in the group ring; 0-cells have an empty list.
    """

    def __init__(self, name, stabilizer_generator, stabilizer_order,
                 twisted, boundary):
        self.name = name
        self.stabilizer_generator = stabilizer_generator
        self.stabilizer_order = stabilizer_order
        self.twisted = twisted
        self.boundary = boundary


class CellChain:
    """A Z-linear combination of cells of one dimension.

    Terms are kept canonical: each cell g.e is stored under its canonical
    coset representative with the orientation sign folded into the
    coefficient, so chains equal in the cell complex compare equal here.
    """

    __slots__ = ("cx", "dim", "terms")

    def __init__(self, cx, dim):
        self.cx = cx
        self.dim = dim
        self.terms = {}

    def add(self, orbit, g, coeff=1):
        if not coeff:
            return self
        rep, sign = self.cx.canon(self.dim, orbit, g)
        key = (orbit, rep)
        new = self.terms.get(key, 0) + sign * coeff
        if new:
            self.terms[key] = new
        else:
            del self.terms[key]
        return self

    def items(self):
        return self.terms.items()

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.cx is not other.cx or self.dim != other.dim:
            raise WrongDegree("adding a %d-chain to a %d-chain%s"
                              % (other.dim, self.dim, "" if self.cx is other.cx
                                 else " of another complex"))
        out = CellChain(self.cx, self.dim)
        out.terms = dict(self.terms)
        for (orbit, rep), c in other.terms.items():
            key = (orbit, rep)
            new = out.terms.get(key, 0) + c
            if new:
                out.terms[key] = new
            else:
                del out.terms[key]
        return out

    def __neg__(self):
        out = CellChain(self.cx, self.dim)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, CellChain) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self):
        return "CellChain(dim=%d, %r)" % (self.dim, self.terms)


class EquivariantCellComplex:
    """A finite-orbit G-cell complex with cyclic stabilizers.

    cells[p] lists the CellOrbits of dimension p.  homotopy is None until
    a construction assigns it; it is a Z-linear map CellChain -> CellChain
    raising dimension by one and contracting the complex to 0-cell orbit
    0, the base point: d h + h d = 1 - (coefficient sum) . e, with e that
    orbit's representative cell.  boundary_orbits marks a subcomplex
    (dimension -> orbit indices), used for the horocycle boundary of the
    compactified complex.  columns[(p, i)] is the periodic resolution of
    orbit i's stabilizer induced up to G (_InducedColumn), built once
    here: its coset normal form gives canon, and wall_resolution
    assembles the columns.
    """

    def __init__(self, cells, boundary_orbits=None):
        self.cells = cells
        self.homotopy = None
        self.boundary_orbits = boundary_orbits or {}
        self.columns = {}
        for p, orbits in enumerate(cells):
            for i, orb in enumerate(orbits):
                powers = _cyclic_powers(orb.stabilizer_generator)
                if len(powers) != orb.stabilizer_order:
                    raise FormatError("stabilizer order mismatch on %s"
                                      % orb.name)
                if orb.twisted and orb.stabilizer_order % 2:
                    raise FormatError("orientation character needs even order")
                if orb.twisted and p == 0:
                    # a point has no orientation to reverse, and the
                    # augmentation must be invariant
                    raise FormatError("0-cell orbit %s cannot be twisted"
                                      % orb.name)
                self.columns[(p, i)] = _InducedColumn(powers, orb.twisted)

    def dim(self):
        return len(self.cells) - 1

    def canon(self, p, i, g):
        """Canonical representative and orientation sign of the cell g.e."""
        rep, k = self.columns[(p, i)].normal_form(g)
        sign = -1 if (self.cells[p][i].twisted and k % 2) else 1
        return rep, sign

    def chain(self, dim):
        return CellChain(self, dim)

    def boundary_chain(self, x):
        """The cellular boundary of a CellChain."""
        out = CellChain(self, x.dim - 1)
        if x.dim == 0:
            return out
        for (i, rep), c in x.items():
            for j, word in self.cells[x.dim][i].boundary:
                for g, cg in word.items():
                    out.add(j, rep * g, c * cg)
        return out

    def verify(self):
        """Check the two assembly preconditions.

        (1) the attaching words compose to zero over ZG exactly, and
        (2) each attaching word is stabilizer compatible: the cell image
            of (s - chi(s)) . word vanishes for the stabilizer generator s.
        Raises CompositionNonzero / FormatError on failure.
        """
        for p in range(2, self.dim() + 1):
            for i, orb in enumerate(self.cells[p]):
                acc = ChainSum()
                for j, word in orb.boundary:
                    for k, word2 in self.cells[p - 1][j].boundary:
                        acc.add_product(k, word, word2)
                if acc.chain():
                    raise CompositionNonzero(
                        "attaching words of %s do not compose to zero"
                        % orb.name)
        for p in range(1, self.dim() + 1):
            for i, orb in enumerate(self.cells[p]):
                s = orb.stabilizer_generator
                chi = -1 if orb.twisted else 1
                for j, word in orb.boundary:
                    moved = word.left_mul(s) - word * chi
                    img = self.chain(p - 1)
                    for g, c in moved.items():
                        img.add(j, g, c)
                    if not img.is_zero():
                        raise FormatError(
                            "attaching word of %s is not stabilizer "
                            "compatible" % orb.name)


def borel_serre_complex():
    """The equivariant cell structure on the bordified upper half plane.

    Two orbits of 0-cells: the corner point (stabilizer <U> of order 6)
    and a horocycle vertex (stabilizer <-1>).  Three orbits of 1-cells:
    the arc between corners (stabilizer <S> of order 4, orientation
    reversing), the vertical segment joining corner to horocycle, and the
    horocycle edge itself.  One orbit of 2-cells (the strip between
    consecutive verticals).  The horocycle orbits form the marked
    boundary; collapsing them recovers the tree.

    The returned complex carries a contracting homotopy built from the
    tree's geodesic contraction, so wall_resolution can produce a full
    resolution with homotopy from it.  A 0-chain's corners, with each
    horocycle vertex slid down to the corner below it, are contracted
    together by sl2z.tree_contraction, so their walks merge.
    """
    minus_i = SL2ZMatrix(-1, 0, 0, -1)
    t_minus_1 = GroupRingElement([(T, 1), (I, -1)])
    one = GroupRingElement.unit(I)

    corner = CellOrbit("corner", U, 6, False, [])
    horo_v = CellOrbit("horo_vertex", minus_i, 2, False, [])
    arc = CellOrbit("arc", S, 4, True, [(0, t_minus_1)])
    vertical = CellOrbit("vertical", minus_i, 2, False,
                         [(0, -one), (1, one)])
    horo_e = CellOrbit("horo_edge", minus_i, 2, False, [(1, t_minus_1)])
    strip = CellOrbit("strip", minus_i, 2, False,
                      [(0, one), (1, t_minus_1), (2, -one)])

    cells = [[corner, horo_v], [arc, vertical, horo_e], [strip]]
    cx = EquivariantCellComplex(cells, boundary_orbits={0: [1], 1: [2]})

    def homotopy(x):
        out = cx.chain(x.dim + 1)
        if x.dim == 0:
            for (i, rep), c in x.items():
                if i == 1:
                    # slide the horocycle vertex down its vertical, then
                    # contract the corner below it
                    out.add(1, rep, c)
            # geodesic contraction of the corners rep<U> to the base
            # corner, written in arc cells
            for step, c in tree_contraction(
                    (rep, c) for (_, rep), c in x.items()):
                out.add(0, step, c)
        elif x.dim == 1:
            for (i, rep), c in x.items():
                if i == 2:
                    # a horocycle edge is swept to the arcs by its strip
                    out.add(0, rep, -c)
        return out

    cx.homotopy = homotopy
    cx.verify()
    return cx


# ---------------------------------------------------------------------------
# the assembly: resolution from a contractible cell complex


def wall_resolution(X, max_degree):
    """Assemble a free ZG-resolution from a contractible G-cell complex.

    X is an EquivariantCellComplex with finite cyclic stabilizers in
    SL2(Z), and the result is tagged as a resolution over SL2(Z).  The
    degree-n module has one generator per orbit pair (p, q) with p + q = n,
    p the cell dimension and q the vertical degree in the stabilizer's
    periodic resolution; labels[n] lists those (p, orbit) pairs in
    generator order.  The differential is d0 + d1 + d2:
    d0 is the vertical boundary, d1 transports the attaching words up the
    columns, and d2 is the correction making the square zero; both are
    produced degree by degree with the column homotopies.

    Each column is the periodic resolution of its orbit's stabilizer,
    induced up to G, which X built with its orbits (X.columns).  The
    assembly preconditions on X are verified first (X.verify).  The
    contracting homotopy needs X.homotopy; without one the resolution is
    still built, but calling h() raises MissingHomotopy.
    """
    X.verify()
    dim = X.dim()
    cols = X.columns

    # generator tables: degree n lists (p, i) with q = n - p implied
    gens = []
    index = []
    for n in range(max_degree + 1):
        table = [(p, i) for p in range(min(n, dim) + 1)
                 for i in range(len(X.cells[p]))]
        gens.append(table)
        index.append({pi: k for k, pi in enumerate(table)})

    # d1[(p, i, q)]: {target orbit j in dim p-1: GroupRingElement}, the
    # transported attaching word at vertical degree q; d2 likewise two
    # dimensions down.
    d1 = {}
    d2 = {}

    for q in range(max_degree + 1):
        for p in range(1, dim + 1):
            for i, orb in enumerate(X.cells[p]):
                if q == 0:
                    row = ChainSum()
                    for j, word in orb.boundary:
                        row.add(j, word.terms.items())
                    d1[(p, i, 0)] = row.chain()
                else:
                    m = cols[(p, i)].mult(q)
                    acc = {}
                    for j, a in d1[(p, i, q - 1)].items():
                        term = m * a
                        if not term.is_zero():
                            acc[j] = term
                    row = {}
                    for j, w in acc.items():
                        lifted = -cols[(p - 1, j)].hv(q - 1, w)
                        if not lifted.is_zero():
                            row[j] = lifted
                    d1[(p, i, q)] = row
        for p in range(2, dim + 1):
            for i, orb in enumerate(X.cells[p]):
                acc = ChainSum()
                for j, a in d1[(p, i, q)].items():
                    for k, b in d1[(p - 1, j, q)].items():
                        acc.add_product(k, a, b)
                if q > 0:
                    m = cols[(p, i)].mult(q)
                    for k, b in d2[(p, i, q - 1)].items():
                        acc.add_product(k, m, b)
                row = {}
                for k, w in acc.chain().items():
                    lifted = -cols[(p - 2, k)].hv(q, w)
                    if not lifted.is_zero():
                        row[k] = lifted
                d2[(p, i, q)] = row

    ranks = [len(t) for t in gens]
    boundaries = [[]]
    for n in range(1, max_degree + 1):
        rows = []
        for (p, i) in gens[n]:
            q = n - p
            row = {}
            if q >= 1:
                m = cols[(p, i)].mult(q)
                if not m.is_zero():
                    row[index[n - 1][(p, i)]] = m
            for j, w in d1.get((p, i, q), {}).items():
                row[index[n - 1][(p - 1, j)]] = w
            for k, w in d2.get((p, i, q), {}).items():
                row[index[n - 1][(p - 2, k)]] = w
            rows.append(row)
        boundaries.append(rows)

    def apply_H(chain, deg):
        """Column homotopies on a degree-deg pq-chain {(p, i): gre}."""
        out = {}
        for (p, i), gre in chain.items():
            lifted = cols[(p, i)].hv(deg - p, gre)
            if not lifted.is_zero():
                out[(p, i)] = lifted
        return out

    def apply_P(chain, deg):
        """Per-column augmentation onto the cells of dimension deg."""
        out = X.chain(deg)
        for (p, i), gre in chain.items():
            if p != deg:
                continue
            for g, c in gre.items():
                out.add(i, g, c)
        return out

    def apply_I(cell_chain):
        terms = {}
        for (i, rep), c in cell_chain.items():
            terms.setdefault((cell_chain.dim, i), []).append((rep, c))
        return {key: GroupRingElement(t) for key, t in terms.items()}

    def apply_delta(chain, deg):
        """The d1 + d2 part of the boundary on a pq-chain."""
        out = ChainSum()
        for (p, i), xi in chain.items():
            q = deg - p
            for j, w in d1.get((p, i, q), {}).items():
                out.add_product((p - 1, j), xi, w)
            for k, w in d2.get((p, i, q), {}).items():
                out.add_product((p - 2, k), xi, w)
        return out.chain()

    def homotopy(n, chain):
        if X.homotopy is None:
            raise MissingHomotopy("cell complex carries no contraction")
        start = {gens[n][j]: gre for j, gre in chain.items()}
        base = ChainSum()
        base.add_chain(apply_H(start, n))
        base.add_chain(apply_I(X.homotopy(apply_P(start, n))))
        z = base.chain()
        total = ChainSum()
        total.add_chain(z)
        for _ in range(dim + 2):
            # tail term k is (-H delta)^k applied to the leading part
            z = {k: -gre for k, gre in apply_H(apply_delta(z, n + 1), n).items()}
            if not z:
                break
            total.add_chain(z)
        else:
            raise CompositionNonzero("homotopy tail failed to terminate")
        return {index[n + 1][key]: gre for key, gre in total.chain().items()}

    def augmentation(chain):
        # 0-cells are never twisted, so each column augments to its point
        return sum(gre.augmentation() for gre in chain.values())

    def section(c=1):
        # generator 0 of degree 0 sits over 0-cell orbit 0, the base point
        return {0: GroupRingElement.unit(I, c)}

    return FreeZGResolution(CongruenceSubgroup.gamma0(1), ranks, boundaries,
                            homotopy, augmentation, section, labels=gens)


# ---------------------------------------------------------------------------
# restriction to finite index subgroups


class RestrictedResolution(FreeZGResolution):
    """A resolution restricted to a finite index subgroup (restrict_resolution).

    base is the resolution it was restricted from, trans its group's
    transversal (congruence.transversal) and table(g) the permutation of
    its cosets by right multiplication with g (_coset_permutations);
    unfold(n, chain) writes a degree-n chain in base's basis, and
    refold(chain) writes a chain of base back in this basis.  A chain map
    into this resolution can be lifted through base's own homotopy
    instead of this one, which is refold . base.h . unfold, and refolded
    once where it is read.
    """

    def __init__(self, group, ranks, boundaries, homotopy, augmentation,
                 section, base, trans, table, unfold, refold):
        super().__init__(group, ranks, boundaries, homotopy, augmentation,
                         section)
        self.base = base
        self.trans = trans
        self.table = table
        self.unfold = unfold
        self.refold = refold


def _coset_permutations(trans):
    """g -> [ti for each coset t], where gamma * rep(t) * g = gamma * rep(ti).

    trans is the transversal of a congruence subgroup gamma = trans.group
    (congruence.transversal), whose cosets right multiplication by g
    permutes.  The permutations of S and U come from 2 * [G : gamma]
    checked lookups, rep(t) * x = gam * rep(ti) with gam in gamma, and
    that of g is composed from them along its reduced word
    (sl2z.decompose): letters S, U, U^2, then the trailing power of U.
    So every entry is a product of checked relations and costs no
    further lookup.  A table is built
    once per distinct g and lists ti only: tensor_with_z and
    hecke_cochain, which places each term of its lift in coset ti
    (RestrictedResolution.table), read nothing else, and
    restrict_resolution forms gam = rep(t) * g * rep(ti)^-1, which lies
    in gamma exactly because ti is the right coset.
    """
    nt = len(trans)
    s_perm, u_perm = ([trans.lookup(trans.rep(t) * x)[0] for t in range(nt)]
                      for x in (S, U))
    u_powers = [list(range(nt))]
    for _ in range(5):
        u_powers.append([u_perm[ti] for ti in u_powers[-1]])
    letters = {"S": s_perm, "U": u_powers[1], "U2": u_powers[2]}
    tables = {}

    def table(g):
        tab = tables.get(g)
        if tab is None:
            # g = x_1 ... x_k * U^u: x_1 moves t first, U^u last
            word = decompose(g)
            tab = u_powers[word.u_power]
            for x in reversed(word.letters):
                tab = [tab[ti] for ti in letters[x]]
            tables[g] = tab
        return tab
    return table


def _spread_rows(resolution, nt, spread):
    """The boundary rows in degrees 1..top over nt cosets: row b * nt + t
    holds spread(row_b[i])[t][ti] at i * nt + ti.  spread runs once per
    distinct entry object, and the rows that use it share its values."""
    spreads = {}  # id(entry) -> [{ti: value} for each coset t]
    out = []
    for n in range(1, resolution.top_degree() + 1):
        rows = []
        for base_row in resolution.boundary_rows(n):
            parts = []
            for i, gre in base_row.items():
                cosets = spreads.get(id(gre))
                if cosets is None:
                    cosets = spreads[id(gre)] = spread(gre)
                parts.append((i * nt, cosets))
            for t in range(nt):
                row = {}
                for off, cosets in parts:
                    for ti, v in cosets[t].items():
                        row[off + ti] = v
                rows.append(row)
        out.append(rows)
    return out


def restrict_resolution(resolution, gamma):
    """View a ZG-resolution as a Z[gamma]-resolution along gamma's
    transversal (congruence.transversal).

    G is SL2(Z), whose generators S and U permute the cosets of gamma,
    a congruence subgroup: Gamma^0(m) for the Hecke lift's source.
    Each rank-r module restricts to rank r * [G : gamma]; the generator
    (b, t) corresponds to e_b tensored with the t-th coset representative.
    Boundary entries are rewritten through the transversal: rep(t) * g =
    gam * rep(ti) for every group element g of a boundary entry and every
    coset t, with ti read off the composed permutations of S and U
    (_coset_permutations) and gam = rep(t) * g * rep(ti)^-1 formed from
    the representatives' inverses, computed once.  Each distinct entry
    object is restricted once per coset, and the rows that use it share
    the restricted elements, which is safe because no group-ring element
    is ever mutated (ChainSum).  The homotopy is conjugated through the
    same unfolding, h = refold . h_G . unfold on whole chains, so the
    restricted resolution again carries d, h, augmentation and section,
    and it exposes resolution as base, with trans, table, unfold and
    refold (RestrictedResolution).
    """
    trans = transversal(gamma)
    nt = len(trans)
    top = resolution.top_degree()
    ranks = [resolution.rank(n) * nt for n in range(top + 1)]
    table = _coset_permutations(trans)
    reps = [trans.rep(t) for t in range(nt)]
    inverses = [r.inverse() for r in reps]

    def spread(gre):
        sums = [ChainSum() for _ in range(nt)]
        for g, c in gre.items():
            for acc, rep, ti in zip(sums, reps, table(g)):
                acc.add(ti, ((rep * g * inverses[ti], c),))
        return [acc.chain() for acc in sums]
    boundaries = [[]] + _spread_rows(resolution, nt, spread)

    def unfold(n, chain):
        out = ChainSum()
        for idx, gre in chain.items():
            b, t = divmod(idx, nt)
            out.add(b, (gre * trans.rep(t)).terms.items())
        return out.chain()

    def refold(chain):
        out = ChainSum()
        for b, gre in chain.items():
            for g, c in gre.items():
                ti, gam = trans.lookup(g)
                out.add(b * nt + ti, ((gam, c),))
        return out.chain()

    def homotopy(n, chain):
        return refold(resolution.h(n, unfold(n, chain)))

    def augmentation(chain):
        return resolution.aug(unfold(0, chain))

    def section(c=1):
        return refold(resolution.section(c))

    return RestrictedResolution(gamma, ranks, boundaries, homotopy,
                                augmentation, section, resolution, trans,
                                table, unfold, refold)


# ---------------------------------------------------------------------------
# passage to integral chain complexes


def tensor_with_z(resolution, gamma=None):
    """Z tensored over Z[gamma] with a ZG-resolution R: the integral chain
    complex whose homology is that of gamma (None: G) with Z coefficients.

    By Shapiro's lemma this is Z[gamma\\G] tensor_ZG R.  Generator (b, t)
    = b * nt + t is e_b on coset t, and column (b, t) holds at (i, ti) the
    sum of c over the terms (g, c) of row_b[i] whose coset permutation
    sends t to ti, zero sums dropped.  Only the coset index ti of
    rep(t) * g is read, never the element of gamma, so the tables are
    composed from the permutations of S and U (_coset_permutations) and
    no restricted resolution is built.
    """
    if gamma is None:
        nt, table = 1, lambda g: (0,)
    else:
        trans = transversal(gamma)
        nt, table = len(trans), _coset_permutations(trans)

    def spread(gre):
        sums = [{} for _ in range(nt)]
        for g, c in gre.items():
            for acc, ti in zip(sums, table(g)):
                acc[ti] = acc.get(ti, 0) + c
        return [{ti: v for ti, v in acc.items() if v} for acc in sums]
    top = resolution.top_degree()
    ranks = [resolution.rank(n) * nt for n in range(top + 1)]
    # the row of source generator j is column j of the boundary
    diffs = [SparseIntMatrix(ranks[n], ranks[n + 1], columns)
             for n, columns in enumerate(_spread_rows(resolution, nt, spread))]
    return FreeChainComplexZ(ranks, diffs)
