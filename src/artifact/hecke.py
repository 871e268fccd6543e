"""Hecke operators on the cohomology of congruence subgroups.

The operator T_m, the double coset of g = diag(m, 1) for an index
m >= 1, acts on H^n(Gamma, M) through the subgroup
Gamma' = Gamma intersect g Gamma g^{-1}: a cochain is restricted to the
conjugate subgroup g^{-1} Gamma' g, pulled back through a chain map
intertwining gamma -> g^{-1} gamma g, hit with g on the coefficients,
and summed over coset translates (the transfer).  All three steps happen
at the cochain level of a free resolution whose contracting homotopy
supplies the chain map, so the composite is an integer matrix on
cochains (hecke_cochain).  The resolution is restricted from SL2(Z).
Gamma' lies in S' = SL2(Z) intersect g SL2(Z) g^{-1} = Gamma^0(m)
(m | b), a congruence subgroup (CongruenceSubgroup.gamma0_upper) of
index psi(m) whatever the level, so the chain map is lifted once over
S' (hecke_lift), on the SL2(Z)-level resolution restricted to S' like
to any other subgroup, through the SL2(Z)-level homotopy and in that
resolution's basis, with rank * psi(m) generator values.  Its
restriction to Gamma' is again a lift (the comparison theorem; Brown,
Cohomology of Groups, I.7 and III.5): the value on a Gamma' generator is
a translate of one of those values, found by a coset lookup.  The
cochain reads it per pair of a coset t of Gamma and a representative t_i
of Gamma': g^{-1} s g = gamma0 rep(t0) by one checked lookup in Gamma,
and each term k of the value moves to the coset ti that the composed
S/U permutations give rep(t0) k, with gamma1 = rep(t0) k rep(ti)^{-1}
in Gamma.  With y the representative of S' for which t_i^{-1} rep(t)
lies in S' y, t_i g gamma0 gamma1 = rep(t) y^{-1} g k rep(ti)^{-1}, so
the cochain is D T~ D^{-1} with D block diagonal in the M(rep(t)) and
T~ a sum of the matrices M(y^{-1} g k), one per term of the lift: no
term builds a group element or is looked up.  The operator descends to
an adapted basis of the cohomology lattice through a
CohomologyPresentation, built once per cochain complex and shared by
every operator presented on it.  The presentation sits on a transfer
f: C -> C', g: C' -> C from the truncation C^(n-1) -> C^n -> C^(n+1)
(chaincx.transfer), and T is presented as f T g on C'.  The outputs that
do not depend on a basis, the eigenvalues (hecke_eigenvalues) and the
characteristic polynomials (hecke_charpolys), take C' to be the
contraction of the truncation, a chain homotopy equivalence (Gaussian
elimination; the basic perturbation lemma), so their Smith forms run on
the reduced cochains.  The matrices and bases (hecke_operators, and
--emit matrix through it) depend on the basis of the lattice they are
presented on, so they keep C' = C, the identity transfer, on which they
were recorded.

Normalization: every entry point names the operator by its index m, and
T_m is the double coset of diag(m, 1), the primitive integral matrix at
the point diag(1, 1/m) of PGL2(Q)+ that represents the classical T_m;
conjugation only sees the projective class.  For prime m this is the
classical Hecke operator at m; for composite m it is the double-coset
operator of diag(m, 1) alone.  The coefficient action of g uses the integral matrix, which for
weight 2 (trivial coefficients) is invisible, so those eigenvalues are
the classical ones; in higher weight this pins one specific integral
normalization, and structural facts (commutativity, cocycle
preservation, integrality) are normalization independent.
"""

import heapq
from collections import namedtuple
from functools import cached_property
from operator import mul

from .chaincx import contract, transfer
from .coeffmod import PolynomialModule, hom_complex
from .congruence import CongruenceSubgroup, generators, transversal
from .errors import (CompositionNonzero, DegreeOutOfRange, FormatError,
                     InfiniteIndex, NotInGroup, NotInLattice, ShapeMismatch)
from .exactlin import (IntMatrix, QuotientLattice, SparseIntMatrix,
                       charpoly, integer_roots, kernel_with_left_inverse)
from .resolutions import (ChainSum, GroupRingElement, RestrictedResolution,
                          restrict_resolution, sl2z_resolution, sub_resolution)
from .sl2z import I as IDENT, SL2ZMatrix, nearest_vertex


def _conjugated(m, A):
    """diag(m, 1)^{-1} A diag(m, 1) = [[a, b/m], [m c, d]] as an
    SL2ZMatrix, or None when m does not divide b."""
    if A.b % m:
        return None
    return SL2ZMatrix(A.a, A.b // m, m * A.c, A.d)


class HeckeDescriptor(namedtuple("HeckeDescriptor", "group m reps")):
    """Subgroup data determining T_m, the double coset of diag(m, 1).

    With g = diag(m, 1), reps are left coset representatives of
    Gamma' = Gamma intersect g Gamma g^{-1} in Gamma with reps[0] the
    identity, so Gamma is the disjoint union of the reps[i] Gamma'.
    Gamma' lies in S' = SL2(Z) intersect g SL2(Z) g^{-1} = Gamma^0(m),
    on which conjugate is defined too; S' has index psi(m) in SL2(Z)
    whatever Gamma is, and upper is its transversal, over which the
    chain map is lifted (hecke_lift).
    """
    __slots__ = ()

    @property
    def index(self):
        # the index [Gamma : Gamma'], in place of the tuple method
        return len(self.reps)

    def member(self, A):
        """Membership in Gamma': A in Gamma and g^{-1} A g integral and in Gamma."""
        if not self.group.member(A):
            return False
        conj = _conjugated(self.m, A)
        return conj is not None and self.group.member(conj)

    def conjugate(self, A):
        """The homomorphism gamma -> g^{-1} gamma g on S', so on Gamma'."""
        conj = _conjugated(self.m, A)
        if conj is None:
            raise NotInGroup("conjugate by g is not integral")
        return conj

    @property
    def upper(self):
        """The transversal of S' = Gamma^0(m)."""
        return transversal(CongruenceSubgroup.gamma0_upper(self.m))


def _check_index(m):
    if not isinstance(m, int) or m < 1:
        raise FormatError("operator index must be an int >= 1, got %r"
                          % (m,))


# the most cosets of Gamma' in Gamma the search takes before it gives up
MAX_COSETS = 10 ** 6


def gamma_prime_data(gamma, m):
    """Coset data of T_m, the double coset of diag(m, 1) = g: the cosets
    of Gamma' = Gamma intersect g Gamma g^{-1} inside Gamma.

    Left coset representatives are found by a best-first search from the
    identity: the products s * t of a generator of gamma (or its inverse)
    with a representative t wait in a heap ordered by |a|+|b|+|c|+|d|,
    then by the entries, and each new coset takes the first element
    popped for it, the smallest the walk reaches; x and y represent the
    same left coset exactly when x^{-1} y lies in Gamma'.  Small
    representatives keep the coefficient matrices of the transfer small;
    the chain map does not see them, since it is lifted over S' and
    its values on Gamma' generators are translates (hecke_cochain).  Raises
    FormatError when m is not an int >= 1 and InfiniteIndex when more
    than MAX_COSETS cosets appear before the search closes.
    """
    _check_index(m)
    desc = HeckeDescriptor(gamma, m, [IDENT])
    gens = generators(gamma)
    gens = list(gens) + [s.inverse() for s in gens]
    # keys are unique per matrix, so ties never compare SL2ZMatrix objects
    heap, seen, fresh = [], {IDENT.entries()}, [IDENT]
    while fresh:
        t = fresh.pop()
        for s in gens:
            x = s * t
            key = x.entries()
            if key not in seen:
                seen.add(key)
                heapq.heappush(heap, (sum(map(abs, key)), key, x))
        while heap:
            x = heapq.heappop(heap)[2]
            # x lies in the coset r Gamma' exactly when x^{-1} r lies in Gamma'
            xi = x.inverse()
            if any(desc.member(xi * r) for r in desc.reps):
                continue
            if len(desc.reps) >= MAX_COSETS:
                raise InfiniteIndex("more than %d cosets of Gamma' in Gamma"
                                    % MAX_COSETS)
            desc.reps.append(x)
            fresh.append(x)
            break
    return desc


class EquivariantChainMap:
    """A chain map between free resolutions, semilinear over phi.

    source and target are FreeZGResolutions over groups H1 and H2, and phi
    is a homomorphism H1 -> H2.  The map is determined by its images of
    the free source generators.  The caller gives the degree-0 images,
    degree0[j] a target chain for source generator j; any choice that
    preserves the augmentation lifts, and all lifts are chain homotopic
    (the comparison theorem), but images near their targets keep the
    lift short.  The rest are lifted degree by degree through the
    target's contracting homotopy,

        f_0(e_j) = degree0[j],    f_n(e) = h_{n-1}(f_{n-1}(d_n e)),

    and extended semilinearly, f(gamma x) = phi(gamma) f(x).  A map into
    a restricted resolution is lifted into its base, the SL2(Z)-level
    resolution, through the SL2(Z)-level homotopy, and its values are
    brought back to the restricted basis where they are read: the
    boundary inclusion behind the cuspidal kernel lattice in the ambient
    basis, refolded once (cuspidal.ambient_kernel; cuspidal_cohomology
    lifts nothing), and the Hecke chain map, lifted over S' and
    restricted to Gamma' by the same semilinearity, whose terms the
    cochain moves to their cosets through the composed coset
    permutations (hecke_lift, hecke_cochain).
    The defining equations d f_n = f_{n-1} d_n (plus augmentation
    preservation in degree 0) are verified on every source generator up
    to degree_max, and a failure raises CompositionNonzero.  Raises
    MissingHomotopy when the target carries no homotopy.
    """

    def __init__(self, source, target, phi, degree0, degree_max):
        if degree_max > source.top_degree():
            raise DegreeOutOfRange("source has top degree %d < %d"
                                   % (source.top_degree(), degree_max))
        if degree_max > target.top_degree():
            raise DegreeOutOfRange("target has top degree %d < %d"
                                   % (target.top_degree(), degree_max))
        self.source = source
        self.target = target
        self.phi = phi
        self.degree_max = degree_max
        if len(degree0) != source.rank(0):
            raise ShapeMismatch("%d degree-0 images for %d generators"
                                % (len(degree0), source.rank(0)))
        for j, val in enumerate(degree0):
            if target.aug(val) != source.aug(
                    {j: GroupRingElement.unit(IDENT)}):
                raise CompositionNonzero(
                    "augmentation not preserved on degree-0 generator %d" % j)
        self.values = [list(degree0)]
        for n in range(1, degree_max + 1):
            vals = []
            for j, row in enumerate(source.boundary_rows(n)):
                # f d on the generator: its boundary is its row
                below = self.apply(n - 1, row)
                val = target.h(n - 1, below)
                # d f = f d; both chains come out of ChainSum.chain(), which
                # keeps no zero key and no zero term, so == is chain equality
                if target.d(n, val) != below:
                    raise CompositionNonzero(
                        "d f != f d in degree %d on generator %d" % (n, j))
                vals.append(val)
            self.values.append(vals)

    def value(self, n, j):
        """Image of the degree-n source generator j, as a target chain."""
        return self.values[n][j]

    def apply(self, n, chain):
        """Image of a degree-n source chain {index: GroupRingElement}."""
        out = ChainSum()
        for j, gre in chain.items():
            base = self.values[n][j]
            for gam, c in gre.items():
                img = self.phi(gam)
                for i, val in base.items():
                    out.add(i, ((img * k, e * c) for k, e in val.terms.items()))
        return out.chain()


def _nearest_images(m, upper, rank0):
    """Degree-0 images of the Hecke chain map next to their targets.

    Source generator (b, t) of the lift over S' is y.e_b over the vertex
    y<U> of SL2(Z)'s resolution, y = upper.rep(t).  Its image is v.e_b
    with v the vertex nearest M.rho for M = (a, b, m c, m d), which is
    m g^-1 y for g = diag(m, 1) (sl2z.nearest_vertex).
    """
    out = []
    for base in range(rank0):
        for y in upper.reps:
            M = (y.a, y.b, m * y.c, m * y.d)
            out.append({base: GroupRingElement.unit(nearest_vertex(M))})
    return out


def hecke_lift(gamma, n, m, resolution):
    """The coset data and the chain map of T_m, the double coset of
    diag(m, 1) = g.

    resolution must be restricted to gamma from a resolution over SL2(Z)
    (restrict_resolution).  The map is lifted once over S' = Gamma^0(m),
    which contains Gamma' for every gamma (HeckeDescriptor): its source
    is resolution.base truncated to degree n (sub_resolution) and
    restricted to S' (restrict_resolution), its target is resolution.base
    itself, with its SL2(Z)-level homotopy, and it is semilinear over
    s -> g^{-1} s g.  It sends the source generator over the vertex
    y.rho to the generator of the same orbit over the vertex nearest
    g^{-1} y.rho (sl2z.nearest_vertex), so each tree walk of its lift is
    short.  Restricted to Gamma', it is the Gamma'-semilinear lift the
    transfer reads (hecke_cochain): rank_n * psi(m) generator values,
    whatever the level.  Returns (desc, chain map).
    """
    if not isinstance(resolution, RestrictedResolution):
        raise FormatError("the Hecke chain map needs a resolution restricted "
                          "from SL2(Z) (restrict_resolution)")
    desc = gamma_prime_data(gamma, m)
    base, upper = resolution.base, desc.upper
    source = restrict_resolution(sub_resolution(base, [
        [(j, 1) for j in range(base.rank(k))] for k in range(n + 1)]),
        upper.group)
    return desc, EquivariantChainMap(source, base, desc.conjugate,
                                     _nearest_images(m, upper, base.rank(0)),
                                     degree_max=n)


def hecke_cochain(gamma, n, m, module, resolution):
    """T_m, the double coset of diag(m, 1) = g, on degree-n cochains,
    before cohomology.

    The image cochain evaluated on the generator e_b is
    sum_i M(t_i) M(g) c(f(t_i^{-1} e_b)) over the left coset
    representatives t_i of Gamma'.  It is assembled per pair of a coset t
    of Gamma in SL2(Z) and a t_i, and every generator e_b = rep(t).e_beta
    over t shares the pair's two checked lookups: t_i^{-1} rep(t) = s y_j
    with s in S' and y_j a representative of S' (desc.upper.lookup), and
    g^{-1} s g = gamma0 rep(t0) with gamma0 in Gamma
    (resolution.trans.lookup).  So f(t_i^{-1} e_b) is g^{-1} s g times the
    lift's value on y_j.e_beta (hecke_lift), with no tree walk per coset.
    A term (k, c) of that value moves to the coset ti = table(k)[t0] of
    the S/U coset permutations the resolution was restricted with
    (resolution.table), where rep(t0) k = gamma1 rep(ti) with gamma1 in
    Gamma (Shapiro's lemma), and the term's matrix is
    M(t_i g gamma0 gamma1).  Since t_i s = rep(t) y_j^{-1},

        t_i g gamma0 gamma1 = rep(t) (y_j^{-1} g k) rep(ti)^{-1},

    so the operator is T = D T~ D^{-1}, with D block diagonal with blocks
    M(rep(t)) and T~ holding at row (beta, t) and column (b2, ti) the sum
    of c M(y_j^{-1} g k) over the pairs and terms that reach it.  That
    middle factor depends on the term alone: it is formed once per term of
    the lift's value on each y_j, and no per-term group element is built.
    T~ is accumulated over the pairs, then each nonzero block X becomes
    L X R with L = M(rep(t)) and R = M(rep(ti))^{-1}, both read once per
    coset; a block whose L and R are the identity is copied as it is,
    which is every block in weight 2.  The product is read off packed
    integers: with beta = (1, 2^w, ..., 2^(w(r-1))), the rows of L X R
    packed in slots of w bits are L X (R beta), two matrix-vector
    products, and no slot overflows, since every entry is at most
    r^2 max|L| max|X| max|R| < 2^(w-1) in absolute value.  Returns the
    cochain, a SparseIntMatrix; the lift is freed on return.
    """
    desc, lift = hecke_lift(gamma, n, m, resolution)
    upper, trans, table = desc.upper, resolution.trans, resolution.table
    nt, npsi, r = len(trans), len(upper), module.rank
    ncols = resolution.rank(n)
    # terms[j]: per term (k, c) of the lift's value on y_j.e_beta at b2,
    # (row offset, column offset, coset permutation of k,
    # c M(y_j^{-1} g k) by columns); sizes[j] sums their largest |entries|
    terms, sizes = [], []
    for j, y in enumerate(upper.reps):
        yi = y.inverse()
        own = []
        for beta in range(resolution.base.rank(n)):
            for b2, gre in lift.value(n, beta * npsi + j).items():
                for k, c in gre.items():
                    M = module.action((m * yi.a * k.a + yi.b * k.c,
                                       m * yi.a * k.b + yi.b * k.d,
                                       m * yi.c * k.a + yi.d * k.c,
                                       m * yi.c * k.b + yi.d * k.d))
                    own.append((beta * nt, b2 * nt, table(k),
                                [c * x for col in zip(*M.data) for x in col]))
        terms.append(own)
        sizes.append(sum(max(map(abs, block)) for *_, block in own))
    twisted = {}  # row block * ncols + column block -> block of T~, by columns
    bound = 0     # at least every |entry| of T~
    inverses = [t.inverse() for t in desc.reps]
    for t, rep in enumerate(trans.reps):
        for inverse in inverses:
            j, s = upper.lookup(inverse * rep)
            t0 = trans.lookup(desc.conjugate(s))[0]
            bound += sizes[j]
            for row, col, tab, block in terms[j]:
                key = (row + t) * ncols + col + tab[t0]
                acc = twisted.get(key)
                twisted[key] = block if acc is None else [
                    a + x for a, x in zip(acc, block)]
    lefts = [module.action(rep).data for rep in trans.reps]
    rights = [module.action(rep.inverse()).data for rep in trans.reps]
    for blocks in lefts, rights:
        bound *= max(abs(x) for block in blocks for row in block for x in row)
    # bytes per slot: 2^(8 width - 1) > r^2 max|L| max|X| max|R|
    width = (r * r * bound).bit_length() // 8 + 1
    shift, cuts = 8 * width, range(0, r * width, width)
    half = 1 << (shift - 1)
    offset = sum(half << (shift * y) for y in range(r))
    identity = IntMatrix.identity(r).data
    rhos = [[sum(x << (shift * y) for y, x in enumerate(row)) for row in R]
            for R in rights]
    columns = [{} for _ in range(ncols * r)]
    for key, block in twisted.items():
        row, col = divmod(key, ncols)
        L, R = lefts[row % nt], rights[col % nt]
        if L == identity and R == identity:
            for y in range(r):
                entries = columns[col * r + y]
                for i, v in enumerate(block[y * r:y * r + r], row * r):
                    if v:
                        entries[i] = v
            continue
        # the rows of L X R, packed: L (X (R beta))
        rho = rhos[col % nt]
        packed = [sum(map(mul, block[x::r], rho)) for x in range(r)]
        cols = columns[col * r:col * r + r]
        for i, p in enumerate((sum(map(mul, Lrow, packed)) for Lrow in L),
                              row * r):
            # slot y holds entry (i, y) plus half, so no slot borrows
            buf = (p + offset).to_bytes(r * width, "little")
            for entries, c in zip(cols, cuts):
                v = int.from_bytes(buf[c:c + width], "little") - half
                if v:
                    entries[i] = v
    return SparseIntMatrix(len(columns), len(columns), columns)


class HeckeMatrix(namedtuple("HeckeMatrix", (
        "group", "m", "degree", "weight", "matrix", "orders", "basis",
        "cochain"))):
    """T_m, the double coset of diag(m, 1), on an adapted basis of
    H^n(Gamma, M).

    matrix acts on coordinates ordered with the free components first
    (orders entry 0) followed by the finite cyclic components (orders
    entry > 1, ascending); entries in torsion rows are canonical residues.
    basis[j] is an ambient cocycle vector representing the j-th basis
    class, so the presentation is reproducible run to run.  cochain is the
    sparse operator on all degree-n cochains, before descending to
    cohomology; it depends on the representatives of S' and the chain
    map's degree-0 images, while matrix does not.  The lift is semilinear
    over all of Gamma', so cochain does not depend on the coset
    representatives gamma_prime_data picks either.
    """
    __slots__ = ()

    def free_rank(self):
        return sum(1 for o in self.orders if o == 0)

    def free_block(self):
        """The operator on H^n modulo torsion (leading free coordinates)."""
        r = self.free_rank()
        data = [row[:r] for row in self.matrix.data[:r]]
        return IntMatrix(r, r, data)

    def compose(self, other):
        """Matrix of self applied after other, on the shared basis.

        Both operators must be presented on the same basis (same orders,
        from one shared resolution).  A plain matrix product is not
        canonical when torsion is present, so entries in torsion rows are
        re-reduced to canonical residues; two operators commute on
        cohomology exactly when compose agrees both ways.  Raises
        ShapeMismatch when the orders differ.
        """
        if self.orders != other.orders:
            raise ShapeMismatch("operators presented on different bases")
        prod = self.matrix * other.matrix
        data = [list(row) for row in prod.data]
        for r, o in enumerate(self.orders):
            if o > 1:
                data[r] = [x % o for x in data[r]]
        return IntMatrix(len(data), len(data), data)

    def descriptor(self):
        """JSON-friendly presentation data."""
        return {
            "group": str(self.group),
            "g": [self.m, 0, 0, 1],
            "degree": self.degree,
            "weight": self.weight,
            "orders": list(self.orders),
            "matrix": [list(row) for row in self.matrix.data],
            "basis": [list(v) for v in self.basis],
        }


class CohomologyPresentation:
    """H^n of a cochain complex on a cocycle lattice, for cochain operators.

    maps, a chaincx.Transfer (chaincx.transfer), runs from K, the truncation
    C^(n-1) -> C^n -> C^(n+1) of the cochain complex taken as a chain
    complex (CochainComplexZ.truncation), to the complex C' that H^n is
    presented on: the contraction of K, or K itself, whose transfer is
    the identity and gives the unreduced presentation.  One Smith form of
    delta'_n, the coboundary of C' out of degree n, gives a saturated
    basis Z of the degree-n cocycles of C' with a left inverse P, which
    maps a cocycle to its coordinates in Z; the coboundaries become the
    relations P delta'_(n-1), checked to be cocycles (Z P is the identity
    on span Z, so that is Z relations == delta'_(n-1)).  The quotient, a
    second Smith form, is built on first use.  Every operator presented
    on one complex shares them, so the matrices act on one basis.  An
    operator T on the cochains of C is presented as f T g on C', checked
    on the cocycles and coboundaries of C (check), and its basis vectors
    are lifted back to cocycles of C through g (present).  The contracted
    presentation gives the same group on a different basis, so only the
    outputs that do not depend on a basis may use it.
    """

    def __init__(self, maps):
        K, D = maps.source, maps.target
        self.delta_out, self.delta_in = K.boundary(1), K.boundary(2)
        self.f, self.g = maps.f[1], maps.g[1]
        self.Z, self.P = kernel_with_left_inverse(D.boundary(1))
        self.relations = self.P * D.boundary(2)
        if self.Z * self.relations != D.boundary(2):
            raise CompositionNonzero("coboundaries are not cocycles")

    @cached_property
    def quotient(self):
        return QuotientLattice(self.Z, self.relations)

    @cached_property
    def sparse_Z(self):
        return SparseIntMatrix.of(self.Z)

    def check(self, cochain):
        """Raise unless the cochain operator T maps every cocycle to a
        cocycle (CompositionNonzero) and every coboundary to a coboundary
        (NotInLattice); returns f T g, the operator on C'.

        The cocycles of C are g Z + delta_(n-1) C^(n-1), so the first
        check is delta_n T [g Z | delta_(n-1)] = 0.  A cocycle of C is a
        coboundary exactly when its image under f is one in C', whose
        coordinates P are then a relation.
        """
        moved = cochain * self.g
        bounded = cochain * self.delta_in
        if not ((self.delta_out * (moved * self.sparse_Z)).is_zero()
                and (self.delta_out * bounded).is_zero()):
            raise CompositionNonzero("image of a cocycle is not a cocycle")
        if not self.quotient.is_relation(self.P * (self.f * bounded)):
            raise NotInLattice("image of a coboundary is not a coboundary")
        return self.f * moved

    def present(self, cochain):
        """(matrix, orders, basis) of a cochain operator on H^n, checked
        first (check); basis[i] is a cocycle of C (matrix_on_quotient)."""
        matrix, orders, basis = matrix_on_quotient(
            self.check(cochain), self.quotient, lambda V: self.P * V)
        return matrix, orders, [self.g.apply(v) for v in basis]


def _presented(gamma, n, ms, module, resolution, contracted):
    """T_m on H^n for the m in ms, on the contracted or the unreduced
    CohomologyPresentation; the body of hecke_operators."""
    ms = list(ms)
    for m in ms:
        _check_index(m)
    if module is None:
        module = PolynomialModule(0)
    if resolution is None:
        resolution = restrict_resolution(sl2z_resolution(n + 1), gamma)
    if resolution.top_degree() < n + 1:
        raise DegreeOutOfRange(
            "resolution of top degree %d cannot present H^%d"
            % (resolution.top_degree(), n))
    presentation = None
    for m in ms:
        cochain = hecke_cochain(gamma, n, m, module, resolution)
        if presentation is None:
            K = hom_complex(resolution, module).truncation(n)
            presentation = CohomologyPresentation(
                transfer(K, contract(K) if contracted else K))
        matrix, orders, basis = presentation.present(cochain)
        yield HeckeMatrix(gamma, m, n, module.k + 2, matrix, orders,
                          basis, cochain)


def hecke_operators(gamma, n, ms, module=None, resolution=None):
    """The operators T_m on H^n(gamma, module), for the indices m in ms,
    T_m the double coset of diag(m, 1).

    module defaults to the trivial module (weight 2).  resolution, when
    given, must be restricted to gamma from a resolution over SL2(Z)
    (restrict_resolution), carry a contracting homotopy, and have top
    degree at least n + 1; passing the same resolution across calls keeps
    the cohomology basis identical, so returned matrices compose and
    compare directly.  Each operator is lifted to cochains
    (hecke_cochain), with d f = f d verified on every generator of its
    lift over S', and presented on one unreduced CohomologyPresentation,
    built after the first lift is freed, which checks it on cocycles and
    coboundaries.  The matrices and bases depend on the basis of the full
    cochain complex, which is why this route, --emit matrix and the
    cuspidal operators do not contract it; hecke_eigenvalues and
    hecke_charpolys do.  Yields one HeckeMatrix per index, in order, so a
    caller that keeps none of them holds one cochain operator at a time.
    Each m must be an int >= 1, and every m is checked before anything is
    built (FormatError otherwise).
    """
    return _presented(gamma, n, ms, module, resolution, contracted=False)


def hecke_operator(gamma, n, m, module=None, resolution=None):
    """Matrix of T_m, the double coset of diag(m, 1), on H^n(gamma, module)."""
    return next(hecke_operators(gamma, n, [m], module, resolution))


def matrix_on_quotient(cochain, quotient, coordinates):
    """Present a cochain-level operator on a quotient lattice it preserves.

    coordinates maps a matrix whose columns lie in the quotient's lattice
    to their coordinates in the lattice basis the quotient was built on,
    or to None when some column lies outside.  Rows and columns run over
    the nontrivial cyclic components with the free ones first and torsion
    after, the order every operator matrix in this module uses; entries in
    torsion rows are canonical residues.  Returns (matrix, orders, basis)
    where basis[i] is an ambient lift of the i-th presented generator.
    Raises NotInLattice if the operator moves the lattice out of itself.
    """
    gens = quotient.presented()
    lifts = quotient.basis.take_columns(gens)
    coords = coordinates(cochain * lifts)
    if coords is None:
        raise NotInLattice("operator moves the lattice out of itself")
    orders = tuple(quotient.orders[i] for i in gens)
    image = IntMatrix(len(gens), coords.rows,
                      [quotient.U.data[i] for i in gens]) * coords
    data = [[x % o for x in row] if o > 1 else row
            for row, o in zip(image.data, orders)]
    return (IntMatrix(len(gens), len(gens), data), orders,
            lifts.transpose().data)


class EigenvalueReport(namedtuple("EigenvalueReport",
                                  "p roots residual operator")):
    """Integer spectrum of one Hecke operator on H^n modulo torsion.

    roots lists the integer roots of the characteristic polynomial with
    multiplicity, ascending; residual is the monic cofactor without
    integer roots, as coefficients highest degree first ((1,) when the
    polynomial splits over Z).
    """
    __slots__ = ()


def hecke_eigenvalues(gamma, n, ps, module=None, resolution=None):
    """Eigenvalue reports of T_p on H^n(gamma, module), keyed by p in ps.

    The spectrum does not depend on a basis, so the operators are
    presented on C', the contraction of the truncation
    C^(n-1) -> C^n -> C^(n+1), as f T g through the transfer maps of the
    contraction (CohomologyPresentation): the Smith forms run on C'
    instead of the full cochains.  All of them share one resolution and
    presentation, so the underlying matrices act on the same basis, and
    each report's operator has its basis lifted to cocycles of the full
    complex.
    """
    ps = list(ps)
    # the reports keep every operator, and the presentation is released
    # before the characteristic polynomials are taken
    ops = list(_presented(gamma, n, ps, module, resolution, contracted=True))
    out = {}
    for p, op in zip(ps, ops):
        roots, residual = integer_roots(charpoly(op.free_block()))
        out[p] = EigenvalueReport(p, tuple(roots), tuple(residual), op)
    return out


def hecke_charpolys(gamma, n, ms, module=None, resolution=None):
    """Characteristic polynomials of T_m on H^n(gamma, module) modulo
    torsion, for the m in ms, in order, highest degree first.

    Presented on the contraction like hecke_eigenvalues; torsion has no
    spectrum over Q, so only the free block counts.
    """
    for op in _presented(gamma, n, ms, module, resolution, contracted=True):
        yield charpoly(op.free_block())
