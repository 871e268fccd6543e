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
in Gamma, so the term's Gamma-element is gamma0 gamma1 and no term is
looked up.  The operator descends to an
adapted basis of the cohomology lattice through a
CohomologyPresentation, built once per cochain complex and shared by
every operator presented on it (hecke_operators).

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
    phi(s) = g^{-1} s g = gamma0 rep(t0) with gamma0 in Gamma
    (resolution.trans.lookup).  So f(t_i^{-1} e_b) is phi(s) times the
    lift's value on y_j.e_beta (hecke_lift), with no tree walk per coset.
    A term (k, c) of that value moves to the coset ti = table(k)[t0] of
    the S/U coset permutations the resolution was restricted with
    (resolution.table): rep(t0) k = gamma1 rep(ti), and gamma1 lies in
    Gamma by their checked relations, as in restrict_resolution, so the
    term's Gamma-element is gamma0 gamma1 (Shapiro's lemma, read per
    term).  The block at row (beta, t) and column (b2, ti) is
    A sum c M(gamma1), with A = M(t_i) M(g) M(gamma0) once per pair and
    M(gamma1) once per (t0, k), and it is added straight into the sparse
    columns.  The pairs are grouped by t0, so the M(gamma1) of one t0 are
    held at a time.  Returns the cochain, a SparseIntMatrix; the
    lift is freed on return.
    """
    desc, lift = hecke_lift(gamma, n, m, resolution)
    upper, trans, table = desc.upper, resolution.trans, resolution.table
    nt, npsi, r = len(trans), len(upper), module.rank
    inverses = [rep.inverse() for rep in trans.reps]
    lefts = [(module.action(t) * module.action((m, 0, 0, 1)), t.inverse())
             for t in desc.reps]
    zero = [0] * (r * r)
    columns = [{} for _ in range(resolution.rank(n) * r)]
    pairs = {}  # t0 -> the pairs (t, j, left, gamma0) that reach it
    for t, rep in enumerate(trans.reps):
        for left, inverse in lefts:
            j, s = upper.lookup(inverse * rep)
            t0, gamma0 = trans.lookup(desc.conjugate(s))
            pairs.setdefault(t0, []).append((t, j, left, gamma0))
    for t0, group in pairs.items():
        moved = {}  # k -> (ti, the columns of M(gamma1), concatenated)
        for t, j, left, gamma0 in group:
            # (row block, column block) -> sum c M(gamma1), by columns
            sums = {}
            for beta in range(resolution.base.rank(n)):
                for b2, gre in lift.value(n, beta * npsi + j).items():
                    for k, c in gre.items():
                        hit = moved.get(k)
                        if hit is None:
                            ti = table(k)[t0]
                            M = module.action(trans.rep(t0) * k * inverses[ti])
                            hit = moved[k] = (
                                ti, [x for col in zip(*M.data) for x in col])
                        key = beta * nt + t, b2 * nt + hit[0]
                        acc = sums.get(key, zero)
                        sums[key] = [a + c * x for a, x in zip(acc, hit[1])]
            A = (left * module.action(gamma0)).data
            for (b, col), acc in sums.items():
                for y in range(r):
                    # column y of the block is A times column y of the sum
                    scol = acc[y * r:y * r + r]
                    entries = columns[col * r + y]
                    for row, arow in enumerate(A, b * r):
                        v = sum(map(mul, arow, scol))
                        if v:
                            v += entries.get(row, 0)
                            if v:
                                entries[row] = v
                            else:
                                del entries[row]
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
    """H^n of a cochain complex on its cocycle lattice, for cochain operators.

    One Smith form of delta_n gives a saturated basis Z of the degree-n
    cocycles with a left inverse P, which maps a cocycle to its
    coordinates in Z; the coboundaries become the relations P delta_{n-1},
    checked to be cocycles (Z P is the identity on span Z, so that is
    Z relations == delta_{n-1}).  The quotient, a second Smith form, is
    built on first use.  Every operator presented on one complex shares
    them, so the matrices act on one basis.  The cocycle check of each
    operator (check) reads a sparse copy of Z, also built on first use.
    """

    def __init__(self, C, n):
        self.delta_out = C.delta(n)
        self.delta_in = C.delta(n - 1)
        self.Z, self.P = kernel_with_left_inverse(self.delta_out)
        self.relations = self.P * self.delta_in
        if self.Z * self.relations != self.delta_in:
            raise CompositionNonzero("coboundaries are not cocycles")

    @cached_property
    def quotient(self):
        return QuotientLattice(self.Z, self.relations)

    @cached_property
    def sparse_Z(self):
        return SparseIntMatrix.of(self.Z)

    def check(self, cochain):
        """Raise unless the cochain operator maps every cocycle to a cocycle
        (CompositionNonzero) and every coboundary to a coboundary
        (NotInLattice)."""
        if not (self.delta_out * (cochain * self.sparse_Z)).is_zero():
            raise CompositionNonzero("image of a cocycle is not a cocycle")
        # an image cocycle is a coboundary exactly when its coordinates
        # are a relation
        if not self.quotient.is_relation(self.P * (cochain * self.delta_in)):
            raise NotInLattice("image of a coboundary is not a coboundary")


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
    lift over S', and presented on one CohomologyPresentation, built
    after the first lift is freed, which checks it on cocycles and
    coboundaries.  Yields one HeckeMatrix per index, in order, so a
    caller that keeps none of them holds one cochain operator at a time.
    Each m must be an int >= 1, and every m is checked before anything is
    built (FormatError otherwise).
    """
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
            presentation = CohomologyPresentation(
                hom_complex(resolution, module), n)
        presentation.check(cochain)
        matrix, orders, basis = matrix_on_quotient(
            cochain, presentation.quotient, lambda V: presentation.P * V)
        yield HeckeMatrix(gamma, m, n, module.k + 2, matrix, orders,
                          basis, cochain)


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

    All operators are presented on one shared resolution and presentation
    (hecke_operators), so the underlying matrices act on the same basis.
    """
    ps = list(ps)
    # the reports keep every operator, and the presentation is released
    # before the characteristic polynomials are taken
    ops = list(hecke_operators(gamma, n, ps, module, resolution))
    out = {}
    for p, op in zip(ps, ops):
        roots, residual = integer_roots(charpoly(op.free_block()))
        out[p] = EigenvalueReport(p, tuple(roots), tuple(residual), op)
    return out

