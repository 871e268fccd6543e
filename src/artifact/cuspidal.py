"""Cuspidal cohomology as the kernel of restriction to the boundary.

The compactified quotient of the upper half plane has a boundary made of
horocycle circles, one per cusp.  A cochain on the whole space restricts
to a cochain on that boundary, and the classes killed by restriction are
the interior ones; for congruence subgroups of SL2(Z) the interior part
of H^n is exactly the cuspidal part, which is how this module labels it.

Everything happens on free resolutions: the compactified complex
assembles to one, and its generators over the horocycle boundary span a
subresolution, the boundary's (Wall's assembly of the subcomplex).  So
the ambient cochains vanishing on the horocycle generators form a
subcomplex K, the boundary cochains are the quotient by K, and
restriction to the boundary is the coordinate projection onto the
horocycle coordinates.  cuspidal_cohomology contracts the ambient
cochains by unit collapses whose two cells lie on the same side of K
(chaincx.contract with sides).  Each is a filtered chain homotopy
equivalence (the basic perturbation lemma), so the reduced complex, its
horocycle block and the projection between them give the ambient,
boundary and cuspidal invariants on a much smaller complex.  The kernel
of restriction is read off the long exact sequence of the pair, by two
Smith forms without transforms, so its abelian invariants are those of
a genuine subgroup of H^n; no operations on invariant lists are involved.

Operators act on the unreduced ambient cochains, so ambient_kernel
builds the kernel lattice in the ambient basis from the same assembly:
the boundary inclusion lifts to an equivariant chain map through the
SL2(Z)-level contracting homotopy, its values are refolded into the
restricted ambient basis once, where the restriction of cochains reads
them, and the kernel lattice is cut out of the full complexes.  Its
invariants are checked against the reduced ones.
cuspidal_hecke_operators presents T_m on the cuspidal quotient of that
lattice.  The cuspidal command runs cuspidal_cohomology alone, which
builds nothing in the ambient basis; only ambient_kernel and
cuspidal_hecke_operators import the hecke module.
"""

from collections import namedtuple

from .chaincx import contract, transfer, verify_complex
from .coeffmod import (CochainComplexZ, PolynomialModule, block_matrix,
                       cohomology, hom_complex)
from .errors import (CompositionNonzero, DegreeOutOfRange, EliminationError,
                     NotInLattice)
from .exactlin import (IntMatrix, QuotientLattice, SparseIntMatrix,
                       cokernel_invariants, column_span_basis,
                       homology_of_pair, integer_kernel, solve_echelon)
from .resolutions import (GroupRingElement, borel_serre_complex,
                          restrict_resolution, sub_resolution, wall_resolution)
from .sl2z import I


def _pullback_matrix(chain_map, k, ambient, module):
    """Matrix of the cochain pullback c -> c composed with the chain map.

    The chain map's values are chains of ambient.base, each refolded
    once into the restricted resolution ambient.  Rows are source-side
    degree-k cochain coordinates, columns ambient ones; the (j, b) block
    is the module matrix of the group ring entry of the refolded value
    at generator j on ambient generator b.
    """
    nsrc = chain_map.source.rank(k)
    return block_matrix(module.rank, nsrc, ambient.rank(k),
                        ((j, b, module.ring_action(gre)) for j in range(nsrc)
                         for b, gre in ambient.refold(
                             chain_map.value(k, j)).items()))


def _projection(sides, on):
    """The projection onto the coordinates g with sides[g] == on, which
    keep their order; its transpose is the inclusion."""
    at = {g: i for i, g in enumerate(g for g, s in enumerate(sides) if s == on)}
    return SparseIntMatrix(len(at), len(sides), [{at[g]: 1} if g in at else {}
                                                 for g in range(len(sides))])


def _filtered_reduction(CA, on_boundary, n):
    """H^n of CA, of its boundary and of the kernel of restriction, read
    off the filtered reduction of CA.

    on_boundary[k][c] tells whether degree-k coordinate c of CA lies on a
    horocycle generator.  CA is contracted with those sides, so the
    reduced coordinates off the boundary still span a subcomplex K', the
    boundary block of each reduced coboundary presents the quotient CB,
    and restriction rho is the projection onto the boundary coordinates.
    A class with rho z = delta w is that of z - delta(w lifted by zeros),
    a cocycle of K', so ker rho* = Z^n(K') / delta(K'^(n-1) + the
    zero-lifts of Z^(n-1)(CB)).  Raises CompositionNonzero when the
    reduced coboundaries, or delta on K' and those relations, do not
    compose to zero, or when a coboundary takes a coordinate of K' out of
    K' (then the projection is no cochain map).
    """
    # cochain degree k is chain degree top - k
    side = on_boundary[::-1]
    D = contract(CA.as_chain_complex(), side=side)
    verify_complex(D)
    gone = [set() for _ in side]
    for step in D.trace:
        gone[step.degree].add(step.source)
        gone[step.degree - 1].add(step.target)
    kept = [[s for g, s in enumerate(sides) if g not in out]
            for sides, out in zip(side, gone)][::-1]
    C = CochainComplexZ(D.ranks[::-1], D.diffs[::-1])
    proj = [_projection(sides, True) for sides in kept]
    CB = CochainComplexZ([p.rows for p in proj],
                         [proj[k + 1] * d * proj[k].transpose()
                          for k, d in enumerate(C.deltas)])
    if any(CB.deltas[k] * proj[k] != proj[k + 1] * d
           for k, d in enumerate(C.deltas)):
        raise CompositionNonzero(
            "restriction does not commute with the coboundaries")
    # K'^(n-1) beside the zero-lifts of a basis of Z^(n-1)(CB), none for n = 0
    below = kept[n - 1] if n else []
    lifts = _projection(below, True).transpose() * SparseIntMatrix.of(
        integer_kernel(CB.delta(n - 1)))
    spans = _projection(below, False).transpose().columns + lifts.columns
    interior = _projection(kept[n], False)
    d_in = interior * C.delta(n - 1) * SparseIntMatrix(len(below), len(spans),
                                                       spans)
    return (cohomology(C, n), cohomology(CB, n),
            homology_of_pair(C.deltas[n] * interior.transpose(), d_in))


def _assemble(gamma, n, module):
    """One assembly for both routes: the Wall assembly W of the
    compactified complex up to degree n + 1, its horocycle generators per
    degree, W restricted to gamma, its cochains CA with the module, and
    per degree whether each coordinate of CA lies on a horocycle
    generator.  Raises DegreeOutOfRange for n < 0."""
    if n < 0:
        raise DegreeOutOfRange("degree must be >= 0, got %d" % n)
    X = borel_serre_complex()
    W = wall_resolution(X, n + 1)
    horocycles = [[(j, 1) for j, (p, i) in enumerate(labels)
                   if i in X.boundary_orbits.get(p, ())]
                  for labels in W.labels]
    ambient = restrict_resolution(W, gamma)
    CA = hom_complex(ambient, module)
    # coordinate (b * nt + t) * m + i lies on base generator b
    width = ambient.rank(0) // W.rank(0) * module.rank
    on_boundary = []
    for k, keep in enumerate(horocycles):
        marked = {j for j, _ in keep}
        on_boundary.append([b in marked for b in range(W.rank(k))
                            for _ in range(width)])
    return W, horocycles, ambient, CA, on_boundary


class CuspidalResult(namedtuple("CuspidalResult", (
        "group", "degree", "weight", "ambient", "boundary", "cuspidal"))):
    """Ambient, boundary, and cuspidal cohomology of one degree, as
    abelian invariants of the filtered reduction."""
    __slots__ = ()

    def descriptor(self):
        """JSON-friendly summary (invariants as strings)."""
        return {
            "group": str(self.group),
            "degree": self.degree,
            "weight": self.weight,
            "ambient": str(self.ambient),
            "boundary": str(self.boundary),
            "cuspidal": str(self.cuspidal),
            "cuspidal_rank": self.cuspidal.free_rank,
        }


def cuspidal_cohomology(gamma, n, module=None):
    """Cuspidal cohomology of gamma in degree n with the given module.

    Assembles the resolution of the compactified complex once, restricts
    it to gamma and takes its cochains, marks each coordinate by whether
    its generator lies over the horocycle boundary, and contracts with
    those sides.  On the reduced complex, restriction is the projection
    onto the boundary coordinates, and the long exact sequence of the
    pair gives its kernel.  The reduced coboundaries are checked to
    compose to zero and to keep the coordinates off the boundary among
    themselves, and the kernel's relations to be cocycles.  Nothing in
    the ambient basis is built (ambient_kernel).
    """
    if module is None:
        module = PolynomialModule(0)
    _, _, _, CA, on_boundary = _assemble(gamma, n, module)
    return CuspidalResult(gamma, n, module.k + 2,
                          *_filtered_reduction(CA, on_boundary, n))


class AmbientKernel(namedtuple("AmbientKernel", (
        "resolution", "complex", "restriction", "restriction_next",
        "boundary_complex", "kernel_basis", "kernel_relations",
        "presentation"))):
    """The kernel of restriction to the boundary in the ambient basis.

    resolution is the ambient assembly restricted to the group and
    complex its cochains.  restriction is the sparse cochain-level matrix
    of the pullback along the boundary inclusion (rows: boundary cochain
    coordinates, columns: ambient ones), and restriction_next the same
    one degree up, so the chain-map identity delta_boundary . restriction
    = restriction_next . delta_ambient is a matrix identity;
    boundary_complex is the boundary's cochain complex.  kernel_basis
    columns, in column echelon form, are ambient cocycles spanning the
    preimage lattice of the boundary coboundaries; the cuspidal part is
    that lattice modulo the ambient coboundaries, which kernel_relations
    writes in the coordinates of kernel_basis.  presentation is the
    CohomologyPresentation of the ambient H^n on the ambient cochains
    themselves (the identity transfer), whose basis kernel_basis uses.
    """
    __slots__ = ()


def ambient_kernel(gamma, n, module=None):
    """The kernel lattice of H^n(gamma, module) -> H^n(boundary) in the
    ambient basis, which operators on the unreduced cochains act on.

    Restricts the horocycle generators of one assembly to the group,
    lifts their inclusion to a chain map through the SL2(Z)-level
    contracting homotopy, pulls cochains back along it in degrees n and
    n + 1, and cuts the kernel lattice out of the full ambient complex.
    The chain map is verified on all generators, the restriction is
    checked to commute with the coboundaries (CompositionNonzero), the
    coboundaries to lie in the lattice (NotInLattice), and the invariants
    against those of the filtered reduction (EliminationError).
    """
    from .hecke import CohomologyPresentation, EquivariantChainMap
    if module is None:
        module = PolynomialModule(0)
    W, horocycles, ambient, CA, on_boundary = _assemble(gamma, n, module)
    reduced = _filtered_reduction(CA, on_boundary, n)
    boundary = restrict_resolution(sub_resolution(W, horocycles), gamma)
    incl = EquivariantChainMap(
        boundary, W, lambda g: g,
        [W.section(boundary.aug({j: GroupRingElement.unit(I)}))
         for j in range(boundary.rank(0))], degree_max=n + 1)
    CB = hom_complex(boundary, module)
    rho, rho_next = (_pullback_matrix(incl, k, ambient, module)
                     for k in (n, n + 1))
    if CB.deltas[n] * rho != rho_next * CA.deltas[n]:
        raise CompositionNonzero(
            "restriction does not commute with the coboundaries")
    # invariants are taken in the coordinates of the cocycle lattice Z,
    # where the ambient coboundaries become the relations
    K = CA.truncation(n)
    pres = CohomologyPresentation(transfer(K, K))
    Z = pres.Z
    # v = Z u lies in the kernel lattice iff rho v is a boundary
    # coboundary, i.e. (u, -w) is in the kernel of [rho Z | delta_B];
    # ambient coboundaries always qualify, so the lattice presents the kernel
    stacked = SparseIntMatrix.of(rho * Z).columns + CB.delta(n - 1).columns
    K = integer_kernel(SparseIntMatrix(rho.rows, len(stacked), stacked))
    U = IntMatrix(Z.cols, K.cols, [list(K.data[i]) for i in range(Z.cols)])
    kernel_basis = column_span_basis(Z * U)
    relations = solve_echelon(kernel_basis, pres.delta_in)
    if relations is None:
        raise NotInLattice(
            "relations not in the span of the kernel lattice")
    if (cokernel_invariants(pres.relations), cohomology(CB, n),
            cokernel_invariants(relations)) != reduced:
        raise EliminationError("the ambient complex and its filtered "
                               "reduction give different invariants")
    return AmbientKernel(ambient, CA, rho, rho_next, CB, kernel_basis,
                         relations, pres)


def cuspidal_hecke_operators(gamma, n, ms, module=None):
    """The operators T_m, the double coset of diag(m, 1), on the cuspidal
    quotient of H^n(gamma, module), for the indices m in ms.

    Every m is checked first, as hecke_operators checks it (FormatError),
    so a bad index fails before anything is assembled.  Then one
    ambient_kernel, one echelon basis of the boundary coboundaries and
    one cuspidal QuotientLattice serve every operator.  Each is lifted to
    the ambient cochains (hecke_cochain), checked on the ambient cocycles
    and coboundaries, and its images of kernel cocycles are checked to
    restrict to boundary coboundaries (NotInLattice); both that check and
    the kernel_basis coordinates of the images are solve_echelon
    triangular solves.  Yields one HeckeMatrix per index, in order, in the
    free-first coordinates the full cohomology operators use.
    """
    from .hecke import (HeckeMatrix, _check_index, hecke_cochain,
                        matrix_on_quotient)
    ms = list(ms)
    for m in ms:
        _check_index(m)
    if module is None:
        module = PolynomialModule(0)
    a = ambient_kernel(gamma, n, module)
    boundary_coboundaries = column_span_basis(a.boundary_complex.delta(n - 1))
    quotient = QuotientLattice(a.kernel_basis, a.kernel_relations)
    for m in ms:
        cochain = hecke_cochain(gamma, n, m, module, a.resolution)
        a.presentation.check(cochain)
        moved = a.restriction * (cochain * a.kernel_basis)
        if solve_echelon(boundary_coboundaries, moved) is None:
            raise NotInLattice("operator does not preserve the cuspidal kernel")
        matrix, orders, basis = matrix_on_quotient(
            cochain, quotient, lambda V: solve_echelon(a.kernel_basis, V))
        yield HeckeMatrix(gamma, m, n, module.k + 2, matrix, orders, basis,
                          cochain)
