"""Cuspidal cohomology as the kernel of restriction to the boundary.

The compactified quotient of the upper half plane has a boundary made of
horocycle circles, one per cusp.  A cochain on the whole space restricts
to a cochain on that boundary, and the classes killed by restriction are
the interior ones; for congruence subgroups of SL2(Z) the interior part
of H^n is exactly the cuspidal part, which is how this module labels it.

Everything happens on free resolutions: the compactified complex
assembles to one, and its generators over the horocycle boundary are
the boundary's (Wall's assembly of the subcomplex).  Both restrict to
the subgroup, and the boundary inclusion lifts to an equivariant chain
map through the SL2(Z)-level contracting homotopy of the ambient
assembly; its values are refolded into the restricted ambient basis
once, where the restriction of cochains reads them.  The kernel is
cut out at the cocycle-lattice level (the preimage of the boundary
coboundaries), so its abelian invariants are those of a genuine subgroup
of H^n; no ill-defined operations on invariant lists are involved.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .coeffmod import PolynomialModule, block_matrix, cohomology, hom_complex
from .errors import CompositionNonzero, DegreeOutOfRange, NotInLattice
from .exactlin import (AbelianInvariants, IntMatrix, QuotientLattice,
                       SparseIntMatrix, cokernel_invariants, column_span_basis,
                       integer_kernel, solve_echelon)
from .hecke import (CohomologyPresentation, EquivariantChainMap, HeckeMatrix,
                    hecke_cochain, matrix_on_quotient)
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


@dataclass
class CuspidalResult:
    """Ambient, boundary, and cuspidal cohomology of one degree.

    restriction is the sparse cochain-level matrix of the pullback along
    the boundary inclusion (rows: boundary cochain coordinates, columns:
    ambient ones), and restriction_next the same one degree up, so the
    chain-map identity delta_boundary . restriction = restriction_next .
    delta_ambient can be checked as a matrix identity.  kernel_basis
    columns, in column echelon form, are ambient cocycles spanning the
    preimage lattice of the boundary coboundaries; cuspidal is that
    lattice modulo the ambient coboundaries, which kernel_relations
    writes in the coordinates of kernel_basis.  The complexes, the
    ambient resolution and the presentation of the ambient H^n ride along
    so follow-up computations (Hecke action on the kernel, for one) stay
    in the same coordinates.
    """

    group: object
    degree: int
    weight: int
    ambient: AbelianInvariants
    boundary: AbelianInvariants
    cuspidal: AbelianInvariants
    restriction: SparseIntMatrix
    restriction_next: SparseIntMatrix = field(repr=False)
    kernel_basis: IntMatrix = field(repr=False)
    ambient_complex: object = field(repr=False)
    boundary_complex: object = field(repr=False)
    ambient_resolution: object = field(repr=False)
    module: object = field(repr=False)
    kernel_relations: IntMatrix = field(repr=False)
    ambient_presentation: CohomologyPresentation = field(repr=False)

    @cached_property
    def presentation(self):
        """The cuspidal quotient on kernel_basis, shared by all operators."""
        return QuotientLattice(self.kernel_basis, self.kernel_relations)

    @cached_property
    def boundary_coboundaries(self):
        """Echelon basis of the degree-n boundary coboundaries, which every
        operator's image of the kernel must restrict into."""
        return column_span_basis(self.boundary_complex.delta(self.degree - 1))

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

    Assembles the resolution of the compactified complex once, takes its
    generators over the horocycle boundary as the boundary's resolution,
    restricts both to gamma, lifts the inclusion to a chain map through
    the contracting homotopy of the SL2(Z)-level assembly, and
    intersects the degree-n cocycle lattice with the preimage of the
    boundary coboundaries.  The chain map is verified on all generators,
    the cochain restriction is checked to commute with the coboundaries,
    and the ambient coboundaries are checked to be cocycles.
    """
    if module is None:
        module = PolynomialModule(0)
    if n < 0:
        raise DegreeOutOfRange("degree must be >= 0, got %d" % n)
    top = n + 1
    X = borel_serre_complex()
    W = wall_resolution(X, top)
    horocycles = [[(j, 1) for j, (p, i) in enumerate(labels)
                   if i in X.boundary_orbits.get(p, ())]
                  for labels in W.labels]
    ambient = restrict_resolution(W, gamma)
    boundary = restrict_resolution(sub_resolution(W, horocycles), gamma)
    incl = EquivariantChainMap(
        boundary, W, lambda g: g,
        [W.section(boundary.aug({j: GroupRingElement.unit(I)}))
         for j in range(boundary.rank(0))], degree_max=top)
    CA = hom_complex(ambient, module)
    CB = hom_complex(boundary, module)
    rho = _pullback_matrix(incl, n, ambient, module)
    rho_next = _pullback_matrix(incl, n + 1, ambient, module)
    if CB.deltas[n] * rho != rho_next * CA.deltas[n]:
        raise CompositionNonzero(
            "restriction does not commute with the coboundaries")

    din_b = CB.delta(n - 1)
    # invariants are taken in the coordinates of the cocycle lattice Z,
    # where the ambient coboundaries become the relations
    pres = CohomologyPresentation(CA, n)
    Z = pres.Z
    ambient_inv = cokernel_invariants(pres.relations)
    boundary_inv = cohomology(CB, n)

    # v = Z u lies in the kernel lattice iff rho v is a boundary
    # coboundary, i.e. (u, -w) solves the stacked system below; ambient
    # coboundaries always qualify, so the lattice presents the kernel
    stacked = (rho * Z).hstack(din_b)
    W = integer_kernel(stacked)
    U = IntMatrix(Z.cols, W.cols, [list(W.data[i]) for i in range(Z.cols)])
    kernel_basis = column_span_basis(Z * U)
    in_kernel = solve_echelon(kernel_basis, pres.delta_in)
    if in_kernel is None:
        raise NotInLattice(
            "relations not in the span of the kernel lattice")
    kernel_inv = cokernel_invariants(in_kernel)
    return CuspidalResult(gamma, n, module.k + 2, ambient_inv, boundary_inv,
                          kernel_inv, rho, rho_next, kernel_basis, CA, CB,
                          ambient, module, in_kernel, pres)


def cuspidal_hecke_matrix(result, g):
    """A Hecke operator pushed down to the cuspidal quotient.

    Lifts the operator to cochains of the ambient resolution the result
    was computed with, checks it on the ambient cocycles and coboundaries
    (the result's ambient presentation), checks that images of kernel
    cocycles restrict to boundary coboundaries, and presents the induced
    map on the cuspidal invariants in the same free-first coordinates the
    full cohomology operators use.  The preservation check and the
    kernel_basis coordinates of images are both solve_echelon triangular
    solves.
    """
    n = result.degree
    desc, cochain = hecke_cochain(result.group, n, g, result.module,
                                  result.ambient_resolution)
    result.ambient_presentation.check(cochain)
    moved = result.restriction * (cochain * result.kernel_basis)
    if solve_echelon(result.boundary_coboundaries, moved) is None:
        raise NotInLattice("operator does not preserve the cuspidal kernel")
    matrix, orders, basis = matrix_on_quotient(
        cochain, result.presentation,
        lambda V: solve_echelon(result.kernel_basis, V))
    return HeckeMatrix(result.group, desc.g, n, result.weight, matrix, orders,
                       basis, cochain)
