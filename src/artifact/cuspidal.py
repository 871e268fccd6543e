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
is cut out at the cocycle-lattice level (the preimage of the boundary
coboundaries), so its abelian invariants are those of a genuine
subgroup of H^n; no ill-defined operations on invariant lists are
involved.

Operators act on the unreduced ambient cochains, so ambient_kernel
builds the kernel lattice in the ambient basis from the same assembly:
the boundary inclusion lifts to an equivariant chain map through the
SL2(Z)-level contracting homotopy, its values are refolded into the
restricted ambient basis once, where the restriction of cochains reads
them, and the same lattice construction runs on the full complexes.
Its invariants are checked against the reduced ones.
cuspidal_hecke_operators presents T_m on the cuspidal quotient of that
lattice.  The cuspidal command runs cuspidal_cohomology alone, which
builds nothing in the ambient basis.
"""

from collections import namedtuple

from .chaincx import contract, verify_complex
from .coeffmod import (CochainComplexZ, PolynomialModule, block_matrix,
                       cohomology, hom_complex)
from .errors import (CompositionNonzero, DegreeOutOfRange, EliminationError,
                     NotInLattice)
from .exactlin import (IntMatrix, QuotientLattice, SparseIntMatrix,
                       cokernel_invariants, column_span_basis, integer_kernel,
                       solve_echelon)
from .hecke import (CohomologyPresentation, EquivariantChainMap, HeckeMatrix,
                    _check_index, hecke_cochain, matrix_on_quotient)
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


def _kernel_of_restriction(C, CB, rho, n):
    """H^n of C, of CB and of the kernel of the restriction rho: C -> CB.

    Returns the CohomologyPresentation of C, the invariants (of C, of CB,
    of the kernel), the kernel lattice basis in column echelon form, and
    the coboundaries of C in its coordinates.  Raises NotInLattice when
    the coboundaries do not lie in the kernel lattice.
    """
    # invariants are taken in the coordinates of the cocycle lattice Z,
    # where the ambient coboundaries become the relations
    pres = CohomologyPresentation(C, n)
    Z = pres.Z
    # v = Z u lies in the kernel lattice iff rho v is a boundary
    # coboundary, i.e. (u, -w) solves the stacked system below; ambient
    # coboundaries always qualify, so the lattice presents the kernel
    K = integer_kernel((rho * Z).hstack(CB.delta(n - 1)))
    U = IntMatrix(Z.cols, K.cols, [list(K.data[i]) for i in range(Z.cols)])
    kernel_basis = column_span_basis(Z * U)
    relations = solve_echelon(kernel_basis, pres.delta_in)
    if relations is None:
        raise NotInLattice(
            "relations not in the span of the kernel lattice")
    invariants = (cokernel_invariants(pres.relations), cohomology(CB, n),
                  cokernel_invariants(relations))
    return pres, invariants, kernel_basis, relations


def _filtered_reduction(CA, on_boundary, n):
    """H^n of CA, of its boundary and of the kernel of restriction, read
    off the filtered reduction of CA.

    on_boundary[k][c] tells whether degree-k coordinate c of CA lies on a
    horocycle generator.  CA is contracted with those sides, so the
    reduced coordinates off the boundary still span a subcomplex K', the
    boundary block of each reduced coboundary presents the quotient, and
    restriction is the projection onto the boundary coordinates.  Raises
    CompositionNonzero when the reduced coboundaries do not compose to
    zero, or when one takes a coordinate of K' out of K' (then the
    projection is no cochain map).
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
    # the projections onto the boundary coordinates, numbered in order
    proj = []
    for sides in kept:
        at = {g: i for i, g in enumerate(g for g, s in enumerate(sides) if s)}
        proj.append(SparseIntMatrix(len(at), len(sides),
                                    [{at[g]: 1} if g in at else {}
                                     for g in range(len(sides))]))
    CB = CochainComplexZ([p.rows for p in proj],
                         [proj[k + 1] * d * proj[k].transpose()
                          for k, d in enumerate(C.deltas)])
    if any(CB.deltas[k] * proj[k] != proj[k + 1] * d
           for k, d in enumerate(C.deltas)):
        raise CompositionNonzero(
            "restriction does not commute with the coboundaries")
    return _kernel_of_restriction(C, CB, proj[n], n)[1]


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
    onto the boundary coordinates, and the degree-n cocycle lattice is
    intersected with the preimage of the boundary coboundaries.  The
    reduced coboundaries are checked to compose to zero and to keep the
    coordinates off the boundary among themselves, and the coboundaries
    to be cocycles in the kernel lattice.  Nothing in the ambient basis
    is built (ambient_kernel).
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
    CohomologyPresentation of the ambient H^n.
    """
    __slots__ = ()


def ambient_kernel(gamma, n, module=None):
    """The kernel lattice of H^n(gamma, module) -> H^n(boundary) in the
    ambient basis, which operators on the unreduced cochains act on.

    Restricts the horocycle generators of one assembly to the group,
    lifts their inclusion to a chain map through the SL2(Z)-level
    contracting homotopy, pulls cochains back along it in degrees n and
    n + 1, and cuts the kernel out of the full ambient complex.  The chain
    map is verified on all generators, the restriction is checked to
    commute with the coboundaries (CompositionNonzero), and the
    invariants are checked against those of the filtered reduction of the
    same assembly (EliminationError).
    """
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
    pres, invariants, kernel_basis, relations = _kernel_of_restriction(
        CA, CB, rho, n)
    if invariants != reduced:
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
