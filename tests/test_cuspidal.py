"""Cuspidal cohomology oracles.

The cuspidal part is the kernel of restriction to the boundary circles of
the compactified quotient.  For weight 2 its free rank is twice the genus
of the modular curve, and the classical genus and cusp counts for small
levels are frozen here as oracles; in weights 2 and 4 both free ranks are
swept against the closed-form Eichler-Shimura counts of modforms_oracle.
Hecke operators pushed down to the kernel must reproduce newform
eigenvalue data: scalar a_p at level 11 in weight 2, and the squared
quadratic charpolys of the weight 4 pair whose eigenvalues live in
Z[sqrt(3)]; at squarefree levels the ambient charpoly must be the
cuspidal one times the Eisenstein factor.  The invariants come from the
boundary-filtered reduction, and they are compared with those the kernel
lattice in the ambient basis (ambient_kernel) presents, over Gamma0,
Gamma1 and Gamma(N).
"""

import copy
import functools
import hashlib
import json
from pathlib import Path

import pytest

from artifact import cuspidal
from artifact.chaincx import contract
from artifact.cli import main
from artifact.coeffmod import PolynomialModule, block_matrix, cohomology
from artifact.congruence import CongruenceSubgroup
from artifact.cuspidal import (ambient_kernel, cuspidal_cohomology,
                               cuspidal_hecke_operators)
from artifact.errors import (CompositionNonzero, EliminationError,
                             FormatError, NotInLattice)
from artifact.exactlin import (AbelianInvariants, IntMatrix, charpoly,
                               cokernel_invariants, column_span_basis,
                               integer_kernel, integer_roots, solve_echelon)
from artifact.hecke import EquivariantChainMap, hecke_operators
from artifact.resolutions import (GroupRingElement, RestrictedResolution,
                                  restrict_resolution, sub_resolution,
                                  wall_resolution)
from artifact.sl2z import I
from genhelpers import rank_drop_mod
import modforms_oracle
from modforms_oracle import dim_cusp_forms, h1_free_rank
from test_hecke import transform_snfs

FROZEN = Path(__file__).resolve().parent / "frozen"


def test_full_level_has_no_cusp_forms():
    # the full modular group: one cusp, genus zero, so restriction to the
    # single boundary circle kills nothing and there is nothing to kill
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(1), 1)
    assert str(r.ambient) == "0"
    assert str(r.boundary) == "Z"
    assert str(r.cuspidal) == "0"
    assert r.degree == 1 and r.weight == 2


def test_level_eleven_weight_two_kernel():
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(11), 1)
    assert str(r.ambient) == "Z^3"
    assert str(r.boundary) == "Z^2"
    assert str(r.cuspidal) == "Z^2"
    json.dumps(r.descriptor())
    a = ambient_kernel(CongruenceSubgroup.gamma0(11), 1)
    # kernel columns really are cocycles
    assert (a.complex.deltas[1] * a.kernel_basis).is_zero()
    # and their restrictions really are boundary coboundaries
    moved = a.restriction * a.kernel_basis
    boundaries = column_span_basis(a.boundary_complex.deltas[0])
    assert solve_echelon(boundaries, moved) is not None


def test_restriction_is_a_chain_map():
    a = ambient_kernel(CongruenceSubgroup.gamma0(14), 1)
    CA, CB = a.complex, a.boundary_complex
    assert CB.deltas[1] * a.restriction == a.restriction_next * CA.deltas[1]
    # ambient coboundaries restrict to boundary coboundaries
    assert solve_echelon(column_span_basis(CB.deltas[0]),
                         a.restriction * CA.deltas[0]) is not None


@pytest.mark.parametrize("level, degree", [(11, 0), (17, 2)])
def test_inclusion_lift_refolds_to_the_restricted_lift(level, degree):
    # the inclusion lifted into the restricted ambient resolution through
    # its own homotopy refold . h . unfold, as cuspidal_cohomology once
    # did, gives the same restriction matrices in both degrees
    gamma = CongruenceSubgroup.gamma0(level)
    module = PolynomialModule(degree)
    a = ambient_kernel(gamma, 1, module)
    W, horocycles, ambient, _, _ = cuspidal._assemble(gamma, 1, module)
    boundary = restrict_resolution(sub_resolution(W, horocycles), gamma)
    incl = EquivariantChainMap(
        boundary, ambient, lambda g: g,
        [ambient.section(boundary.aug({j: GroupRingElement.unit(I)}))
         for j in range(boundary.rank(0))], degree_max=2)
    old = [block_matrix(module.rank, boundary.rank(k), ambient.rank(k),
                        ((j, b, module.ring_action(gre))
                         for j in range(boundary.rank(k))
                         for b, gre in incl.value(k, j).items()))
           for k in (1, 2)]
    assert [a.restriction, a.restriction_next] == old


def test_cuspidal_cohomology_calls_no_restricted_homotopy(monkeypatch):
    # the inclusion lifts through the homotopy of the SL2(Z)-level
    # assembly, never through refold . h . unfold
    def refuse(self, n, chain):
        pytest.fail("a restricted resolution's homotopy was called")

    monkeypatch.setattr(RestrictedResolution, "h", refuse)
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(11), 1)
    assert str(r.cuspidal) == "Z^2"
    # the lift is built with the kernel lattice in the ambient basis
    a = ambient_kernel(CongruenceSubgroup.gamma0(11), 1)
    assert a.restriction.cols == a.complex.ranks[1]


def test_one_assembly_serves_both_sides(monkeypatch):
    # the boundary's resolution is the horocycle generators of the
    # ambient assembly, so the Borel-Serre complex is assembled once
    calls = []

    def counted(X, max_degree):
        calls.append(max_degree)
        return wall_resolution(X, max_degree)

    monkeypatch.setattr(cuspidal, "wall_resolution", counted)
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(11), 1)
    assert calls == [2]
    assert str(r.cuspidal) == "Z^2"
    # the ambient route and its cross-check by the filtered reduction
    # share one assembly too
    ambient_kernel(CongruenceSubgroup.gamma0(11), 1)
    assert calls == [2, 2]


# (level, genus of X_0(level), number of cusps), from the classical tables
MODULAR_CURVES = [
    (11, 1, 2),
    (14, 1, 4),
    (15, 1, 4),
    (17, 1, 2),
    (19, 1, 2),
]

# more curves: X_0(N) from the closed forms, then X_1(5) and X(6)
MORE_CURVES = [(n, modforms_oracle.genus(n), modforms_oracle.cusps(n))
               for n in (1, 2, 3, 4, 6, 9, 12, 25, 27, 39, 50)] + [
    pytest.param(CongruenceSubgroup.gamma1(5), 0, 4, id="gamma1_5"),
    pytest.param(CongruenceSubgroup.principal(6), 1, 12, id="gamma_6"),
]


@pytest.mark.parametrize("level, genus, cusps", MODULAR_CURVES + MORE_CURVES)
def test_weight_two_ranks_match_the_modular_curve(level, genus, cusps):
    # the command's boundary complex counts the cusps: H^1 of the
    # boundary has one class per horocycle circle of the quotient
    if isinstance(level, int):
        level = CongruenceSubgroup.gamma0(level)
    r = cuspidal_cohomology(level, 1)
    assert r.cuspidal.torsion == []
    assert r.cuspidal.free_rank == 2 * genus
    assert r.boundary.free_rank == cusps
    # one boundary class is hit from H^0, the rest inject alongside the
    # cuspidal part, so the ambient rank is 2g + (cusps - 1)
    assert r.ambient.free_rank == 2 * genus + cusps - 1


def test_hecke_acts_by_newform_eigenvalues_weight_two():
    aps = {2: -2, 3: -1, 5: 1, 7: -2}
    ops = cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1,
                                   list(aps))
    for (p, ap), M in zip(aps.items(), ops):
        assert M.m == p and M.orders == (0, 0)
        # one rational newform: T_p is the scalar a_p on both copies
        assert M.matrix.data == [[ap, 0], [0, ap]]
        roots, rest = integer_roots(charpoly(M.matrix))
        assert roots == [ap, ap] and rest == [1]


def test_weight_four_level_eleven():
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(11),
                            1, PolynomialModule(2))
    assert str(r.ambient) == "Z/2 + Z^6"
    assert str(r.boundary) == "Z/22 + Z/22 + Z^2"
    assert str(r.cuspidal) == "Z^4"
    # the weight 4 eigenvalues generate Z[sqrt(3)]: each conjugate pair
    # appears twice, so the charpolys are squares of the minimal ones,
    # (x^2 - 2x - 2)^2 at p = 2 and (x^2 + 2x - 47)^2 at p = 3
    t2, t3 = cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1,
                                      [2, 3], PolynomialModule(2))
    assert charpoly(t2.matrix) == [1, -4, 0, 8, 4]
    assert charpoly(t3.matrix) == [1, 4, -90, -188, 2209]
    # no integer eigenvalues at all here
    assert integer_roots(charpoly(t2.matrix))[0] == []
    # torsion-free quotient, so plain matrix products must commute
    assert t2.matrix * t3.matrix == t3.matrix * t2.matrix


def test_weight_four_level_eleven_presentation_frozen(monkeypatch):
    built = []
    lattice = cuspidal.QuotientLattice

    def counted(*args):
        built.append(args)
        return lattice(*args)

    monkeypatch.setattr(cuspidal, "QuotientLattice", counted)
    docs = [op.descriptor() for op in cuspidal_hecke_operators(
        CongruenceSubgroup.gamma0(11), 1, [2, 3], PolynomialModule(2))]
    # matrices, orders and cocycle bases, byte for byte
    expected = (FROZEN / "cuspidal_gamma0_11_k2_t2_t3.json").read_text()
    assert json.dumps(docs, sort_keys=True) + "\n" == expected
    # one presentation of the cuspidal quotient serves every operator
    assert len(built) == 1


def test_operators_share_the_boundary_coboundary_basis(monkeypatch):
    # the echelon basis of the boundary coboundaries is built once per
    # call, with the kernel lattices: T2, T3 and T5 take no more echelon
    # bases than T2 alone
    calls = []

    def counted(M):
        calls.append(M)
        return column_span_basis(M)

    monkeypatch.setattr(cuspidal, "column_span_basis", counted)
    counts = []
    for ms in ([2], [2, 3, 5]):
        del calls[:]
        list(cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1, ms))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_operators_share_the_ambient_presentation(monkeypatch):
    # the ambient cocycle lattice, the ambient quotient and the cuspidal
    # quotient are built once per call: T2, T3 and T5 take the same Smith
    # forms with transforms as T2 alone
    calls = transform_snfs(monkeypatch)
    gamma, module = CongruenceSubgroup.gamma0(13), PolynomialModule(2)
    list(cuspidal_hecke_operators(gamma, 1, [2], module))
    one = list(calls)
    del calls[:]
    ops = list(cuspidal_hecke_operators(gamma, 1, [2, 3, 5], module))
    assert calls == one
    # torsion-free quotient, so plain products commute
    for a in ops:
        for b in ops:
            assert a.matrix * b.matrix == b.matrix * a.matrix


def test_a_bad_index_fails_before_anything_is_assembled(monkeypatch):
    # every index is checked first, by the check hecke_operators runs
    def refuse(*args):
        pytest.fail("the assembly ran before the indices were checked")

    monkeypatch.setattr(cuspidal, "_assemble", refuse)
    with pytest.raises(FormatError, match="operator index"):
        next(cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1,
                                      [2, 0]))


# (level, module degree, p): squarefree levels, p prime to the level
EISENSTEIN = [(11, 0, 2), (14, 0, 3), (35, 0, 2), (30, 0, 7), (13, 2, 2),
              (15, 2, 2), (17, 2, 3), (21, 2, 5)]


@pytest.mark.parametrize("level, degree, p", EISENSTEIN)
def test_ambient_charpoly_is_cuspidal_times_eisenstein(level, degree, p):
    # at squarefree level every class beyond the cuspidal ones is
    # Eisenstein, with T_p-eigenvalue 1 + p^(k+1) for p prime to the level
    # and k the module degree, so the ambient charpoly (tree resolution) is
    # the cuspidal one (Borel-Serre assembly) times (x - 1 - p^(k+1))^c
    gamma, module = CongruenceSubgroup.gamma0(level), PolynomialModule(degree)
    ambient = next(hecke_operators(gamma, 1, [p], module)).free_block()
    cusp = next(cuspidal_hecke_operators(gamma, 1, [p], module)).free_block()
    assert ambient.rows > cusp.rows
    poly, eigenvalue = charpoly(cusp), 1 + p ** (degree + 1)
    for _ in range(ambient.rows - cusp.rows):
        # multiply by x - eigenvalue, coefficients highest degree first
        poly = [a - eigenvalue * b for a, b in zip(poly + [0], [0] + poly)]
    assert charpoly(ambient) == poly


# (module degree, level): weights 2 and 4, genus zero and positive genus
ORACLE_SWEEP = ([(0, n) for n in (2, 4, 6, 9, 13, 16, 20, 21, 22, 23, 26,
                                  27, 29, 31, 37)]
                + [(2, n) for n in (1, 2, 3, 5, 6, 7, 9, 10, 13, 16, 50)])


@pytest.mark.parametrize("degree, level", ORACLE_SWEEP)
def test_free_ranks_match_eichler_shimura(degree, level):
    r = cuspidal_cohomology(CongruenceSubgroup.gamma0(level), 1,
                            PolynomialModule(degree))
    k = degree + 2
    assert r.cuspidal.free_rank == 2 * dim_cusp_forms(level, k)
    assert r.ambient.free_rank == h1_free_rank(level, k)


@pytest.mark.parametrize("level, degree, lines", [
    (13, 4, ("ambient Z/12 + Z^12",
             "boundary Z/26 + Z/26 + Z/156 + Z/156 + Z^2",
             "cuspidal Z^10")),
    (25, 2, ("ambient Z/2 + Z^16",
             "boundary Z/2 + Z/2 + Z/2 + Z/2 + Z/50 + Z/50 + Z^6",
             "cuspidal Z^10")),
])
def test_torsion_cases_frozen(capsys, level, degree, lines):
    rc = main(["cuspidal", "--gamma0", str(level),
               "--module-degree", str(degree)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == list(lines)


@functools.lru_cache(maxsize=None)
def _torsion_case(level, degree):
    gamma, module = CongruenceSubgroup.gamma0(level), PolynomialModule(degree)
    return (cuspidal_cohomology(gamma, 1, module),
            ambient_kernel(gamma, 1, module))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
@pytest.mark.parametrize("level, degree", [(11, 2), (13, 4), (25, 2)])
def test_torsion_matches_rank_drop_mod_p(level, degree, p):
    r, a = _torsion_case(level, degree)
    n = r.degree
    for invariants, relations in (
            (r.ambient, a.complex.delta(n - 1)),
            (r.boundary, a.boundary_complex.delta(n - 1)),
            (r.cuspidal, a.kernel_relations)):
        assert sum(1 for t in invariants.torsion if t % p == 0) == \
            rank_drop_mod(relations, p)


def test_filtered_reduction_frozen(monkeypatch):
    # the complex and sides the level-17 P(2) run contracts; digests of
    # the collapse trace and of the reduced complex, recorded before the
    # greedy loop and its elimination step were tightened
    seen = []

    def spy(C, side=None):
        D = contract(C, side=side)
        seen.append((C, side, D))
        return D
    monkeypatch.setattr(cuspidal, "contract", spy)
    cuspidal_cohomology(CongruenceSubgroup.gamma0(17), 1, PolynomialModule(2))
    (C, side, D), = seen
    assert C.ranks == [324, 270, 108] and side is not None
    assert D.ranks == [178, 21, 5] and len(D.trace) == 249
    steps = repr([(s.degree, s.source, s.target) for s in D.trace])
    assert hashlib.sha256(steps.encode()).hexdigest() == \
        "c6b3cad0e2fe0816176426e43406db89be54bb0991614479b2141bb2b3ab3354"
    assert hashlib.sha256(D.to_text().encode()).hexdigest() == \
        "d571a5393c5e7e4a3301e5102f473a6e6f482df246425f81ea7801cef701e97b"


def test_noncommuting_restriction_exits_three(capsys, monkeypatch):
    # in the ambient basis: the lifted restriction, doubled one degree up
    pullback = cuspidal._pullback_matrix

    def doubled_next(chain_map, k, ambient, module):
        out = pullback(chain_map, k, ambient, module)
        return out * 2 if k == 2 else out

    monkeypatch.setattr(cuspidal, "_pullback_matrix", doubled_next)
    with pytest.raises(CompositionNonzero, match="does not commute"):
        ambient_kernel(CongruenceSubgroup.gamma0(11), 1)
    # on the reduced complex: collapses across the boundary leave a
    # coordinate off the boundary whose coboundary reaches the boundary,
    # so the projection is no cochain map
    monkeypatch.setattr(cuspidal, "contract",
                        lambda C, side=None: contract(C))
    with pytest.raises(CompositionNonzero, match="does not commute"):
        cuspidal_cohomology(CongruenceSubgroup.gamma0(1), 1)
    # the CLI reports it as a computation error, not a traceback
    assert main(["cuspidal", "--gamma0", "1"]) == 3
    assert "does not commute" in capsys.readouterr().err


def test_reduced_coboundaries_must_compose_to_zero(capsys, monkeypatch):
    # double a reduced coboundary column that the coboundary below hits;
    # its sparsity pattern, and so the filtration, stays as it was
    def doubled(C, side=None):
        D = contract(C, side=side)
        d1, d2 = D.diffs
        s = next(s for col in d2.columns for s in col if d1.columns[s])
        d1.columns[s] = {t: 2 * v for t, v in d1.columns[s].items()}
        return D

    monkeypatch.setattr(cuspidal, "contract", doubled)
    with pytest.raises(CompositionNonzero, match="is nonzero"):
        cuspidal_cohomology(CongruenceSubgroup.gamma0(17), 1)
    assert main(["cuspidal", "--gamma0", "17"]) == 3
    assert "is nonzero" in capsys.readouterr().err


def test_kernel_lattice_missing_relations_raises(capsys, monkeypatch):
    # a kernel basis of index 2^rank no longer contains the coboundaries
    span_basis = cuspidal.column_span_basis
    monkeypatch.setattr(cuspidal, "column_span_basis",
                        lambda M: span_basis(M) * 2)
    with pytest.raises(NotInLattice, match="span of the kernel lattice"):
        cuspidal_cohomology(CongruenceSubgroup.gamma0(11), 1)
    assert main(["cuspidal", "--gamma0", "11"]) == 3
    assert "span of the kernel lattice" in capsys.readouterr().err


def test_ambient_checks_run_on_every_operator(monkeypatch):
    # every cochain passed off as an ambient cocycle: the operator's images
    # are not cocycles, and the shared ambient presentation says so
    real = cuspidal.ambient_kernel

    def everything_a_cocycle(*args):
        a = real(*args)
        bad = copy.copy(a.presentation)
        bad.Z = bad.P = IntMatrix.identity(bad.delta_out.cols)
        return a._replace(presentation=bad)

    monkeypatch.setattr(cuspidal, "ambient_kernel", everything_a_cocycle)
    with pytest.raises(CompositionNonzero, match="cocycle is not a cocycle"):
        next(cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1, [2]))


def test_operator_leaving_the_kernel_raises(monkeypatch):
    real = cuspidal.ambient_kernel

    def all_cocycles(*args):
        # all cocycles, Eisenstein ones included, in place of the kernel
        a = real(*args)
        basis = column_span_basis(integer_kernel(a.complex.deltas[1]))
        return a._replace(kernel_basis=basis, kernel_relations=solve_echelon(
            basis, a.presentation.delta_in))

    monkeypatch.setattr(cuspidal, "ambient_kernel", all_cocycles)
    with pytest.raises(NotInLattice, match="does not preserve"):
        next(cuspidal_hecke_operators(CongruenceSubgroup.gamma0(11), 1, [2]))


# (group, module degree, degree): each under a second by the ambient route
ROUTES = [
    (CongruenceSubgroup.gamma0(1), 0, 1),
    (CongruenceSubgroup.gamma0(11), 0, 0),
    (CongruenceSubgroup.gamma0(11), 0, 2),
    (CongruenceSubgroup.gamma0(14), 0, 1),
    (CongruenceSubgroup.gamma0(17), 2, 1),
    (CongruenceSubgroup.gamma0(13), 4, 1),
    (CongruenceSubgroup.gamma0(11), 6, 1),
    (CongruenceSubgroup.gamma0(4), 3, 1),
    (CongruenceSubgroup.gamma0(2), 1, 2),
    (CongruenceSubgroup.gamma0(7), 5, 0),
    (CongruenceSubgroup.gamma1(5), 0, 1),
    (CongruenceSubgroup.gamma1(7), 2, 1),
    (CongruenceSubgroup.principal(3), 0, 1),
    (CongruenceSubgroup.principal(4), 2, 1),
]


@pytest.mark.parametrize("gamma, k, n", ROUTES, ids=str)
def test_reduced_route_matches_the_ambient_fields(gamma, k, n):
    # the invariants of the filtered reduction against those presented by
    # the kernel lattice in the ambient basis, read off its fields directly
    r = cuspidal_cohomology(gamma, n, PolynomialModule(k))
    a = ambient_kernel(gamma, n, PolynomialModule(k))
    assert r.ambient == cokernel_invariants(a.presentation.relations)
    assert r.boundary == cohomology(a.boundary_complex, n)
    assert r.cuspidal == cokernel_invariants(a.kernel_relations)


def test_ambient_kernel_cross_checks_the_reduced_invariants(monkeypatch):
    # the filtered reduction of the same assembly reports a cuspidal Z^3
    reduced = cuspidal._filtered_reduction

    def wrong(*args):
        ambient, boundary, _ = reduced(*args)
        return ambient, boundary, AbelianInvariants([], 3)

    monkeypatch.setattr(cuspidal, "_filtered_reduction", wrong)
    with pytest.raises(EliminationError, match="different invariants"):
        ambient_kernel(CongruenceSubgroup.gamma0(11), 1)


def test_cli_builds_nothing_in_the_ambient_basis(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("the cuspidal command built an ambient-basis field")

    for name in ("EquivariantChainMap", "_pullback_matrix", "ambient_kernel"):
        monkeypatch.setattr(cuspidal, name, refuse)
    assert main(["cuspidal", "--gamma0", "17", "--module-degree", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ambient Z/2 + Z^10", "boundary Z/34 + Z/34 + Z^2", "cuspidal Z^8"]
