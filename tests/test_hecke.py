"""Hecke operators: coset data, chain maps, matrices, eigenvalues."""

import json
import random

import pytest

from pathlib import Path

from genhelpers import chain_add, chain_scale, chain_sub, chains_equal
from modforms_oracle import index as psi
from artifact import congruence, exactlin, hecke
from artifact.cli import main
from artifact.coeffmod import CochainComplexZ, PolynomialModule, block_matrix
from artifact.congruence import CongruenceSubgroup, Transversal, transversal
from artifact.errors import (CompositionNonzero, DegreeOutOfRange,
                             FormatError, InfiniteIndex, NotInLattice,
                             ShapeMismatch)
from artifact.exactlin import IntMatrix, charpoly, integer_roots
from artifact.hecke import (EquivariantChainMap, gamma_prime_data,
                            hecke_cochain, hecke_eigenvalues, hecke_lift,
                            hecke_operator)
from artifact.resolutions import (FreeZGResolution, GroupRingElement,
                                  RestrictedResolution, restrict_resolution,
                                  sl2z_resolution, sub_resolution)
from artifact.sl2z import I, S, T


GAMMA0_11 = CongruenceSubgroup.gamma0(11)
GAMMA_6 = CongruenceSubgroup.principal(6)
FROZEN = Path(__file__).resolve().parent / "frozen"


@pytest.fixture(scope="module")
def res11():
    # shared so every operator on Gamma0(11) lands on the same H^1 basis
    return restrict_resolution(sl2z_resolution(2), GAMMA0_11)


@pytest.fixture(scope="module")
def res6():
    return restrict_resolution(sl2z_resolution(2), GAMMA_6)


def section_images(source, target):
    """Degree-0 images through the target's section of the augmentation."""
    return [target.section(source.aug({j: GroupRingElement.unit(I)}))
            for j in range(source.rank(0))]


# ---------------------------------------------------------------------------
# coset data


def test_identity_gives_one_coset():
    desc = gamma_prime_data(GAMMA0_11, 1)
    assert desc.index == 1
    assert desc.reps == [I]
    assert desc.member(S * S)  # -I lies in Gamma0(11) = Gamma'


def test_gamma0_11_t2_index_three():
    desc = gamma_prime_data(GAMMA0_11, 2)
    assert desc.index == 3
    assert desc.reps[0] == I
    for r in desc.reps:
        assert GAMMA0_11.member(r)
    # pairwise inequivalent modulo Gamma'
    for i, a in enumerate(desc.reps):
        for j, b in enumerate(desc.reps):
            assert (i == j) == desc.member(a.inverse() * b)


def test_gamma_prime_membership_and_conjugation():
    desc = gamma_prime_data(GAMMA0_11, 2)
    # T^2 = [[1,2],[0,1]] has even upper entry, so it survives conjugation
    t2 = T * T
    assert desc.member(t2)
    conj = desc.conjugate(t2)
    # diag(2,1)^-1 [[1,2],[0,1]] diag(2,1) = [[1,1],[0,1]]
    assert conj == T
    assert not desc.member(T)


def test_gamma6_t5_index_six():
    desc = gamma_prime_data(GAMMA_6, 5)
    assert desc.index == 6


def test_infinite_index_bound_trips(monkeypatch):
    monkeypatch.setattr(hecke, "MAX_COSETS", 2)
    with pytest.raises(InfiniteIndex, match="more than 2 cosets"):
        gamma_prime_data(GAMMA0_11, 2)


@pytest.mark.parametrize("m", [0, -1, (2, 0, 0, 1)])
def test_operator_index_must_be_positive(res11, m):
    # an operator is named by its index m >= 1 alone, T_1 the identity
    # coset; anything else is a FormatError before any coset search, not
    # a TypeError from the arithmetic
    assert gamma_prime_data(GAMMA0_11, 1).index == 1
    with pytest.raises(FormatError, match="operator index"):
        gamma_prime_data(GAMMA0_11, m)
    with pytest.raises(FormatError, match="operator index"):
        hecke_operator(GAMMA0_11, 1, m, resolution=res11)


def test_operator_indices_checked_before_the_resolution(monkeypatch):
    # a bad index fails before the default resolution is restricted, so
    # it costs no restriction over the level
    calls = []
    real = hecke.restrict_resolution

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hecke, "restrict_resolution", counted)
    with pytest.raises(FormatError, match="operator index"):
        hecke_operator(CongruenceSubgroup.gamma0(300), 1, 0)
    assert calls == []
    # every index, not only the first, before the first operator
    with pytest.raises(FormatError, match="operator index"):
        next(hecke.hecke_operators(GAMMA0_11, 1, [2, 3, 0]))
    assert calls == []


@pytest.mark.parametrize("level, p", [(1, 7), (11, 2), (11, 11), (38, 2),
                                      (38, 11), (38, 19), (50, 3), (50, 5),
                                      (100, 3)])
def test_representatives_smallest_first(level, p):
    desc = gamma_prime_data(CongruenceSubgroup.gamma0(level), p)
    # Gamma' is Gamma0(N) cap Gamma^0(p), a conjugate of Gamma0(pN), so
    # its index in Gamma0(N) is p + 1, or p when p | N
    assert desc.index == (p if level % p == 0 else p + 1)
    assert desc.reps[0] == I
    for i, a in enumerate(desc.reps):
        for j, b in enumerate(desc.reps):
            assert (i == j) == desc.member(a.inverse() * b)
    sizes = [sum(map(abs, r.entries())) for r in desc.reps]
    assert sizes == sorted(sizes)


def test_representatives_stay_small_at_level_38():
    # small representatives keep the conjugated group elements of the
    # chain-map lift small
    desc = gamma_prime_data(CongruenceSubgroup.gamma0(38), 11)
    assert max(abs(x) for r in desc.reps for x in r.entries()) <= 38


def test_lift_stays_small_at_level_38():
    # degree-0 images next to their targets make each degree-1 value a
    # short tree walk: 16,765 value terms when every degree-0 image sat
    # at the base vertex
    gamma = CongruenceSubgroup.gamma0(38)
    res = restrict_resolution(sl2z_resolution(2), gamma)
    _, lift = hecke_lift(gamma, 1, 11, res)
    terms = sum(len(gre.terms) for val in lift.values[1] for gre in val.values())
    assert terms <= 6500


def test_degree0_images_sit_at_the_nearest_vertex(res11):
    # the source generator over the vertex y<U>, y a representative of
    # S' = Gamma^0(5), goes to the target generator over m<U>, m the
    # vertex nearest g^-1 y.rho; for g = diag(5, 1), adj(g) y = 5 g^-1 y;
    # the lift's values are chains of the SL2(Z)-level resolution
    desc, lift = hecke_lift(GAMMA0_11, 1, 5, res11)
    assert len(lift.values[0]) == res11.base.rank(0) * psi(5)
    reps = set(desc.upper.reps)
    for j, val in enumerate(lift.values[0]):
        (b, y), = lift.source.unfold(0, {j: GroupRingElement.unit(I)}).items()
        (b2, m), = val.items()
        y, = y.terms
        assert y in reps
        M = (y.a, y.b, 5 * y.c, 5 * y.d)
        assert (b2, m) == (b, GroupRingElement.unit(hecke.nearest_vertex(M)))


@pytest.mark.parametrize("group, p, weight", [
    (GAMMA0_11, 2, 4),
    (CongruenceSubgroup.gamma0(38), 11, 2),
    (CongruenceSubgroup.gamma1(13), 2, 2),
])
def test_matrix_independent_of_representatives(monkeypatch, group, p, weight):
    # right-multiplying a representative by an element of Gamma' keeps its
    # coset, so the transfer, and with it the matrix on H^1, is unchanged;
    # the lift is semilinear over all of Gamma', so even the cochain is
    moved = T ** p
    real = hecke.gamma_prime_data

    def shifted(gamma, m):
        desc = real(gamma, m)
        assert desc.member(moved)
        desc.reps[1:] = [r * moved for r in desc.reps[1:]]
        return desc

    module = PolynomialModule(weight - 2)
    res = restrict_resolution(sl2z_resolution(2), group)
    a = hecke_operator(group, 1, p, module=module, resolution=res)
    monkeypatch.setattr(hecke, "gamma_prime_data", shifted)
    b = hecke_operator(group, 1, p, module=module, resolution=res)
    assert (a.matrix, a.orders, a.basis) == (b.matrix, b.orders, b.basis)
    assert a.cochain == b.cochain


def transform_snfs(monkeypatch):
    """A list that records every Smith form asked for a transform."""
    calls = []
    real = exactlin.smith_normal_form

    def counted(M, transforms=exactlin.TRANSFORMS):
        if transforms:
            calls.append(tuple(transforms))
        return real(M, transforms)

    monkeypatch.setattr(exactlin, "smith_normal_form", counted)
    return calls


def test_eigenvalues_share_one_presentation(monkeypatch):
    # the cocycle lattice (V, V^-1) and the quotient (U, U^-1) are built
    # once for all four operators: 2 Smith forms with transforms, not 8
    calls = transform_snfs(monkeypatch)
    reports = hecke_eigenvalues(GAMMA0_11, 1, [2, 3, 5, 7])
    assert [reports[p].roots for p in (2, 3, 5, 7)] == [
        (-2, -2, 3), (-1, -1, 4), (1, 1, 6), (-2, -2, 8)]
    assert calls == [("V", "Vinv"), ("U", "Uinv")]


@pytest.mark.parametrize("emit", ["eigenvalues", "matrix", "charpoly"])
def test_cli_operators_share_one_presentation(capsys, monkeypatch, emit):
    calls = transform_snfs(monkeypatch)
    assert main(["hecke", "--gamma0", "11", "--weight", "4", "--ops",
                 "2,3,5", "--emit", emit]) == 0
    capsys.readouterr()
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the lift over S' = Gamma^0(n), restricted to Gamma'


def restricted_lift(lift, lower):
    """The same chain map lifted into lower, the SL2(Z)-level resolution
    restricted to phi(S') = Gamma0(n), through its homotopy
    refold . h . unfold, from refolded degree-0 images."""
    return EquivariantChainMap(lift.source, lower, lift.phi,
                               [lower.refold(v) for v in lift.values[0]],
                               degree_max=lift.degree_max)


def translated(gam, chain):
    """gam times a chain, gam a group element."""
    return {k: gre.left_mul(gam) for k, gre in chain.items()}


def gamma_prime_value(res, desc, lift, n, b, t):
    """The lift's value on t^-1 e_b, e_b a generator of res and t a coset
    representative of Gamma', refolded into res: the source chain is
    written over S' (lift.source.refold) and mapped by the semilinear
    extension (lift.apply)."""
    x = translated(t.inverse(), res.unfold(n, {b: GroupRingElement.unit(I)}))
    return res.refold(lift.apply(n, lift.source.refold(x)))


@pytest.mark.parametrize("group, p, weight, n", [
    pytest.param(GAMMA0_11, 2, 4, 1, id="group0-2-4"),
    pytest.param(CongruenceSubgroup.gamma0(38), 11, 2, 1, id="group1-11-2"),
    pytest.param(CongruenceSubgroup.gamma1(13), 2, 2, 1, id="group2-2-2"),
    pytest.param(GAMMA_6, 5, 4, 1, id="Gamma(6)-5-4"),
    # p | N, and a composite p sharing a factor with N
    pytest.param(GAMMA0_11, 11, 2, 1, id="Gamma0(11)-11-2"),
    pytest.param(CongruenceSubgroup.gamma0(12), 4, 2, 1, id="Gamma0(12)-4-2"),
    # odd module degree, -I not in the group
    pytest.param(CongruenceSubgroup.gamma1(5), 3, 5, 1, id="Gamma1(5)-3-5"),
    pytest.param(GAMMA0_11, 3, 4, 2, id="Gamma0(11)-3-4-degree2"),
])
def test_base_lift_refolds_to_the_restricted_lift(group, p, weight, n):
    # unfold(phi(s) refold(v)) = phi(s) v, so lifting through the
    # SL2(Z)-level homotopy and refolding once gives the lift through the
    # restricted homotopy value for value
    res = restrict_resolution(sl2z_resolution(n + 1), group)
    desc, lift = hecke_lift(group, n, p, res)
    lower = restrict_resolution(res.base, CongruenceSubgroup.gamma0(p))
    old = restricted_lift(lift, lower)
    for k in range(n + 1):
        for j in range(lift.source.rank(k)):
            assert lower.refold(lift.value(k, j)) == old.value(k, j)
    # and the cochain assembled per coset pair is the one the lift's
    # semilinear extension gives, refolded and laid out block by block
    module = PolynomialModule(weight - 2)
    rank = res.rank(n)
    pre = [module.action(t) * module.action((p, 0, 0, 1)) for t in desc.reps]
    expected = block_matrix(
        module.rank, rank, rank,
        ((b, b2, pre[i] * module.ring_action(gre))
         for i, t in enumerate(desc.reps) for b in range(rank)
         for b2, gre in gamma_prime_value(res, desc, lift, n, b, t).items()))
    H = hecke_operator(group, n, p, module=module, resolution=res)
    assert H.cochain == expected


class GammaPrimeCosets:
    """Gamma' in Gamma as a transversal: rep(i) = reps[i]^-1, and lookup
    scans the reps with the membership test."""

    def __init__(self, desc):
        self.desc = desc

    def __len__(self):
        return self.desc.index

    def rep(self, i):
        return self.desc.reps[i].inverse()

    def lookup(self, x):
        for i, left in enumerate(self.desc.reps):
            if self.desc.member(x * left):
                return i, x * left
        raise AssertionError("element lies in no coset of Gamma'")


@pytest.mark.parametrize("group, p", [
    (GAMMA0_11, 2),
    (CongruenceSubgroup.gamma0(38), 11),
    (CongruenceSubgroup.gamma1(13), 2),
    (CongruenceSubgroup.principal(4), 3),
])
def test_gamma_prime_values_commute_with_d(group, p):
    # the refolded values on every generator of the resolution restricted
    # to Gamma', extended over phi, satisfy d f = f d and keep the
    # augmentation.  Gamma' has finite index in Gamma, whose resolution
    # res is, so its restricted boundary is read here one coset lookup
    # per term: generator (b, t) has d = sum of c gam e_(i, ti) over the
    # terms (g, c) of row_b[i], where rep(t) g = gam rep(ti)
    res = restrict_resolution(sl2z_resolution(2), group)
    desc, lift = hecke_lift(group, 1, p, res)
    cosets = GammaPrimeCosets(desc)
    nt = desc.index
    f = [[gamma_prime_value(res, desc, lift, n, b, t)
          for b in range(res.rank(n)) for t in desc.reps] for n in range(2)]
    for j, val in enumerate(f[0]):
        assert res.aug(val) == 1, j
    for b, row in enumerate(res.boundary_rows(1)):
        for t in range(nt):
            below = {}
            for i, gre in row.items():
                for g, c in gre.items():
                    ti, gam = cosets.lookup(cosets.rep(t) * g)
                    below = chain_add(below, chain_scale(
                        translated(desc.conjugate(gam), f[0][i * nt + ti]),
                        c))
            assert chains_equal(res.d(1, f[1][b * nt + t]), below), (b, t)
    assert len(f[1]) == res.rank(1) * nt


@pytest.mark.parametrize("level, p", [(11, 11), (38, 11), (38, 19), (38, 4)])
def test_lift_size_is_rank_times_psi(monkeypatch, level, p):
    # one homotopy evaluation per generator of the lift over Gamma^0(p):
    # rank_k * psi(p) in degree k, whatever the level, U_p (p | level) and
    # composite p included
    gamma = CongruenceSubgroup.gamma0(level)
    res = restrict_resolution(sl2z_resolution(3), gamma)
    base = res.base
    calls = []
    real = FreeZGResolution.h

    def counted(self, n, chain):
        if self is base:
            calls.append(n)
        return real(self, n, chain)

    monkeypatch.setattr(FreeZGResolution, "h", counted)
    _, lift = hecke_lift(gamma, 2, p, res)
    for k in range(3):
        assert lift.source.rank(k) == base.rank(k) * psi(p)
    assert sorted(calls) == [k - 1 for k in (1, 2)
                             for _ in range(base.rank(k) * psi(p))]


def test_generator_data_once_per_group(monkeypatch):
    # generators is cached per group, so the Gamma' search of every index
    # in one call reads one generator computation
    calls = []
    real = congruence.generator_data

    def counted(gamma):
        calls.append(gamma)
        return real(gamma)
    monkeypatch.setattr(congruence, "generator_data", counted)
    congruence.generators.cache_clear()
    list(hecke.hecke_operators(CongruenceSubgroup.gamma0(38), 1,
                               [2, 3, 5, 7]))
    assert calls == [CongruenceSubgroup.gamma0(38)]


def test_hecke_cochain_looks_up_each_coset_pair_once(monkeypatch):
    # one checked Gamma-lookup per pair of a coset of Gamma0(38) (60) and
    # a representative of Gamma' (psi(11) = 12); the terms of the lift
    # read the S/U coset permutations the resolution was restricted with,
    # and cost none
    gamma = CongruenceSubgroup.gamma0(38)
    res = restrict_resolution(sl2z_resolution(2), gamma)
    calls = []
    lookup = Transversal.lookup

    def counted(self, g):
        if self.group == gamma:
            calls.append(g)
        return lookup(self, g)
    monkeypatch.setattr(Transversal, "lookup", counted)
    hecke_cochain(gamma, 1, 11, PolynomialModule(0), res)
    assert len(transversal(gamma)) == 60 and psi(11) == 12
    assert len(calls) == 12 * 60


def test_hecke_cochain_calls_no_restricted_homotopy(monkeypatch, res11):
    # the lift runs through the SL2(Z)-level homotopy, never through
    # refold . h . unfold
    def refuse(self, n, chain):
        pytest.fail("a restricted resolution's homotopy was called")

    monkeypatch.setattr(RestrictedResolution, "h", refuse)
    cochain = hecke_cochain(GAMMA0_11, 1, 2, PolynomialModule(0), res11)
    assert cochain.rows == cochain.cols == res11.rank(1)


# ---------------------------------------------------------------------------
# equivariant chain maps


def test_identity_chain_map_on_base_resolution():
    res = sl2z_resolution(3)
    f = EquivariantChainMap(res, res, lambda g: g, section_images(res, res),
                            degree_max=2)
    # rank 1 in degree 0 forces the literal identity there
    assert chains_equal(f.value(0, 0), {0: GroupRingElement.unit(I)})


def test_chain_map_commuting_squares_checked(res11):
    # construction verifies d f = f d per generator; reaching here is the test
    desc, f = hecke_lift(GAMMA0_11, 1, 2, res11)
    # semilinearity of the map restricted to Gamma': f(gamma x) =
    # phi(gamma) f(x) for gamma in Gamma' and x over any vertex
    gam = T ** 2 * S * T.inverse() ** 22 * S.inverse()  # [[45, 2], [22, 1]]
    assert desc.member(gam)
    for y in (I, S, T * S, S * T.inverse()):
        x = {1: GroupRingElement.unit(y)}
        img = f.apply(1, f.source.refold(translated(gam, x)))
        moved = translated(desc.conjugate(gam),
                           f.apply(1, f.source.refold(x)))
        assert chains_equal(img, moved)


def test_chain_map_degree_cap(res11):
    with pytest.raises(DegreeOutOfRange):
        EquivariantChainMap(res11, res11, lambda g: g,
                            section_images(res11, res11), degree_max=9)


def test_chain_map_needs_one_image_per_generator(res11):
    with pytest.raises(ShapeMismatch):
        EquivariantChainMap(res11, res11, lambda g: g,
                            section_images(res11, res11)[1:], degree_max=1)


def test_hecke_operator_needs_a_restricted_resolution():
    with pytest.raises(FormatError, match="restricted"):
        hecke_operator(CongruenceSubgroup.gamma0(1), 1, 2,
                       resolution=sl2z_resolution(2))


# ---------------------------------------------------------------------------
# Hecke matrices on Gamma0(11), weight 2


def test_t1_is_identity_on_h1(res11):
    H = hecke_operator(GAMMA0_11, 1, 1, resolution=res11)
    assert H.orders == (0, 0, 0)
    assert H.matrix == IntMatrix.identity(3)


def test_t2_spectrum(res11):
    H = hecke_operator(GAMMA0_11, 1, 2, resolution=res11)
    roots, residual = integer_roots(charpoly(H.free_block()))
    assert roots == [-2, -2, 3]
    assert residual == [1]


def test_eigenvalues_at_four_primes(res11):
    reports = hecke_eigenvalues(GAMMA0_11, 1, [2, 3, 5, 7], resolution=res11)
    assert reports[2].roots == (-2, -2, 3)
    assert reports[3].roots == (-1, -1, 4)
    assert reports[5].roots == (1, 1, 6)
    assert reports[7].roots == (-2, -2, 8)
    for p, rep in reports.items():
        assert rep.residual == (1,)
        # Eisenstein eigenvalue 1 + p shows up for p coprime to the level
        assert 1 + p in rep.roots


def test_transfer_degree_on_h0(res11):
    # on H^0 the operator collapses to multiplication by the coset count
    H = hecke_operator(GAMMA0_11, 0, 2, resolution=res11)
    assert H.orders == (0,)
    assert H.matrix.data == [[3]]


def test_commutation_weight_two(res11):
    reports = hecke_eigenvalues(GAMMA0_11, 1, [2, 3, 7], resolution=res11)
    m2 = reports[2].operator
    m3 = reports[3].operator
    m7 = reports[7].operator
    assert m2.compose(m3) == m3.compose(m2)
    assert m2.compose(m7) == m7.compose(m2)
    assert m3.compose(m7) == m7.compose(m3)
    # torsion free here, so plain products agree as well
    assert m2.matrix * m3.matrix == m3.matrix * m2.matrix


def test_determinism_across_fresh_builds():
    a = hecke_operator(GAMMA0_11, 1, 2)
    b = hecke_operator(GAMMA0_11, 1, 2)
    assert a.descriptor() == b.descriptor()


def test_descriptor_is_json_ready(res11):
    H = hecke_operator(GAMMA0_11, 1, 3, resolution=res11)
    blob = json.loads(json.dumps(H.descriptor()))
    assert blob["group"] == "Gamma0(11)"
    assert blob["g"] == [3, 0, 0, 1]
    assert blob["weight"] == 2
    assert len(blob["matrix"]) == 3
    assert len(blob["basis"]) == 3


def test_cochain_level_preservation(res11):
    from artifact.coeffmod import hom_complex
    from artifact.exactlin import (column_span_basis, integer_kernel,
                                   solve_echelon)
    H = hecke_operator(GAMMA0_11, 1, 2, resolution=res11)
    C = hom_complex(res11, PolynomialModule(0))
    Z = integer_kernel(C.deltas[1])
    boundaries = column_span_basis(C.deltas[0])
    rng = random.Random(20260819)
    for _ in range(5):
        # a random cocycle stays a cocycle
        v = [0] * Z.rows
        for j in range(Z.cols):
            c = rng.randint(-3, 3)
            if c:
                col = Z.col(j)
                v = [x + c * y for x, y in zip(v, col)]
        assert not any(C.deltas[1].apply(H.cochain.apply(v)))
        # a random coboundary maps into the coboundaries
        u = [rng.randint(-3, 3) for _ in range(C.ranks[0])]
        w = H.cochain.apply(C.deltas[0].apply(u))
        assert solve_echelon(boundaries, IntMatrix.column(w)) is not None


# ---------------------------------------------------------------------------
# corrupted inputs raise ArtifactErrors, not asserts


def test_chain_map_verify_rejects_corrupted_values(res11):
    # each value is checked as it is lifted, so corrupt what lifts it: a
    # doubled section breaks the augmentation, a doubled homotopy d f = f d
    def target(section, homotopy):
        return FreeZGResolution(res11.group, res11.ranks, res11._rows,
                                homotopy, res11._augmentation, section)

    bad_section = target(lambda c=1: chain_scale(res11.section(c), 2),
                         res11._homotopy)
    with pytest.raises(CompositionNonzero, match="augmentation"):
        EquivariantChainMap(res11, bad_section, lambda g: g,
                            section_images(res11, bad_section), degree_max=1)
    bad_h = target(res11._section, lambda n, chain: chain_scale(
        res11._homotopy(n, chain), 2))
    with pytest.raises(CompositionNonzero, match="d f != f d"):
        EquivariantChainMap(res11, bad_h, lambda g: g,
                            section_images(res11, bad_h), degree_max=1)


def test_truncation_beyond_top_degree_raises(res11):
    # hecke_lift truncates with sub_resolution, which refuses a keep list
    # running past the top degree
    keep = [[(j, 1) for j in range(res11.rank(k))]
            for k in range(res11.top_degree() + 1)]
    assert sub_resolution(res11, keep).ranks == res11.ranks
    with pytest.raises(DegreeOutOfRange):
        sub_resolution(res11, keep + [[]])


def test_compose_on_different_bases_raises(res11):
    a = hecke_operator(GAMMA0_11, 1, 2, resolution=res11)
    b = hecke_operator(GAMMA0_11, 1, 2, module=PolynomialModule(2),
                       resolution=res11)
    with pytest.raises(ShapeMismatch):
        a.compose(b)


def test_coboundaries_not_preserved_raise(res11, monkeypatch):
    # keep only the coboundaries of the first degree-0 coordinate, a
    # lattice the operator does not preserve
    real = hecke.hom_complex

    def thinned(resolution, module):
        C = real(resolution, module)
        D = IntMatrix.diagonal([1] + [0] * (C.ranks[0] - 1))
        return CochainComplexZ(C.ranks, [C.deltas[0] * D] + C.deltas[1:])

    monkeypatch.setattr(hecke, "hom_complex", thinned)
    with pytest.raises(NotInLattice, match="coboundary"):
        hecke_operator(GAMMA0_11, 1, 2, module=PolynomialModule(2),
                       resolution=res11)


def test_cocycles_not_preserved_exit_three(capsys, monkeypatch):
    # every cochain passed off as a cocycle: the operator's images are
    # not cocycles, and the CLI reports that as a computation error
    def all_cochains(M):
        return IntMatrix.identity(M.cols), IntMatrix.identity(M.cols)

    monkeypatch.setattr(hecke, "kernel_with_left_inverse", all_cochains)
    rc = main(["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2",
               "--emit", "matrix", "--format", "json"])
    assert rc == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["subcommand"] == "hecke"
    assert doc["error"] == {"type": "CompositionNonzero",
                            "message": "image of a cocycle is not a cocycle"}


# ---------------------------------------------------------------------------
# presentations frozen byte for byte


@pytest.mark.parametrize("argv, name", [
    ("hecke --gamma0 11 --weight 4 --ops 2,3 --emit matrix --format json",
     "hecke_gamma0_11_w4_t2_t3.json"),
    ("hecke --gamma 4 --weight 2 --ops 3,5 --emit matrix --format json",
     "hecke_gamma4_w2_t3_t5.json"),
    ("hecke --gamma0 38 --weight 2 --ops 4,11,19 --emit matrix --format json",
     "hecke_gamma0_38_w2_t4_t11_t19.json"),
])
def test_hecke_matrix_output_frozen(capsys, argv, name):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out == (FROZEN / name).read_text()


# ---------------------------------------------------------------------------
# homotopy tie-break independence


def perturbed_homotopy(res):
    """res restricted again from its base, with a different homotopy.

    For any degree-raising eta, h + d.eta - eta.d satisfies the same
    contraction identity as h, so lifts through it give a second
    independent construction.  The perturbation is made on res.base,
    the SL2(Z)-level resolution the chain maps lift through, with
    eta_n(x) = (sum of c * (a mod 2) over the terms c.g of x, g =
    [[a, b], [c', d]]) times e_0 in degree n + 2.  That is not a multiple
    of the augmentation, so it also moves h on augmentation-zero chains,
    which are all the degree-1 lift applies h_0 to.
    """
    base = res.base
    top = base.top_degree()

    def eta(n, chain):
        if n + 2 > top:
            return {}
        total = sum(c * (g.a % 2) for gre in chain.values()
                    for g, c in gre.items())
        if not total:
            return {}
        return {0: GroupRingElement.unit(I, total)}

    def homotopy(n, x):
        out = base.h(n, x)
        e = eta(n, x)
        if e:
            out = chain_add(out, base.d(n + 2, e))
        e2 = eta(n - 1, base.d(n, x))
        if e2:
            out = chain_sub(out, e2)
        return out

    boundaries = [[]] + [base.boundary_rows(k) for k in range(1, top + 1)]
    return restrict_resolution(FreeZGResolution(
        base.group, base.ranks, boundaries, homotopy, base.aug,
        base.section), res.group)


def test_tiebreak_independence(res11):
    other = perturbed_homotopy(res11)
    # sanity: the perturbation changes the homotopy on a chain of
    # augmentation zero, where the degree-1 lift applies it
    x = {0: GroupRingElement.unit(S) - GroupRingElement.unit(I)}
    assert not chains_equal(res11.base.h(0, x), other.base.h(0, x))
    a = hecke_operator(GAMMA0_11, 1, 2, resolution=res11)
    b = hecke_operator(GAMMA0_11, 1, 2, resolution=other)
    # a different lift, so the comparison below is not of one lift twice
    assert a.cochain != b.cochain
    assert a.orders == b.orders
    assert a.matrix == b.matrix
    assert a.basis == b.basis


# ---------------------------------------------------------------------------
# principal level 6 and higher weight


def test_gamma6_h1_rank_and_commutation(res6):
    a = hecke_operator(GAMMA_6, 1, 2, resolution=res6)
    b = hecke_operator(GAMMA_6, 1, 5, resolution=res6)
    assert a.orders == (0,) * 13
    assert a.compose(b) == b.compose(a)


def test_weight_four_torsion_and_commutation(res11):
    mod = PolynomialModule(2)
    a = hecke_operator(GAMMA0_11, 1, 2, module=mod, resolution=res11)
    b = hecke_operator(GAMMA0_11, 1, 3, module=mod, resolution=res11)
    assert a.orders == (0,) * 6 + (2,)
    assert a.weight == 4
    assert a.compose(b) == b.compose(a)
    fa, fb = a.free_block(), b.free_block()
    assert fa * fb == fb * fa
