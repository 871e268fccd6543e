"""Shared test generators: random chain complexes with known homology.

A complex is grown from a block sum of elementary pieces (free generators
and torsion blocks), whose homology is known by construction, by applying
simple homotopy expansions (the inverse operation of a collapse).  The
expansions change the ranks and fill in the boundary matrices but never the
homology, so the result is a nontrivial random complex with an oracle.

Also here: sums, scalings and comparisons of group-ring chains
({generator index: GroupRingElement}), for the resolution identities the
tests check; ranks modulo primes, an oracle for torsion that shares
no code with the Smith form; and the transfer maps of a sequence of
collapses composed one collapse at a time, the reference for
chaincx.transfer.
"""

from collections import defaultdict

from artifact.chaincx import FreeChainComplexZ, verify_complex
from artifact.exactlin import AbelianInvariants, IntMatrix, SparseIntMatrix
from artifact.resolutions import ChainSum


def chain_add(a, b):
    out = ChainSum()
    out.add_chain(a)
    out.add_chain(b)
    return out.chain()


def chain_neg(a):
    return {i: -gre for i, gre in a.items()}


def chain_sub(a, b):
    return chain_add(a, chain_neg(b))


def chain_scale(a, c):
    if not c:
        return {}
    return {i: gre * c for i, gre in a.items()}


def chain_is_zero(a):
    return all(gre.is_zero() for gre in a.values())


def chains_equal(a, b):
    return chain_is_zero(chain_sub(a, b))


def invariant_factors(orders):
    """Canonical divisibility chain for a direct sum of cyclic groups."""
    primes = defaultdict(list)
    for m in orders:
        mm = m
        p = 2
        while p * p <= mm:
            if mm % p == 0:
                e = 0
                while mm % p == 0:
                    mm //= p
                    e += 1
                primes[p].append(p ** e)
            p += 1
        if mm > 1:
            primes[mm].append(mm)
    depth = max((len(v) for v in primes.values()), default=0)
    out = []
    for i in range(depth):
        f = 1
        for v in primes.values():
            ordered = sorted(v, reverse=True)
            if i < len(ordered):
                f *= ordered[i]
        out.append(f)
    return sorted(out)


def dense(M):
    """The entries of a SparseIntMatrix as an IntMatrix (test-side reference)."""
    out = IntMatrix.zeros(M.rows, M.cols)
    for j, col in enumerate(M.columns):
        for i, v in col.items():
            out.data[i][j] = v
    return out


def base_complex(rng, max_top=2):
    """Block sum of free summands and torsion blocks; returns (C, oracle).

    oracle[n] lists the homology of degree n as (torsion list, free rank).
    """
    top = rng.randint(1, max_top)
    ranks = [0] * (top + 1)
    free = [0] * (top + 1)
    torsion = [[] for _ in range(top + 1)]
    blocks = []  # (degree n, multiplier m): Z -m-> Z placed at (n, n-1)
    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.5:
            n = rng.randint(0, top)
            ranks[n] += 1
            free[n] += 1
        else:
            n = rng.randint(1, top)
            m = rng.randint(2, 9)
            blocks.append((n, m, ranks[n], ranks[n - 1]))
            ranks[n] += 1
            ranks[n - 1] += 1
            torsion[n - 1].append(m)
    diffs = []
    for n in range(1, top + 1):
        d = IntMatrix.zeros(ranks[n - 1], ranks[n])
        for bn, m, src, tgt in blocks:
            if bn == n:
                d.data[tgt][src] = m
        diffs.append(d)
    oracle = [AbelianInvariants(invariant_factors(torsion[n]), free[n])
              for n in range(top + 1)]
    c = FreeChainComplexZ(ranks, diffs)
    verify_complex(c)
    return c, oracle


def expand_once(C, rng):
    """One simple homotopy expansion at a random degree; homology unchanged.

    Adds a source generator a at degree n and a target b at degree n-1 with
    d(a) = eps*b + tau; the remaining boundary entries are forced by
    d.d = 0.  Expanding at top_degree+1 grows the complex upward.
    """
    n = rng.randint(1, C.top_degree + 1)
    ranks = list(C.ranks)
    diffs = [dense(d) for d in C.diffs]
    if n == len(ranks):
        ranks.append(0)
        diffs.append(IntMatrix.zeros(ranks[n - 1], 0))
    eps = rng.choice([1, -1])
    r_tgt, r_src = ranks[n - 1], ranks[n]
    tau = [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(r_tgt)]
    rho = [rng.randint(-2, 2) if rng.random() < 0.5 else 0 for _ in range(r_src)]

    d_n = diffs[n - 1]
    grown = IntMatrix.zeros(r_tgt + 1, r_src + 1)
    for t in range(r_tgt):
        for s in range(r_src):
            # existing source s picks up rho_s * eps * tau on old targets
            grown.data[t][s] = d_n.data[t][s] + rho[s] * eps * tau[t]
        grown.data[t][r_src] = tau[t]
    for s in range(r_src):
        grown.data[r_tgt][s] = rho[s]
    grown.data[r_tgt][r_src] = eps
    diffs[n - 1] = grown

    if n + 1 <= len(ranks) - 1:
        d_up = diffs[n]
        grown_up = IntMatrix.zeros(r_src + 1, d_up.cols)
        for t in range(r_src):
            grown_up.data[t] = d_up.data[t][:]
        for c in range(d_up.cols):
            # alpha(c) = -eps * <rho, existing column c>
            grown_up.data[r_src][c] = -eps * sum(
                rho[t] * d_up.data[t][c] for t in range(r_src))
        diffs[n] = grown_up
    if n - 1 >= 1:
        d_dn = diffs[n - 2]
        grown_dn = IntMatrix.zeros(d_dn.rows, r_tgt + 1)
        for u in range(d_dn.rows):
            grown_dn.data[u] = d_dn.data[u] + [
                -eps * sum(tau[t] * d_dn.data[u][t] for t in range(r_tgt))]
        diffs[n - 2] = grown_dn

    ranks[n] += 1
    ranks[n - 1] += 1
    out = FreeChainComplexZ(ranks, diffs)
    verify_complex(out)
    return out


def random_complex(rng, expansions=10, max_top=2):
    """Random complex with known homology oracle: (complex, oracle list).

    The oracle covers degrees 0..top of the *returned* complex (expansion
    may have grown the top degree; the new degrees are exact).
    """
    c, oracle = base_complex(rng, max_top=max_top)
    for _ in range(rng.randint(0, expansions)):
        c = expand_once(c, rng)
    while len(oracle) < c.top_degree + 1:
        oracle.append(AbelianInvariants([], 0))
    return c, oracle


def rank_mod(M, p):
    """Rank of an integer matrix over Z/p, by sparse row elimination.

    Each row is reduced by the stored pivot rows in order of its leading
    column until it is zero or leads in a new column, where it is stored
    scaled to a leading 1.  Independent of the Smith form code.
    """
    pivots = {}
    for row in M.row_dicts():
        row = {j: v % p for j, v in row.items() if v % p}
        while row:
            j = min(row)
            piv = pivots.get(j)
            if piv is None:
                inv = pow(row[j], -1, p)
                pivots[j] = {k: v * inv % p for k, v in row.items()}
                break
            c = row[j]
            for k, v in piv.items():
                w = (row.get(k, 0) - c * v) % p
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
    return len(pivots)


LARGE_PRIME = (1 << 61) - 1


def rank_drop_mod(M, p):
    """The number of invariant factors of Z^rows / colspan(M) divisible by
    the prime p: one for each unit the rank of M drops from Q to Z/p.  The
    rank over Q is taken as the rank modulo LARGE_PRIME, a prime far above
    every entry."""
    return rank_mod(M, LARGE_PRIME) - rank_mod(M, p)


def _add_into(acc, vec, c):
    """acc += c * vec, for sparse vectors {index: entry}, zeros dropped."""
    for k, v in vec.items():
        w = acc.get(k, 0) + c * v
        if w:
            acc[k] = w
        else:
            acc.pop(k, None)


def reference_transfer(C, trace):
    """f: C -> D, g: D -> C and a homotopy h with g f - 1 = d h + h d, for
    the contraction D of C by the collapses of trace, in order.

    Written from one collapse of (a, b) in degree n, with d(a) = eps b + r
    and lambda(s) the coefficient of b in d(s): f(a) = 0, f(b) = -eps r,
    g(s) = s - eps lambda(s) a and h(b) = -eps a, each the identity (h
    zero) elsewhere.  The composites are updated after every collapse,
    F <- f F, G <- G g and H <- H + G h F, while the boundaries are
    eliminated alongside in plain dicts.  Returns (f, g, h), one
    SparseIntMatrix per degree; h[n] maps degree n to degree n + 1.
    """
    top = C.top_degree
    d = [None] + [{s: dict(col) for s, col in enumerate(C.boundary(n).columns)}
                  for n in range(1, top + 1)]
    F = [{x: {x: 1} for x in range(r)} for r in C.ranks]
    G = [{x: {x: 1} for x in range(r)} for r in C.ranks]
    H = [{x: {} for x in range(r)} for r in C.ranks]
    for n, a, b in trace:
        col_a = d[n][a]
        eps = col_a[b]
        r = {t: v for t, v in col_a.items() if t != b}
        lam = {s: col[b] for s, col in d[n].items() if s != a and b in col}
        for x, img in F[n - 1].items():
            c = img.pop(b, 0)
            if c:
                _add_into(H[n - 1][x], G[n][a], -eps * c)
                _add_into(img, r, -eps * c)
        for img in F[n].values():
            img.pop(a, None)
        for s, c in lam.items():
            _add_into(G[n][s], G[n][a], -eps * c)
            _add_into(d[n][s], col_a, -eps * c)
        del G[n][a], G[n - 1][b], d[n][a]
        if n < top:
            for col in d[n + 1].values():
                col.pop(a, None)
        if n > 1:
            del d[n - 1][b]
    alive = [sorted(g) for g in G]
    index = [{x: i for i, x in enumerate(gens)} for gens in alive]
    f = [SparseIntMatrix(len(alive[n]), r, [
        {index[n][t]: v for t, v in F[n][x].items()} for x in range(r)])
        for n, r in enumerate(C.ranks)]
    g = [SparseIntMatrix(r, len(alive[n]), [G[n][x] for x in alive[n]])
         for n, r in enumerate(C.ranks)]
    h = [SparseIntMatrix(C.rank(n + 1), r, [H[n][x] for x in range(r)])
         for n, r in enumerate(C.ranks)]
    return f, g, h
