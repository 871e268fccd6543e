"""Shared test generators: random chain complexes with known homology.

A complex is grown from a block sum of elementary pieces (free generators
and torsion blocks), whose homology is known by construction, by applying
simple homotopy expansions (the inverse operation of a collapse).  The
expansions change the ranks and fill in the boundary matrices but never the
homology, so the result is a nontrivial random complex with an oracle.

Also here: sums, scalings and comparisons of group-ring chains
({generator index: GroupRingElement}), for the resolution identities the
tests check; and ranks modulo primes, an oracle for torsion that shares
no code with the Smith form.
"""

from collections import defaultdict

from artifact.chaincx import FreeChainComplexZ, verify_complex
from artifact.exactlin import AbelianInvariants, IntMatrix
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
