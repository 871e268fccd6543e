"""The Hecke cochain assembled term by term, as a reference.

reference_cochain is hecke.hecke_cochain before it moved to untwisted
coset coordinates: for each pair of a coset t of Gamma in SL2(Z) and a
representative t_i of Gamma', t_i^{-1} rep(t) = s y_j and
g^{-1} s g = gamma0 rep(t0), and each term (k, c) of the lift's value
on y_j moves to the coset ti = table(k)[t0] with the Gamma-element
gamma1 = rep(t0) k rep(ti)^{-1}.  The block at row (beta, t) and column
(b2, ti) is M(t_i) M(g) M(gamma0) sum c M(gamma1).  The suite compares
hecke_cochain with it entry for entry.
"""

from operator import mul

from artifact.exactlin import SparseIntMatrix
from artifact.hecke import hecke_lift


def reference_cochain(gamma, n, m, module, resolution):
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
