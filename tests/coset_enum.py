"""Coset enumeration used as an independent generation certificate.

Plain Todd-Coxeter over the presentation SL2(Z) = <s, u | s^4, s^2 u^-3>
(the amalgam C4 *_{C2} C6; the matrices S and U satisfy both relators,
and the presentation is the classical one).  Given claimed generators of
a finite-index subgroup H as words in s, u, a completed enumeration
returns the exact index [G : H].  If every claimed generator passes the
subgroup membership test and the enumerated index equals the transversal
size of Gamma, then H = Gamma.

Letters are signed integers: +1 = s, -1 = s^-1, +2 = u, -2 = u^-1.
"""

from collections import deque

RELATORS = [(1, 1, 1, 1), (1, 1, -2, -2, -2)]
LETTERS = (1, -1, 2, -2)


class CosetTable:
    def __init__(self, relators, subgroup_words, max_cosets=200000):
        self.relators = [tuple(r) for r in relators]
        self.subgroup_words = [tuple(w) for w in subgroup_words]
        self.max_cosets = max_cosets
        self.tab = [dict()]
        self.parent = [0]
        self._dead = deque()

    def _rep(self, c):
        p = self.parent
        while p[c] != c:
            p[c] = p[p[c]]
            c = p[c]
        return c

    def _define(self, c, x):
        n = len(self.parent)
        if n > self.max_cosets:
            raise RuntimeError("coset enumeration exceeded limit")
        self.parent.append(n)
        self.tab.append({})
        self.tab[c][x] = n
        self.tab[n][-x] = c
        return n

    def _merge(self, a, b):
        ra, rb = self._rep(a), self._rep(b)
        if ra == rb:
            return
        lo, hi = (ra, rb) if ra < rb else (rb, ra)
        self.parent[hi] = lo
        self._dead.append(hi)

    def _coincidence(self, a, b):
        self._merge(a, b)
        while self._dead:
            y = self._dead.popleft()
            row = self.tab[y]
            self.tab[y] = {}
            for x, d in row.items():
                # drop the mirror edge d * x^-1 = y before reinstalling
                if self.tab[d].get(-x) == y:
                    del self.tab[d][-x]
                mu, nu = self._rep(y), self._rep(d)
                tmu = self.tab[mu]
                if x in tmu:
                    self._merge(nu, tmu[x])
                elif -x in self.tab[nu]:
                    self._merge(mu, self.tab[nu][-x])
                else:
                    tmu[x] = nu
                    self.tab[nu][-x] = mu

    def _scan_and_fill(self, c, w):
        # require c * w = c, defining cosets as needed
        f, i = c, 0
        b, r = c, len(w) - 1
        while True:
            while i <= r and w[i] in self.tab[f]:
                f = self.tab[f][w[i]]
                i += 1
            if i > r:
                if f != b:
                    self._coincidence(f, b)
                return
            while r >= i and -w[r] in self.tab[b]:
                b = self.tab[b][-w[r]]
                r -= 1
            if r < i:
                self._coincidence(f, b)
                return
            if r == i:
                # deduction: f * w[i] = b
                self.tab[f][w[i]] = b
                self.tab[b][-w[i]] = f
                return
            self._define(f, w[i])

    def enumerate(self):
        """Run to completion; return the number of live cosets."""
        for w in self.subgroup_words:
            self._scan_and_fill(0, w)
        i = 0
        while i < len(self.tab):
            if self._rep(i) == i:
                for w in self.relators:
                    self._scan_and_fill(i, w)
                    if self._rep(i) != i:
                        break
                if self._rep(i) == i:
                    for x in LETTERS:
                        if x not in self.tab[i]:
                            self._define(i, x)
            i += 1
        self.validate()
        return sum(1 for c in range(len(self.parent)) if self._rep(c) == c)

    def validate(self):
        """Check the finished table is a genuine closed coset action.

        Raises RuntimeError on the first defect, so the check survives
        python -O.
        """
        live = [c for c in range(len(self.parent)) if self._rep(c) == c]
        for c in live:
            for x in LETTERS:
                if x not in self.tab[c]:
                    raise RuntimeError("incomplete row")
                d = self.tab[c][x]
                if self._rep(d) != d:
                    raise RuntimeError("edge into dead coset")
                if self.tab[d][-x] != c:
                    raise RuntimeError("mirror mismatch")
        for c in live:
            for w in self.relators:
                f = c
                for x in w:
                    f = self.tab[f][x]
                if f != c:
                    raise RuntimeError("relator does not close")
        for w in self.subgroup_words:
            f = 0
            for x in w:
                f = self.tab[f][x]
            if f != 0:
                raise RuntimeError("subgroup word does not fix base coset")


def word_from_matrix(g):
    """g as a letter tuple in s, u via the tree decomposition."""
    from artifact.sl2z import decompose

    word = decompose(g)
    out = []
    for letter in word.letters:
        if letter == "S":
            out.append(1)
        elif letter == "U":
            out.append(2)
        elif letter == "U2":
            out.extend((2, 2))
        else:
            raise ValueError("unknown letter %r" % (letter,))
    out.extend([2] * word.u_power)
    return tuple(out)


def enumerated_index(gens):
    """[SL2(Z) : <gens>] by Todd-Coxeter, with the final table validated."""
    words = [word_from_matrix(g) for g in gens]
    return CosetTable(RELATORS, words).enumerate()
