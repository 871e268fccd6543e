"""Closed-form invariants of congruence subgroups, independent of the program.

Standard formulas (Shimura, *Introduction to the Arithmetic Theory of
Automorphic Functions*, ch. 1-2; W. Stein, *Modular Forms: A Computational
Approach*, AMS GSM 79, ch. 6).  They are used to check the benchmark's
outputs against something the implementation did not compute.
"""

from fractions import Fraction
from math import gcd


def prime_factors(n):
    ps = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            ps.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        ps.append(n)
    return ps


def is_squarefree(n):
    return all(n % (p * p) for p in prime_factors(n))


def _phi(n):
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def gamma0_index(n):
    """[SL2(Z) : Gamma0(n)] = n * prod (1 + 1/p)."""
    out = Fraction(n)
    for p in prime_factors(n):
        out *= Fraction(p + 1, p)
    return int(out)


def gamma0_nu2(n):
    """Number of elliptic points of order 2 of Gamma0(n)."""
    if n % 4 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        out *= 1 + (0 if p == 2 else (1 if p % 4 == 1 else -1))
    return out


def gamma0_nu3(n):
    """Number of elliptic points of order 3 of Gamma0(n)."""
    if n % 9 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        out *= 1 + (0 if p == 3 else (1 if p % 3 == 1 else -1))
    return out


def gamma0_cusps(n):
    """Number of cusps of Gamma0(n): sum over d | n of phi(gcd(d, n/d))."""
    return sum(_phi(gcd(d, n // d)) for d in range(1, n + 1) if n % d == 0)


def gamma0_genus(n):
    g = (1 + Fraction(gamma0_index(n), 12) - Fraction(gamma0_nu2(n), 4)
         - Fraction(gamma0_nu3(n), 3) - Fraction(gamma0_cusps(n), 2))
    if g.denominator != 1:
        raise ArithmeticError("non-integral genus for Gamma0(%d)" % n)
    return int(g)


def cusp_form_dim(n, k):
    """dim S_k(Gamma0(n)) for even k >= 2."""
    g = gamma0_genus(n)
    if k == 2:
        return g
    return ((k - 1) * (g - 1) + (k // 4) * gamma0_nu2(n)
            + (k // 3) * gamma0_nu3(n) + (k // 2 - 1) * gamma0_cusps(n))


def gamma0_h1_rank(n, k):
    """Free rank of H^1(Gamma0(n), P(k - 2)) by Eichler-Shimura.

    2 dim S_k + #cusps for k >= 4; 2g + #cusps - 1 for k = 2 (trivial
    coefficients, where the constant Eisenstein class is missing).
    """
    c = gamma0_cusps(n)
    if k == 2:
        return 2 * gamma0_genus(n) + c - 1
    return 2 * cusp_form_dim(n, k) + c


def gamma1_free_rank(n):
    """Rank of Gamma1(n) as a free group, n >= 4.

    Gamma1(n) is torsion free and misses -I, so it is a free subgroup of
    index mu = n^2 prod (1 - 1/p^2) / 2 in PSL2(Z), whose Euler
    characteristic -1/6 gives rank 1 + mu / 6.
    """
    if n < 4:
        raise ValueError("Gamma1(%d) has torsion" % n)
    mu = Fraction(n * n, 2)
    for p in prime_factors(n):
        mu *= 1 - Fraction(1, p * p)
    rank = 1 + mu / 6
    if rank.denominator != 1:
        raise ArithmeticError("non-integral rank for Gamma1(%d)" % n)
    return int(rank)
