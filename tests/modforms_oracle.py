"""Closed-form invariants of Gamma_0(N), the indices of Gamma_1(N) and
Gamma(N), and the q-expansion of a normalized eigenform from its a_p,
independent of the implementation.

Used as a test oracle: nothing here imports the package under test.  The
formulas are the classical ones (Shimura, *Introduction to the Arithmetic
Theory of Automorphic Functions*, ch. 1-2; W. Stein, *Modular Forms: A
Computational Approach*, AMS GSM 79, ch. 6):

  mu(N)    = N * prod_{p | N} (1 + 1/p)
  [SL2(Z) : Gamma_1(N)] = N^2 * prod_{p | N} (1 - 1/p^2)
  [SL2(Z) : Gamma(N)]   = N^3 * prod_{p | N} (1 - 1/p^2)
  nu2(N)   = 0 if 4 | N, else prod_{p | N} (1 + (-4/p))
  nu3(N)   = 0 if 9 | N, else prod_{p | N} (1 + (-3/p))
  cusps(N) = sum_{d | N} phi(gcd(d, N/d))
  g(N)     = 1 + mu/12 - nu2/4 - nu3/3 - cusps/2

and, for even k >= 2,

  dim S_k  = (k-1) mu/12 + (floor(k/4) - (k-1)/4) nu2
             + (floor(k/3) - (k-1)/3) nu3 - cusps/2 + [k == 2].

Everything is evaluated in exact rational arithmetic and a result that is
not an integer raises, so a wrong term cannot hide behind truncation.
By Eichler-Shimura the free rank of H^1(Gamma_0(N), P(k-2)) is
2 dim S_k + cusps for even k >= 4 and 2g + cusps - 1 for k = 2; for odd k
it is 0, since -I lies in Gamma_0(N) and acts on P(k-2) by -1.
"""

from fractions import Fraction
from math import gcd


def _integer(value, what):
    """Return the rational `value` as an int; raise if it is not one."""
    value = Fraction(value)
    if value.denominator != 1:
        raise ArithmeticError("%s is %s, not an integer" % (what, value))
    return value.numerator


def prime_factors(n):
    """The distinct primes dividing n, in increasing order."""
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


def euler_phi(n):
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def kronecker_minus_four(p):
    """(-4/p) for a prime p: 0 at p = 2, else +1 or -1 as p is 1 or 3 mod 4."""
    if p == 2:
        return 0
    return 1 if p % 4 == 1 else -1


def kronecker_minus_three(p):
    """(-3/p) for a prime p: 0 at p = 3, else +1 or -1 as p is 1 or 2 mod 3."""
    if p == 3:
        return 0
    return 1 if p % 3 == 1 else -1


def index(n):
    """mu(N) = [SL2(Z) : Gamma_0(N)]."""
    mu = Fraction(n)
    for p in prime_factors(n):
        mu *= 1 + Fraction(1, p)
    return _integer(mu, "index of Gamma_0(%d)" % n)


def gamma1_index(n):
    """[SL2(Z) : Gamma_1(N)] = mu(N) phi(N), as Gamma_0(N) / Gamma_1(N) is
    (Z/N)^*."""
    out = Fraction(n * n)
    for p in prime_factors(n):
        out *= 1 - Fraction(1, p * p)
    return _integer(out, "index of Gamma_1(%d)" % n)


def principal_index(n):
    """[SL2(Z) : Gamma(N)] = |SL2(Z/N)|."""
    return n * gamma1_index(n)


def nu2(n):
    """Number of elliptic points of order 2 of Gamma_0(N)."""
    if n % 4 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        out *= 1 + kronecker_minus_four(p)
    return out


def nu3(n):
    """Number of elliptic points of order 3 of Gamma_0(N)."""
    if n % 9 == 0:
        return 0
    out = 1
    for p in prime_factors(n):
        out *= 1 + kronecker_minus_three(p)
    return out


def cusps(n):
    """Number of cusps of Gamma_0(N)."""
    return sum(euler_phi(gcd(d, n // d))
               for d in range(1, n + 1) if n % d == 0)


def genus(n):
    """Genus of the modular curve X_0(N)."""
    g = (1 + Fraction(index(n), 12) - Fraction(nu2(n), 4)
         - Fraction(nu3(n), 3) - Fraction(cusps(n), 2))
    return _integer(g, "genus of X_0(%d)" % n)


def dim_cusp_forms(n, k):
    """dim S_k(Gamma_0(N)); zero for odd k, since -I is in Gamma_0(N)."""
    if k < 2:
        raise ValueError("weight %d is below 2" % k)
    if k % 2:
        return 0
    d = (Fraction((k - 1) * index(n), 12)
         + (k // 4 - Fraction(k - 1, 4)) * nu2(n)
         + (k // 3 - Fraction(k - 1, 3)) * nu3(n)
         - Fraction(cusps(n), 2)
         + (1 if k == 2 else 0))
    return _integer(d, "dim S_%d(Gamma_0(%d))" % (k, n))


def h1_free_rank(n, k):
    """Free rank of H^1(Gamma_0(N), P(k-2)) by Eichler-Shimura."""
    if k % 2:
        return 0
    if k == 2:
        return 2 * genus(n) + cusps(n) - 1
    return 2 * dim_cusp_forms(n, k) + cusps(n)


def expand_eigenform(ap, level, bound):
    """Coefficients a_1..a_bound of a normalized eigenform from its a_p.

    ap maps primes to eigenvalues.  a_1 = 1, a_{rs} = a_r a_s for coprime
    r and s, and prime powers follow a_{p^m} = a_{p^{m-1}} a_p
    - p a_{p^{m-2}} when p does not divide the level and a_{p^m} = a_p^m
    when it does.  Raises KeyError when a required eigenvalue is absent
    (every prime up to bound is required) and ValueError on a level
    below 1.
    """
    if level < 1:
        raise ValueError("level must be >= 1, got %d" % level)
    if bound < 1:
        return []
    coeff = [0] * (bound + 1)
    coeff[1] = 1
    for x in range(2, bound + 1):
        p = prime_factors(x)[0]
        q = p
        rest = x // p
        while rest % p == 0:
            q *= p
            rest //= p
        if rest > 1:
            # q and rest are coprime and both smaller than x
            coeff[x] = coeff[q] * coeff[rest]
        elif x == p:
            coeff[x] = ap[p]
        elif level % p == 0:
            coeff[x] = coeff[x // p] * ap[p]
        else:
            coeff[x] = coeff[x // p] * ap[p] - p * coeff[x // (p * p)]
    return coeff[1:]
