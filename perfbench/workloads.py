"""The benchmark's workloads and the checks on their outputs.

Each workload is one fixed ``artifact`` CLI command.  Its output is
checked twice: byte for byte against the output frozen from the seed
commit (``expected/<name>.txt``), and against a closed-form oracle from
``oracles.py`` that does not depend on the implementation.  The same
shapes exist at a tiny size for the harness self-test.
"""

from dataclasses import dataclass
from pathlib import Path

import oracles

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# A fresh process that computes nothing: interpreter start, package import
# and argparse, which every user pays on every run.
SETUP_ARGV = ("index", "--gamma0", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    why: str
    oracle: object     # oracle(stdout text) -> list of problems

    def expected(self):
        return (EXPECTED_DIR / (self.name + ".txt")).read_text()

    def check(self, stdout):
        """Problems with one run's stdout; an empty list means correct."""
        problems = []
        if stdout != self.expected():
            problems.append("output differs from expected/%s.txt" % self.name)
        try:
            problems.extend(self.oracle(stdout))
        except (ValueError, IndexError, KeyError) as err:
            problems.append("output does not parse: %s" % err)
        return problems


def free_rank(group_text):
    """Free rank of an abelian group printed as 'Z/2 + Z/4 + Z^150'."""
    rank = 0
    for part in group_text.strip().split(" + "):
        if part == "Z":
            rank += 1
        elif part.startswith("Z^"):
            rank += int(part[2:])
        elif not (part.startswith("Z/") or part == "0"):
            raise ValueError("not an abelian group: %r" % group_text)
    return rank


def _fields(stdout):
    """{first word: rest of line} for outputs like 'ambient Z/2 + Z^6'."""
    out = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest
    return out


def homology_oracle(level):
    def check(stdout):
        # Gamma0(N) without elliptic points is Z/2 x free, so by Kunneth
        # H_5 = H_5(Z/2) = Z/2.
        if oracles.gamma0_nu2(level) or oracles.gamma0_nu3(level):
            raise ValueError("oracle needs Gamma0(%d) without elliptic points"
                             % level)
        got = stdout.strip()
        return [] if got == "Z/2" else ["H_5 is %r, expected Z/2" % got]
    return check


def cohomology_oracle(level, weight):
    def check(stdout):
        want = oracles.gamma0_h1_rank(level, weight)
        got = free_rank(stdout)
        return [] if got == want else [
            "free rank %d, expected 2 dim S_%d + #cusps = %d"
            % (got, weight, want)]
    return check


def cuspidal_oracle(level, module_degree):
    def check(stdout):
        k = module_degree + 2
        fields = _fields(stdout)
        problems = []
        want = 2 * oracles.cusp_form_dim(level, k)
        if free_rank(fields["cuspidal"]) != want:
            problems.append("cuspidal %r, expected free rank 2 dim S_%d = %d"
                            % (fields["cuspidal"], k, want))
        want = oracles.gamma0_h1_rank(level, k)
        if free_rank(fields["ambient"]) != want:
            problems.append("ambient %r, expected free rank %d"
                            % (fields["ambient"], want))
        return problems
    return check


def hecke_oracle(level, p):
    def check(stdout):
        # Weight 2, N squarefree, p prime to N: on H^1 the Eisenstein part
        # has rank #cusps - 1 and eigenvalue p + 1; the cuspidal part has
        # rank 2g and |a_p| <= 2 sqrt(p) (Hasse).
        if not oracles.is_squarefree(level) or level % p == 0:
            raise ValueError("oracle needs squarefree N prime to p")
        line = stdout.strip()
        head, _, body = line.partition(" ")
        if head != "T%d" % p or not body.startswith("{"):
            raise ValueError("unexpected Hecke line %r" % line)
        eig = [int(t) for t in body.strip("{}").split(",")]
        eisenstein = [e for e in eig if e == p + 1]
        cusp = [e for e in eig if e != p + 1]
        problems = []
        if len(eig) != oracles.gamma0_h1_rank(level, 2):
            problems.append("%d integer eigenvalues, expected rank H^1 = %d"
                            % (len(eig), oracles.gamma0_h1_rank(level, 2)))
        if len(eisenstein) != oracles.gamma0_cusps(level) - 1:
            problems.append("eigenvalue %d appears %d times, expected "
                            "#cusps - 1" % (p + 1, len(eisenstein)))
        if any(e * e > 4 * p for e in cusp):
            problems.append("cuspidal eigenvalue beyond 2 sqrt(%d): %s"
                            % (p, cusp))
        return problems
    return check


def generators_oracle(level):
    def check(stdout):
        problems = []
        mats = [[int(t) for t in line.split()] for line in stdout.splitlines()]
        for a, b, c, d in mats:
            if a * d - b * c != 1:
                problems.append("det %d != 1" % (a * d - b * c))
            if c % level or a % level != 1 % level or d % level != 1 % level:
                problems.append("(%d %d %d %d) not in Gamma1(%d)"
                                % (a, b, c, d, level))
        # a generating set of a free group of rank r has at least r elements
        if len(mats) < oracles.gamma1_free_rank(level):
            problems.append("%d generators, free rank is %d"
                            % (len(mats), oracles.gamma1_free_rank(level)))
        return problems
    return check


def _homology(level):
    return ("homology", "--gamma0", str(level), "--degree", "5", "--contract")


def _cohomology(level, weight):
    return ("cohomology", "--gamma0", str(level), "--weight", str(weight),
            "--degree", "1")


def _cuspidal(level, module_degree):
    return ("cuspidal", "--gamma0", str(level),
            "--module-degree", str(module_degree))


def _hecke(level, p):
    return ("hecke", "--gamma0", str(level), "--weight", "2", "--ops", str(p))


def _generators(level):
    return ("generators", "--gamma1", str(level))


WORKLOADS = {w.name: w for w in (
    Workload("homology-l300", _homology(300),
             "restriction, tensor with Z and chain contraction of dense "
             "boundaries dominate; the one workload with large memory",
             homology_oracle(300)),
    Workload("cohomology-l64-w6", _cohomology(64, 6),
             "SNF without transforms, the d.d check and cochain assembly; "
             "no lattice solves",
             cohomology_oracle(64, 6)),
    Workload("cuspidal-l17-w4", _cuspidal(17, 2),
             "lattice layer: QuotientLattice solves and SNF with transforms",
             cuspidal_oracle(17, 2)),
    Workload("hecke-l38-t11", _hecke(38, 11),
             "Hecke chain-map lifting, charpoly and integer_roots, whose "
             "trial division takes half the run",
             hecke_oracle(38, 11)),
    Workload("generators-g1-40", _generators(40),
             "generator word search, which no other workload reaches",
             generators_oracle(40)),
)}

# The same five shapes at a size that runs in well under a second.
TINY = {w.name: w for w in (
    Workload("tiny-homology-l11", _homology(11), "self-test",
             homology_oracle(11)),
    Workload("tiny-cohomology-l11-w6", _cohomology(11, 6), "self-test",
             cohomology_oracle(11, 6)),
    Workload("tiny-cuspidal-l11-w4", _cuspidal(11, 2), "self-test",
             cuspidal_oracle(11, 2)),
    Workload("tiny-hecke-l11-t2", _hecke(11, 2), "self-test",
             hecke_oracle(11, 2)),
    Workload("tiny-generators-g1-5", _generators(5), "self-test",
             generators_oracle(5)),
)}
