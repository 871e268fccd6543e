"""Regular CW-complexes, discrete vector fields, and Morse-style reduction.

A finite regular CW-complex is stored purely combinatorially: the number of
cells in each dimension, and for every cell of positive dimension the list
of its boundary faces with incidence coefficient +1 or -1.  Regularity shows
up here as a set of checkable conditions: every incidence coefficient is a
unit, a cell never meets the same face twice, an edge has exactly two
distinct endpoints, and the induced integer chain complex squares to zero.

A discrete vector field on such a complex is a set of arrows, each pairing
a k-cell (the source) with a (k+1)-cell (the target) whose boundary contains
it, no cell taking part in more than one arrow.  A field is admissible when
the chain relation between arrows (follow an arrow up, step to another face
of the target, follow that cell's arrow up, ...) contains no circuit.  The
cells in no arrow are the critical cells.  Collapsing the cellular complex
along the arrows of an admissible field (chaincx.contract) leaves a
complex on the critical cells with the same homology, by algebraic Morse
theory (Forman; Skoldberg).

Complex file format (used by the shipped fixtures and the CLI): a header
line "cells c0 c1 ... cD" with the per-dimension cell counts, then one line
per cell of positive dimension,

    k i: f1+, f2-, ...

listing the faces of the i-th k-cell by their (k-1)-dimensional index and
incidence sign.  Blank lines and lines starting with '#' are ignored.
"""

from collections import deque
from functools import lru_cache
from importlib import resources

from .chaincx import FreeChainComplexZ, contract, verify_complex
from .errors import (CompositionNonzero, ConfigError, EliminationError,
                     FormatError, MalformedArrow, NotAdmissible)
from .exactlin import SparseIntMatrix


class RegularCWComplex:
    """Finite regular CW-complex given by boundary incidence lists.

    counts[k] is the number of k-cells.  boundaries[k][i] lists the faces
    of the i-th k-cell as (face_index, sign) pairs; the vertex entry
    boundaries[0] may be omitted by passing one list per positive
    dimension.  Construction runs validate().  Complexes are treated as
    read-only once built, so they can be shared freely between consumers
    and threads.
    """

    def __init__(self, counts, boundaries):
        self.counts = [int(c) for c in counts]
        boundaries = list(boundaries)
        if len(boundaries) == len(self.counts) - 1:
            boundaries = [[[] for _ in range(self.counts[0])]] + boundaries
        if len(boundaries) != len(self.counts):
            raise FormatError(
                "expected boundary lists for %d dimensions, got %d"
                % (len(self.counts), len(boundaries)))
        self.faces = [[tuple((int(f), int(s)) for f, s in cell)
                       for cell in level] for level in boundaries]
        self._cofaces = None
        self.validate()

    @property
    def dimension(self):
        return len(self.counts) - 1

    def validate(self):
        """Check the combinatorial regularity conditions and d.d = 0."""
        for k, count in enumerate(self.counts):
            if count < 0:
                raise FormatError("negative cell count in dimension %d" % k)
            if len(self.faces[k]) != count:
                raise FormatError(
                    "dimension %d: %d cells declared, %d boundary lists"
                    % (k, count, len(self.faces[k])))
        for cell in self.faces[0]:
            if cell:
                raise FormatError("a vertex has no boundary faces")
        for k in range(1, self.dimension + 1):
            below = self.counts[k - 1]
            for i, cell in enumerate(self.faces[k]):
                seen = set()
                for f, s in cell:
                    if not 0 <= f < below:
                        raise FormatError(
                            "cell (%d,%d) has face %d out of range" % (k, i, f))
                    if s not in (1, -1):
                        raise FormatError(
                            "cell (%d,%d) has incidence %d, not a unit"
                            % (k, i, s))
                    if f in seen:
                        # a regular attaching map is injective on cells, so
                        # the same face cannot occur twice
                        raise FormatError(
                            "cell (%d,%d) meets face %d twice" % (k, i, f))
                    seen.add(f)
                if k == 1:
                    signs = sorted(s for _, s in cell)
                    if signs != [-1, 1]:
                        raise FormatError(
                            "edge %d needs two distinct endpoints with "
                            "opposite signs" % i)
                elif len(cell) < 2:
                    raise FormatError(
                        "cell (%d,%d) has fewer than two faces" % (k, i))
        # d.d = 0, accumulated sparsely so large complexes stay cheap
        for k in range(2, self.dimension + 1):
            for i, cell in enumerate(self.faces[k]):
                acc = {}
                for f, s in cell:
                    for g, t in self.faces[k - 1][f]:
                        acc[g] = acc.get(g, 0) + s * t
                for g, v in acc.items():
                    if v:
                        raise CompositionNonzero(
                            "d.d != 0 at cell (%d,%d), face %d: %d"
                            % (k, i, g, v))

    def coface_table(self):
        """cofaces[k][i] = indices of the (k+1)-cells having cell i as a face."""
        if self._cofaces is None:
            table = [[[] for _ in range(c)] for c in self.counts]
            for k in range(1, self.dimension + 1):
                for j, cell in enumerate(self.faces[k]):
                    for f, _ in cell:
                        table[k - 1][f].append(j)
            self._cofaces = table
        return self._cofaces

    def as_chain_complex(self):
        """The cellular chain complex: column j of d_n is the boundary of
        n-cell j."""
        diffs = [SparseIntMatrix(self.counts[n - 1], self.counts[n],
                                 [dict(cell) for cell in self.faces[n]])
                 for n in range(1, self.dimension + 1)]
        return FreeChainComplexZ(self.counts, diffs)

    def to_text(self):
        """Serialize in the complex file format (see the module docstring)."""
        lines = ["cells " + " ".join(str(c) for c in self.counts)]
        for k in range(1, self.dimension + 1):
            for i, cell in enumerate(self.faces[k]):
                toks = ["%d%s" % (f, "+" if s > 0 else "-") for f, s in cell]
                lines.append("%d %d: %s" % (k, i, ", ".join(toks)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Parse the complex file format; FormatError on malformed input."""
        counts = None
        boundaries = None
        filled = set()
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if counts is None:
                parts = line.split()
                if parts[0] != "cells" or len(parts) < 2:
                    raise FormatError("line %d: expected 'cells c0 c1 ...'" % ln)
                try:
                    counts = [int(p) for p in parts[1:]]
                except ValueError:
                    raise FormatError("line %d: bad cell count" % ln)
                boundaries = [[[] for _ in range(c)] for c in counts]
                continue
            head, sep, tail = line.partition(":")
            if not sep:
                raise FormatError("line %d: missing ':'" % ln)
            try:
                k, i = (int(p) for p in head.split())
            except ValueError:
                raise FormatError("line %d: expected 'dim index:'" % ln)
            if not 1 <= k < len(counts) or not 0 <= i < counts[k]:
                raise FormatError("line %d: cell (%d,%d) out of range"
                                  % (ln, k, i))
            if (k, i) in filled:
                raise FormatError("line %d: cell (%d,%d) listed twice"
                                  % (ln, k, i))
            filled.add((k, i))
            cell = []
            for tok in tail.replace(",", " ").split():
                if tok[-1] == "+":
                    sign = 1
                elif tok[-1] == "-":
                    sign = -1
                else:
                    raise FormatError("line %d: face token %r has no sign"
                                      % (ln, tok))
                try:
                    cell.append((int(tok[:-1]), sign))
                except ValueError:
                    raise FormatError("line %d: bad face index in %r"
                                      % (ln, tok))
            boundaries[k][i] = cell
        if counts is None:
            raise FormatError("no 'cells' header line")
        return cls(counts, boundaries)


def save_complex(X, path):
    with open(path, "w") as fh:
        fh.write(X.to_text())


def load_complex(path):
    """Read a complex file: ConfigError naming a path that cannot be read,
    FormatError on bytes that are not UTF-8, as on any malformed file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        raise FormatError("%s is not UTF-8: %s" % (path, err)) from None
    except OSError as err:
        raise ConfigError("cannot read %s: %s" % (path, err.strerror)) from None
    return RegularCWComplex.from_text(text)


def cubical_complex(top_cells):
    """Build the closure of a set of axis-aligned cubical cells.

    Each generating cell is (base, axes): an integer ambient point and the
    strictly increasing tuple of axes the cell spans, so ((0,2), (1,)) is
    the edge from (0,2) to (0,3).  Faces are generated downward with the
    product orientation: the boundary of a cell spanning axes a_1 < ... < a_k
    contributes (-1)^(j-1) * (front_j - back_j) for the j-th axis.  Cells of
    each dimension are indexed in sorted order, which makes the construction
    deterministic.  Returns the complex; d.d = 0 holds by construction and
    is still checked.
    """
    ambient = None
    by_dim = {}

    def add(base, axes):
        nonlocal ambient
        if ambient is None:
            ambient = len(base)
        if len(base) != ambient:
            raise FormatError("cubical cells live in different ambients")
        if list(axes) != sorted(set(axes)) or any(
                not 0 <= a < ambient for a in axes):
            raise FormatError("bad axis tuple %r" % (axes,))
        key = (tuple(int(b) for b in base), tuple(axes))
        level = by_dim.setdefault(len(axes), set())
        if key in level:
            return
        level.add(key)
        for j, a in enumerate(key[1]):
            rest = key[1][:j] + key[1][j + 1:]
            front = list(key[0])
            front[a] += 1
            add(key[0], rest)
            add(tuple(front), rest)

    for base, axes in top_cells:
        add(tuple(base), tuple(axes))
    if not by_dim:
        raise FormatError("a complex needs at least one cell")
    dim = max(by_dim)
    index = {}
    counts = []
    for k in range(dim + 1):
        cells = sorted(by_dim.get(k, ()))
        counts.append(len(cells))
        for pos, key in enumerate(cells):
            index[key] = pos
    boundaries = [[[] for _ in range(c)] for c in counts]
    for k in range(1, dim + 1):
        for base, axes in sorted(by_dim.get(k, ())):
            cell = []
            for j, a in enumerate(axes):
                sign = -1 if j % 2 else 1
                rest = axes[:j] + axes[j + 1:]
                front = list(base)
                front[a] += 1
                cell.append((index[(tuple(front), rest)], sign))
                cell.append((index[(base, rest)], -sign))
            boundaries[k][index[(base, axes)]] = cell
    return RegularCWComplex(counts, boundaries)


@lru_cache(maxsize=1)
def bing_house():
    """The two-room house with 72 vertices, 154 edges and 83 squares.

    Contractible, yet every admissible discrete vector field on it leaves
    at least two critical cells: a one-critical field would pair the edges
    outside a spanning tree with 2-cells, and since every edge here bounds
    at least two squares such a pairing always closes a circuit.  The
    incidence data ships with the package; scripts/make_bing_house.py
    rebuilds it from the unit-square description and re-checks the
    homology.
    """
    data = resources.files("artifact").joinpath("data/bing_house.cw")
    return RegularCWComplex.from_text(data.read_text())


class DiscreteVectorField:
    """A set of arrows (k, source, target) on a regular CW-complex.

    The source is a k-cell lying in the boundary of the (k+1)-dimensional
    target; a cell may take part in at most one arrow, as source or target.
    Cells in no arrow are the critical cells.  Structural validity is
    checked against a concrete complex by is_admissible and the consumers,
    not at construction time, so fields can be assembled freely.
    """

    def __init__(self, arrows=()):
        self.arrows = [(int(k), int(s), int(t)) for k, s, t in arrows]

    def involved_cells(self):
        """Set of (dim, index) pairs taking part in some arrow."""
        cells = set()
        for k, s, t in self.arrows:
            cells.add((k, s))
            cells.add((k + 1, t))
        return cells

    def critical_cells(self, X):
        """Per-dimension sorted index lists of the cells in no arrow."""
        involved = self.involved_cells()
        return [[i for i in range(X.counts[k]) if (k, i) not in involved]
                for k in range(X.dimension + 1)]

    def critical_counts(self, X):
        return [len(level) for level in self.critical_cells(X)]


def _arrow_maps(X, V):
    """Validate V structurally against X; MalformedArrow on violation.

    Returns by_source mapping each arrow's (k, s) to its target t.
    """
    by_source = {}
    involved = set()
    for arrow in V.arrows:
        k, s, t = arrow
        if not 0 <= k < X.dimension:
            raise MalformedArrow("arrow %r: no dimension %d+1 cells"
                                 % (arrow, k))
        if not 0 <= s < X.counts[k] or not 0 <= t < X.counts[k + 1]:
            raise MalformedArrow("arrow %r: cell index out of range" % (arrow,))
        if all(f != s for f, _ in X.faces[k + 1][t]):
            raise MalformedArrow(
                "arrow %r: source is not a face of the target" % (arrow,))
        for cell in ((k, s), (k + 1, t)):
            if cell in involved:
                raise MalformedArrow(
                    "cell %r takes part in two arrows" % (cell,))
            involved.add(cell)
        by_source[(k, s)] = t
    return by_source


def is_admissible(X, V):
    """True iff the chain relation between the arrows of V has no circuit.

    A chain steps from an arrow s -> t to any arrow whose source is a face
    of t other than s; on a finite complex admissibility is exactly the
    acyclicity of this relation.  Structural violations of the arrow
    conditions raise MalformedArrow instead of returning False.
    """
    by_source = _arrow_maps(X, V)

    def successors(key):
        k, s = key
        t = by_source[key]
        for f, _ in X.faces[k + 1][t]:
            if f != s and (k, f) in by_source:
                yield (k, f)

    # iterative three-color DFS; a gray-gray edge is a circuit
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {key: WHITE for key in by_source}
    for root in by_source:
        if color[root] != WHITE:
            continue
        stack = [(root, successors(root))]
        color[root] = GRAY
        while stack:
            key, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return False
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, successors(nxt)))
                    advanced = True
                    break
            if not advanced:
                color[key] = BLACK
                stack.pop()
    return True


def maximal_dvf(X):
    """Deterministic maximal admissible vector field on a finite complex.

    First a coreduction sweep: the first vertex is declared critical, and
    whenever a cell has exactly one face still unaccounted for, that face
    is paired with it (breadth-first, ties by cell index); when the queue
    runs dry the lowest-dimensional free cell of smallest index becomes
    critical and the sweep resumes.  Arrows produced this way can never
    close a circuit because each new source was the last free face of its
    target.  A completion pass then tries the remaining critical pairs
    directly: one sweep suffices, since an arrow that closes a circuit
    against a partial field still closes it against any larger one.
    """
    dim = X.dimension
    counts = X.counts
    FREE, MATCHED, CRITICAL = 0, 1, 2
    status = [[FREE] * c for c in counts]
    cofaces = X.coface_table()
    nfree = [None] + [[len(cell) for cell in X.faces[k]]
                      for k in range(1, dim + 1)]
    free_left = sum(counts)
    queue = deque()
    arrows = []

    def settle(k, i):
        # cell (k,i) just stopped being free: update coface counters
        if k == dim:
            return
        for j in cofaces[k][i]:
            if status[k + 1][j] == FREE:
                nfree[k + 1][j] -= 1
                if nfree[k + 1][j] == 1:
                    queue.append((k + 1, j))

    cursor = [0] * (dim + 1)
    while free_left:
        while queue:
            k, j = queue.popleft()
            if status[k][j] != FREE or nfree[k][j] != 1:
                continue
            source = None
            for f, _ in X.faces[k][j]:
                if status[k - 1][f] == FREE:
                    source = f
                    break
            if source is None:
                raise EliminationError("cell (%d, %d) has no free face left" % (k, j))
            status[k][j] = MATCHED
            status[k - 1][source] = MATCHED
            free_left -= 2
            arrows.append((k - 1, source, j))
            settle(k - 1, source)
            settle(k, j)
        if not free_left:
            break
        for k in range(dim + 1):
            i = cursor[k]
            while i < counts[k] and status[k][i] != FREE:
                i += 1
            cursor[k] = i
            if i < counts[k]:
                status[k][i] = CRITICAL
                free_left -= 1
                settle(k, i)
                break

    field = DiscreteVectorField(arrows)
    critical = {(k, i) for k in range(dim + 1)
                for i in range(counts[k]) if status[k][i] == CRITICAL}
    for k in range(dim):
        for t in range(counts[k + 1]):
            if (k + 1, t) not in critical:
                continue
            for f, _ in X.faces[k + 1][t]:
                if (k, f) in critical:
                    candidate = DiscreteVectorField(
                        field.arrows + [(k, f, t)])
                    if is_admissible(X, candidate):
                        field = candidate
                        critical.discard((k, f))
                        critical.discard((k + 1, t))
                        break
    if not is_admissible(X, field):
        raise NotAdmissible("maximal vector field has a circuit")
    return field


def critical_complex(X, V):
    """The chain complex carried by the critical cells of an admissible V.

    The generators in dimension n are the critical n-cells (in index
    order).  The cellular complex of X is collapsed along the arrows of V,
    in their order: arrow (k, s, t) is the collapse of degree k + 1 with
    source t and target s.  Admissibility keeps each arrow's incidence a
    unit until its turn, and the result, whose trace lists the arrows,
    has the homology of X.
    """
    if not is_admissible(X, V):
        raise NotAdmissible("vector field has a circuit")
    C = contract(X.as_chain_complex(),
                 pairs=[(k + 1, t, s) for k, s, t in V.arrows])
    verify_complex(C)
    return C

