"""Traced run of the artifact CLI: one process, one command, spans in memory.

Usage: python3 perfbench/tracer.py <artifact CLI arguments...>
(with the package's ``src`` directory on PYTHONPATH).

The program itself is not edited.  Before the CLI starts, every public
function of the pipeline modules below is rebound, at runtime, to a
wrapper that records a span (name, start, end, parent); the rebinding is
done by identity in every loaded ``artifact`` module, so ``from .x import
y`` sites and aliases see the wrapper too.  The two classes whose
construction is a pipeline stage get their ``__init__`` wrapped instead.

Size counters are read from the arguments and returned objects of some
calls.  Reading them costs time of its own, which is recorded under the
span ``trace.count`` so that it never lands in a layer's self time.

The last line of stdout is one JSON object: the CLI's exit code and
captured stdout, the number of spans, each span name's self time and call
count, the counters, and the summed self time of all spans.  A span's self
time is its duration minus the durations of its child spans; the program
is single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import io
import json
import sys
import time

LAYERS = ("congruence", "resolutions", "chaincx", "coeffmod", "exactlin",
          "hecke", "cuspidal")
CLASSES = {"exactlin": ("QuotientLattice",), "hecke": ("EquivariantChainMap",)}
COUNT_SPAN = "trace.count"


def _matrix_sizes(mats):
    """(nonzero entries, rows x cols) summed over dense IntMatrix objects."""
    nnz = cells = 0
    for m in mats:
        nnz += m.nonzero_count()
        cells += m.rows * m.cols
    return nnz, cells


def _max_bits(values):
    return max((abs(v).bit_length() for v in values), default=0)


def _snf_entry_bits(form):
    """Largest entry, in bits, of a SmithForm's diagonal and transforms."""
    bits = _max_bits(form.d)
    for t in (form.U, form.V, form.Uinv, form.Vinv):
        if t is not None:
            bits = max(bits, max((_max_bits(r) for r in t.data), default=0))
    return bits


def _root_constant_bits(poly):
    """Bits of the constant term integer_roots trial-divides (zero roots stripped)."""
    coeffs = list(poly)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return abs(coeffs[-1]).bit_length() if coeffs else 0


# span name -> (how repeated calls combine, reader of (args, result) that
# returns {counter name: value})
def _counters():
    def transversal(args, res):
        return {"congruence.cosets": len(res)}

    def generator_data(args, res):
        return {"congruence.generators.count": len(res.generators),
                "congruence.generators.dropped": len(res.dropped)}

    def restrict_resolution(args, res):
        return {"resolutions.rank_total": sum(res.ranks)}

    def tensor_with_z(args, res):
        nnz, cells = _matrix_sizes(res.diffs)
        return {"resolutions.boundary_nnz": nnz,
                "resolutions.boundary_cells": cells}

    def contract(args, res):
        return {"chaincx.contract.collapses": len(res.trace),
                "chaincx.rank_after_total": sum(res.ranks)}

    def hom_complex(args, res):
        nnz, cells = _matrix_sizes(res.deltas)
        return {"coeffmod.cochain_rank_total": sum(res.ranks),
                "coeffmod.coboundary_nnz": nnz,
                "coeffmod.coboundary_cells": cells}

    def smith_normal_form(args, res):
        return {"exactlin.snf.max_entry_bits": _snf_entry_bits(res)}

    def solve_matrix(args, res):
        return {"exactlin.solve_matrix.rhs_columns": args[1].cols}

    def integer_roots(args, res):
        return {"exactlin.integer_roots.const_bits":
                _root_constant_bits(args[0])}

    def gamma_prime_data(args, res):
        return {"hecke.gamma_prime.cosets": res.index}

    return {
        "congruence.transversal": (max, transversal),
        "congruence.generator_data": (max, generator_data),
        "resolutions.restrict_resolution": (sum, restrict_resolution),
        "resolutions.tensor_with_z": (sum, tensor_with_z),
        "chaincx.contract": (sum, contract),
        "coeffmod.hom_complex": (sum, hom_complex),
        "exactlin.smith_normal_form": (max, smith_normal_form),
        "exactlin.solve_matrix": (sum, solve_matrix),
        "exactlin.integer_roots": (max, integer_roots),
        "hecke.gamma_prime_data": (max, gamma_prime_data),
    }


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = {}
        self._readers = _counters()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, name, args, result):
        combine, read = self._readers[name]
        idx = self._open(COUNT_SPAN)
        try:
            for key, value in read(args, result).items():
                old = self.counts.get(key)
                self.counts[key] = value if old is None \
                    else combine((old, value))
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        counted = name in self._readers

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counted:
                self._count(name, args, result)
            return result
        return traced

    def install(self):
        """Rebind the pipeline's public functions to traced wrappers."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module("artifact." + layer)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    originals[id(obj)] = (obj, self.wrap(layer + "." + attr, obj))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                cls.__init__ = self.wrap(layer + "." + cls_name, cls.__init__)
        importlib.import_module("artifact.cli")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "artifact" and not mod_name.startswith("artifact."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def summary(self):
        """Self time and calls per span name, in seconds."""
        self_s = {}
        calls = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls


def main(argv):
    tracer = Tracer()
    tracer.install()
    from artifact import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    self_s, calls = tracer.summary()
    doc = {"exit": code, "stdout": out.getvalue(), "spans": len(tracer.spans),
           "self_s": self_s, "calls": calls, "counts": tracer.counts,
           "spans_self_total_s": sum(self_s.values())}
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
