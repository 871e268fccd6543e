"""Every function in src/artifact is reached by a CLI run or kept for a reader.

The census runs the commands in RUNS through cli.main in a fresh
subprocess, under sys.setprofile switched on only while the CLI imports
and runs, so neither the order of the other tests nor a cache filled by
them can hide a function.  It then lists every function and closure
defined in src/artifact that no run entered.  Such a function stays only
with a KEPT entry naming the one file that reads it: a test oracle or
fixture, a frozen-file serializer, the README, a script or the
benchmark's tracer.  The test fails on an unreached function without an
entry, on an entry for a function that a run enters (or that no longer
exists), and on an entry whose reader does not use the function
(mentioned_as says by which word or operator; in a Python reader only
its code counts, not comments or docstrings).  That check is weak for
special methods and closures: an operator or a class name appears in
most test files, and a closure is checked by the name of the function
that encloses it, so for them it shows only that the reader can reach
the function, not that it does.  __repr__ and __str__ are exempt.
The runs at larger levels (Gamma0(38), Gamma1(13), Gamma(6),
Gamma0(1000)), each in both formats, leave the same functions unreached.

Run as a script, this file prints the census of RUNS as JSON.
"""

import ast
import contextlib
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HOUSE = str(SRC / "artifact" / "data" / "bing_house.cw")

# (argv, exit code): every subcommand and group kind at small levels, each
# subcommand once in JSON, hecke in degree 0 (the zero coboundary below a
# cochain complex) and two ConfigErrors
RUNS = (
    (["index", "--gamma0", "11", "--format", "json"], 0),
    (["index", "--gamma1", "5"], 0),
    (["index", "--gamma", "3"], 0),
    (["generators", "--gamma0", "11"], 0),
    (["generators", "--gamma1", "5", "--format", "json"], 0),
    (["generators", "--gamma", "3"], 0),
    (["homology", "--gamma0", "11", "--degree", "1"], 0),
    (["homology", "--gamma1", "5", "--degree", "2", "--contract",
      "--format", "json"], 0),
    (["homology", "--gamma", "3", "--degree", "1", "--depth", "3"], 0),
    (["cohomology", "--gamma0", "11", "--degree", "1", "--weight", "4",
      "--format", "json"], 0),
    (["cohomology", "--gamma1", "5", "--degree", "1"], 0),
    (["cohomology", "--gamma", "3", "--degree", "2", "--weight", "3"], 0),
    (["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2,3"], 0),
    (["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2",
      "--degree", "0"], 0),
    (["hecke", "--gamma0", "12", "--weight", "4", "--ops", "5",
      "--emit", "matrix", "--format", "json"], 0),
    (["hecke", "--gamma0", "14", "--weight", "2", "--ops", "3",
      "--emit", "charpoly"], 0),
    (["hecke", "--gamma0", "30", "--weight", "2", "--ops", "7"], 0),
    (["cuspidal", "--gamma0", "11"], 0),
    (["cuspidal", "--gamma0", "12", "--module-degree", "2",
      "--format", "json"], 0),
    (["cuspidal", "--gamma1", "5"], 0),
    (["cuspidal", "--gamma", "3"], 0),
    (["dvf"], 0),
    (["dvf", "--complex", HOUSE, "--format", "json"], 0),
    (["quad", "--d", "-1", "--ideal", "41+56i", "--report",
      "norm,prime,index,l-ratio,torsion-ratio", "--orders", "2,4,8",
      "--format", "json"], 0),
    (["quad", "--d", "-3", "--ideal", "7"], 0),
    (["contract", "--gamma0", "11", "--depth", "3", "--format", "json"], 0),
    (["contract", "--complex", HOUSE], 0),
    (["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2,2"], 2),
    (["contract", "--complex", str(ROOT / "absent.cw")], 2),
)

# unreached function -> the one file, relative to the repository, that reads it
KEPT = {
    # test oracles and fixtures
    "chaincx.FreeChainComplexZ.__eq__": "tests/test_chaincx.py",
    "congruence.CongruenceSubgroup.gamma1": "tests/test_congruence.py",
    "congruence.CongruenceSubgroup.principal": "tests/test_congruence.py",
    "cuspidal._pullback_matrix": "tests/test_cuspidal.py",
    "cuspidal.ambient_kernel": "tests/test_cuspidal.py",
    "cuspidal.cuspidal_hecke_operators": "tests/test_cuspidal.py",
    "cwdvf.RegularCWComplex.to_text": "tests/test_cwdvf.py",
    "exactlin.IntMatrix.__add__": "tests/test_chaincx.py",
    "exactlin.IntMatrix.apply": "tests/test_exactlin.py",
    "exactlin.IntMatrix.col": "tests/test_exactlin.py",
    "exactlin.IntMatrix.column": "tests/test_exactlin.py",
    "exactlin.IntMatrix.diagonal": "tests/test_exactlin.py",
    "exactlin.IntMatrix.from_rows": "tests/test_exactlin.py",
    "exactlin.IntMatrix.is_zero": "tests/test_exactlin.py",
    "exactlin.cokernel_invariants": "tests/test_cuspidal.py",
    "exactlin.solve_echelon": "tests/test_cuspidal.py",
    "hecke.HeckeMatrix.compose": "tests/test_hecke.py",
    "quadring.QuadIdeal.__eq__": "tests/test_quadring.py",
    "quadring.QuadIdeal.__hash__": "tests/test_quadring.py",
    "quadring.QuadIdeal.member": "tests/test_quadring.py",
    "quadring.QuadInt.__add__": "tests/test_quadring.py",
    "quadring.QuadInt.__eq__": "tests/test_quadring.py",
    "quadring.QuadInt.__hash__": "tests/test_quadring.py",
    "quadring.QuadInt.__neg__": "tests/test_quadring.py",
    "quadring.QuadInt.__sub__": "tests/test_quadring.py",
    "quadring.QuadInt.conj": "tests/test_quadring.py",
    "quadring.QuadInt.trace": "tests/test_quadring.py",
    "resolutions.CellChain.__add__": "tests/test_sl2z.py",
    "resolutions.CellChain.__eq__": "tests/test_sl2z.py",
    "resolutions.CellChain.__neg__": "tests/test_sl2z.py",
    "resolutions.CellChain.__sub__": "tests/test_sl2z.py",
    "resolutions.EquivariantCellComplex.boundary_chain":
        "tests/test_resolutions.py",
    "resolutions.GroupRingElement.to_str": "tests/test_resolutions.py",
    "resolutions.restrict_resolution.<locals>.homotopy":
        "tests/test_acceptance.py",
    "resolutions.restrict_resolution.<locals>.refold":
        "tests/test_cuspidal.py",
    "resolutions.restrict_resolution.<locals>.section":
        "tests/test_acceptance.py",
    "sl2z.GeneratorWord.evaluate": "tests/test_sl2z.py",
    "sl2z.GeneratorWord.is_reduced": "tests/test_sl2z.py",
    # frozen-file serializers
    "chaincx.FreeChainComplexZ.from_text": "tests/test_chaincx.py",
    "chaincx.FreeChainComplexZ.to_text": "tests/test_chaincx.py",
    "exactlin.IntMatrix.from_text": "tests/test_exactlin.py",
    "exactlin.IntMatrix.to_text": "tests/test_exactlin.py",
    "exactlin.SparseIntMatrix.from_text": "tests/test_exactlin.py",
    "exactlin.SparseIntMatrix.to_text": "tests/test_exactlin.py",
    "hecke.HeckeMatrix.descriptor": "tests/test_hecke.py",
    # the README
    "hecke.hecke_operator": "README.md",
    "resolutions.FreeZGResolution.section": "README.md",
    "resolutions.wall_resolution.<locals>.section": "README.md",
    # scripts
    "cwdvf.cubical_complex": "scripts/make_bing_house.py",
    "cwdvf.cubical_complex.<locals>.add": "scripts/make_bing_house.py",
    "cwdvf.save_complex": "scripts/make_bing_house.py",
    # the benchmark's tracer
    "exactlin.IntMatrix.nonzero_count": "perfbench/tracer.py",
    "exactlin.SparseIntMatrix.nonzero_count": "perfbench/tracer.py",
    "hecke.HeckeDescriptor.index": "perfbench/tracer.py",
}

EXEMPT = ("__repr__", "__str__")


def functions(code, prefix=""):
    """(qualified name, code object) of every def nested in code."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType) or const.co_name[0] == "<":
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:
            name = prefix + const.co_name
            yield name, const
            yield from functions(const, name + ".<locals>.")
        else:
            yield from functions(const, prefix + const.co_name + ".")


def site(code):
    """Where code is defined, as the census subprocess reports it."""
    path = pathlib.Path(code.co_filename).resolve()
    return (path.relative_to(SRC).as_posix(), code.co_firstlineno,
            code.co_name)


def unreached(entered):
    """Names, module.qualname, of the functions in src/artifact whose
    site is not among the entered ones."""
    entered = {tuple(s) for s in entered}
    names = set()
    for path in sorted((SRC / "artifact").glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for qualname, code in functions(module):
            if code.co_name not in EXEMPT and site(code) not in entered:
                names.add(path.stem + "." + qualname)
    return names


# the operator that calls a special method
OPERATORS = {"__add__": ast.Add, "__sub__": ast.Sub, "__mul__": ast.Mult,
             "__neg__": ast.USub, "__eq__": ast.Eq}


def mentioned_as(name):
    """What a reader of name uses: a closure's enclosing function, a
    special method's operator or else its class, or the name itself."""
    parts = name.split(".")
    if "<locals>" in parts:
        return parts[parts.index("<locals>") - 1]
    if parts[-1].startswith("__"):
        return OPERATORS.get(parts[-1], parts[-2])
    return parts[-1]


def uses(path, text):
    """The words and operators the reader path uses.  In Python: its
    names, attributes, imports, identifier strings (monkeypatch targets)
    and operator types, so comments and docstrings do not count."""
    if not path.endswith(".py"):
        return set(re.findall(r"\w+", text))
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and node.value.isidentifier():
            found.add(node.value)
        elif isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign)):
            found.add(type(node.op))
        elif isinstance(node, ast.Compare):
            found.update(type(op) for op in node.ops)
    return found


def problems(missed, kept, read):
    """What is wrong with kept as the record of the missed functions;
    read(path) is the text of a reader file."""
    found = ["%s: no run enters it and KEPT names no reader" % name
             for name in sorted(missed - kept.keys())]
    found += ["%s: a run enters it or it is gone, so its KEPT entry is stale"
              % name for name in sorted(kept.keys() - missed)]
    for name, reader in sorted(kept.items()):
        if name in missed and \
                mentioned_as(name) not in uses(reader, read(reader)):
            found.append("%s: its reader %s does not mention it"
                         % (name, reader))
    return found


def census():
    """Run RUNS in a subprocess; (entered sites, exit codes)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    optimize = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable, *optimize, __file__],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["entered"], doc["exits"]


def test_every_unreached_function_has_a_reader():
    entered, exits = census()
    assert exits == [code for _, code in RUNS]
    missed = unreached(entered)
    assert problems(missed, KEPT,
                    lambda reader: (ROOT / reader).read_text()) == []


READERS = {"tests/a.py": "QuadInt(1, 2) + outer()  # keep\nkeep_me()",
           "README.md": "keep_me and keep"}


def test_the_check_accepts_a_listed_reader():
    kept = {"m.keep_me": "tests/a.py", "m.QuadInt.__add__": "tests/a.py",
            "m.QuadInt.__init__": "tests/a.py",
            "m.outer.<locals>.inner": "tests/a.py", "m.keep": "README.md"}
    assert problems(set(kept), kept, READERS.__getitem__) == []


@pytest.mark.parametrize("missed, kept, complaint", [
    ({"m.keep_me", "m.other"}, {"m.keep_me": "tests/a.py"},
     "m.other: no run enters it and KEPT names no reader"),
    (set(), {"m.keep_me": "tests/a.py"},
     "m.keep_me: a run enters it or it is gone, so its KEPT entry is stale"),
    ({"m.keep"}, {"m.keep": "tests/a.py"},
     "m.keep: its reader tests/a.py does not mention it"),
    ({"m.QuadInt.__sub__"}, {"m.QuadInt.__sub__": "tests/a.py"},
     "m.QuadInt.__sub__: its reader tests/a.py does not mention it"),
])
def test_the_check_rejects(missed, kept, complaint):
    assert problems(missed, kept, READERS.__getitem__) == [complaint]


def _main():
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # the import counts: it runs on every command, and sl2z checks its
    # generators' relations there
    sys.setprofile(profile)
    from artifact.cli import main
    sys.setprofile(None)
    exits = []
    for argv, _ in RUNS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                exits.append(main(argv))
            finally:
                sys.setprofile(None)
    package = str(SRC / "artifact")
    sites = sorted(site(code) for code in entered
                   if code.co_filename.startswith(package))
    print(json.dumps({"entered": sites, "exits": exits}))


if __name__ == "__main__":
    _main()
