"""The benchmark's tracer still reaches the pipeline it measures.

perfbench/tracer.py wraps classes and functions of the package by name and
reads counters off their results, so a rename in the package silently
empties a per-layer metric.  This runs it on the smallest Hecke workload,
as a subprocess with the package's src directory on the path.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_sees_the_hecke_layers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "hecke", "--gamma0",
         "11", "--weight", "2", "--ops", "2"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["exit"] == 0
    expected = (PERFBENCH / "expected" / "tiny-hecke-l11-t2.txt").read_text()
    assert doc["stdout"] == expected
    for span in ("exactlin.QuotientLattice", "hecke.EquivariantChainMap"):
        assert doc["calls"].get(span, 0) >= 1, span
    assert doc["counts"]["hecke.gamma_prime.cosets"] == 3
