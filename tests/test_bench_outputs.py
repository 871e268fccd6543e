"""The benchmark's workloads still print what the benchmark accepts.

perfbench/workloads.py checks every run's stdout twice: against the output
frozen for that workload and against a closed-form oracle.  Here the five
tiny shapes and the full cuspidal and Hecke workloads run in process
through the same check, so a changed output fails the test suite before
it fails a benchmark run.  perfbench/ is only read: its directory is on the import
path while workloads.py (and the oracles it imports) load.
"""

import pathlib
import sys

import pytest

from artifact.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

sys.path.insert(0, str(PERFBENCH))
try:
    import workloads
finally:
    sys.path.remove(str(PERFBENCH))

CHECKED = [*workloads.TINY.values(), workloads.WORKLOADS["cuspidal-l17-w4"],
           workloads.WORKLOADS["hecke-l38-t11"]]


@pytest.mark.parametrize("workload", CHECKED, ids=lambda w: w.name)
def test_workload_output_passes_its_checks(capsys, workload):
    assert main(list(workload.argv)) == 0
    assert workload.check(capsys.readouterr().out) == []
