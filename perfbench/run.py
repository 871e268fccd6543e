"""Benchmark of the artifact CLI: fixed workloads, one fresh process per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own ``src/artifact``, run as
``python -m artifact.cli`` with ``src`` on PYTHONPATH; nothing is
installed.  Without that source tree the benchmark exits with code 2.

--trace 0 measures what a user sees.  For S seconds it alternates one run
of the workload with one set-up probe (``artifact index --gamma0 1``: a
process that starts, imports the package, parses its arguments and
computes nothing), in an order drawn from the seed.  It reports

- wall_ref: the median, over the workload runs, of the run's wall time
  divided by the mean wall time of two runs of ``reference.py`` (fixed
  work in a fresh interpreter, sharing no code with the program), one
  just before and one just after it.  A shared 2-core VM slows down by
  up to 2x for tens of seconds at a time, and the ratio cancels most of
  that; the raw median wall time is printed alongside;
- peak_rss_mb: the median ``ru_maxrss`` of the workload runs, read from
  ``os.wait4`` for that child alone;
- setup_s: the median wall time of the set-up probes.

--trace 1 alternates plain runs with traced runs (``tracer.py``) for S
seconds and reports the per-layer figures of the traced run with the
median wall time, plus its overhead over the median plain run.

Every run's stdout is checked against the frozen output and an
independent oracle (see workloads.py).  A run fails on a nonzero exit, a
timeout, or a failed check; ``failed / attempted`` is the error rate.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The workloads take no seed: the program is deterministic, so
the seed only fixes the interleaving of the runs.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 120
MIN_SETUP_PROBES = 9

END_TO_END = (("wall_ref", "ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
REFERENCE_OUTPUT = "14400 672849\n"

# Per-layer metrics of the traced run.  "<span>.self_s" is the summed self
# time of the spans of that name and "<span>.calls" their number; the
# other layer names are size counters read by tracer.py; "trace.*" are
# properties of the traced run itself.
PER_LAYER = (
    ("congruence.transversal.self_s", "s"),
    ("congruence.cosets", "count"),
    ("congruence.generator_data.self_s", "s"),
    ("congruence.generators.count", "count"),
    ("congruence.generators.dropped", "count"),
    ("resolutions.sl2z_resolution.self_s", "s"),
    ("resolutions.wall_resolution.self_s", "s"),
    ("resolutions.restrict_resolution.self_s", "s"),
    ("resolutions.tensor_with_z.self_s", "s"),
    ("resolutions.rank_total", "count"),
    ("resolutions.boundary_nnz", "count"),
    ("resolutions.boundary_cells", "count"),
    ("chaincx.contract.self_s", "s"),
    ("chaincx.contract.collapses", "count"),
    ("chaincx.rank_after_total", "count"),
    ("chaincx.homology.self_s", "s"),
    ("coeffmod.hom_complex.self_s", "s"),
    ("coeffmod.cochain_rank_total", "count"),
    ("coeffmod.coboundary_nnz", "count"),
    ("coeffmod.coboundary_cells", "count"),
    ("exactlin.smith_normal_form.self_s", "s"),
    ("exactlin.smith_normal_form.calls", "count"),
    ("exactlin.snf.max_entry_bits", "bits"),
    ("exactlin.homology_of_pair.self_s", "s"),
    ("exactlin.solve_matrix.self_s", "s"),
    ("exactlin.solve_with_form.self_s", "s"),
    ("exactlin.solve_matrix.rhs_columns", "count"),
    ("exactlin.QuotientLattice.self_s", "s"),
    ("exactlin.integer_kernel.self_s", "s"),
    ("exactlin.column_span_basis.self_s", "s"),
    ("exactlin.charpoly.self_s", "s"),
    ("exactlin.integer_roots.self_s", "s"),
    ("exactlin.integer_roots.const_bits", "bits"),
    ("hecke.gamma_prime_data.self_s", "s"),
    ("hecke.gamma_prime.cosets", "count"),
    ("hecke.EquivariantChainMap.self_s", "s"),
    ("hecke.hecke_operator.self_s", "s"),
    ("hecke.matrix_on_quotient.self_s", "s"),
    ("cuspidal.cuspidal_cohomology.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.other_self_s", "s"),
    ("trace.spans", "count"),
)


@dataclass
class Run:
    """One finished child process."""
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    stderr: str


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd):
    """Run cmd to completion in a fresh process, killing it after the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=_child_env())
    streams = {}

    def drain(key, pipe):
        streams[key] = pipe.read()

    readers = [threading.Thread(target=drain, args=item)
               for item in (("out", proc.stdout), ("err", proc.stderr))]
    for t in readers:
        t.start()
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    return Run(wall_s, usage.ru_maxrss / 1024.0, proc.returncode,
               streams["out"].decode(errors="replace"),
               streams["err"].decode(errors="replace"))


def cli_cmd(argv):
    return [sys.executable, "-m", "artifact.cli", *argv]


def traced_cmd(argv):
    return [sys.executable, str(HERE / "tracer.py"), *argv]


class Tally:
    """Attempted and failed runs, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, what, run, problems):
        self.attempted += 1
        if run.exit_code != 0:
            problems = ["exit code %d: %s" % (run.exit_code,
                                              run.stderr.strip()[-300:])] + problems
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s: %s" % (what, "; ".join(problems)))
        return not problems


def reference_wall_s():
    """Wall time of one run of reference.py, which must not fail."""
    run = spawn([sys.executable, str(HERE / "reference.py")])
    if run.exit_code != 0 or run.stdout != REFERENCE_OUTPUT:
        raise RuntimeError("reference.py failed: %r %r" % (run.stdout, run.stderr))
    return run.wall_s


def _setup_problems(run):
    return [] if run.stdout == "1\n" else ["set-up probe printed %r" % run.stdout]


def _measure_plain(workload, seconds, rng, tally):
    work, refs, setup = [], [], []
    start = time.perf_counter()
    while not work or time.perf_counter() - start < seconds:
        order = [True, False]
        rng.shuffle(order)
        for is_work in order:
            if is_work:
                before = reference_wall_s()
                run = spawn(cli_cmd(workload.argv))
                refs.append((before + reference_wall_s()) / 2)
                tally.record(workload.name, run, workload.check(run.stdout))
                work.append(run)
            else:
                run = spawn(cli_cmd(workloads.SETUP_ARGV))
                tally.record("set-up probe", run, _setup_problems(run))
                setup.append(run)
    while len(setup) < MIN_SETUP_PROBES:
        run = spawn(cli_cmd(workloads.SETUP_ARGV))
        tally.record("set-up probe", run, _setup_problems(run))
        setup.append(run)
    walls = [r.wall_s for r in work]
    ratios = [w / r for w, r in zip(walls, refs)]
    metrics = {
        "wall_ref": statistics.median(ratios),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in work),
        "setup_s": statistics.median(r.wall_s for r in setup),
    }
    notes = ["%d workload runs: wall_ref quartiles %s; raw wall median %.4f s, "
             "quartiles %s; reference.py median %.4f s"
             % (len(walls), _quartiles(ratios), statistics.median(walls),
                _quartiles(walls), statistics.median(refs)),
             "setup_s median of %d probes" % len(setup)]
    return metrics, notes


def _traced_run(workload, tally):
    """(Run, trace document) of one traced process; document None on failure."""
    run = spawn(traced_cmd(workload.argv))
    doc = None
    problems = []
    try:
        doc = json.loads(run.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        problems.append("tracer printed no trace document")
    else:
        if doc["exit"] != 0:
            problems.append("traced CLI exited with %d" % doc["exit"])
        problems.extend(workload.check(doc["stdout"]))
    if not tally.record(workload.name + " (traced)", run, problems):
        doc = None
    return run, doc


def layer_metrics(wall_s, doc, plain_median_s):
    """Per-layer metrics of one traced run."""
    self_s, calls, counts = doc["self_s"], doc["calls"], doc["counts"]
    spans_total = doc["spans_self_total_s"]
    named = sum(self_s.get(name[:-len(".self_s")], 0.0)
                for name, _ in PER_LAYER if name.endswith(".self_s"))
    special = {
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - plain_median_s,
        "trace.unattributed_s": wall_s - spans_total,
        "trace.other_self_s": spans_total - named,
        "trace.spans": doc["spans"],
    }
    metrics = {}
    for name, _ in PER_LAYER:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".self_s"):
            metrics[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".calls"):
            metrics[name] = calls.get(name[:-len(".calls")], 0)
        else:
            metrics[name] = counts.get(name, 0)
    return metrics


def _measure_traced(workload, seconds, rng, tally):
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        order = [True, False]
        rng.shuffle(order)
        for is_traced in order:
            if is_traced:
                run, doc = _traced_run(workload, tally)
                if doc is not None:
                    traced.append((run.wall_s, doc))
            else:
                run = spawn(cli_cmd(workload.argv))
                tally.record(workload.name, run, workload.check(run.stdout))
                plain.append(run.wall_s)
    if not traced:
        return {}, ["no traced run succeeded"]
    # the counters are exact: every traced run must read the same
    for _, doc in traced[1:]:
        if doc["counts"] != traced[0][1]["counts"]:
            tally.failed += 1
            tally.reasons.append("size counters differ between traced runs")
            break
    traced.sort(key=lambda item: item[0])
    wall_s, doc = traced[(len(traced) - 1) // 2]
    notes = ["per-layer figures from the median of %d traced runs; "
             "%d plain runs, median %.4f s" % (len(traced), len(plain),
                                                statistics.median(plain))]
    return layer_metrics(wall_s, doc, statistics.median(plain)), notes


def _quartiles(values):
    if len(values) < 2:
        return "n/a"
    q = statistics.quantiles(values, n=4)
    return "%.4f / %.4f" % (q[0], q[2])


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns (result document, human-readable notes)."""
    rng = random.Random(seed)
    tally = Tally()
    # untimed warm-up: fills the bytecode cache of a fresh checkout
    spawn(cli_cmd(workloads.SETUP_ARGV))
    measure = _measure_traced if trace else _measure_plain
    metrics, notes = measure(workload, seconds, rng, tally)
    units = dict(PER_LAYER if trace else END_TO_END)
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    notes.append("error_rate %d/%d" % (tally.failed, tally.attempted))
    notes.extend("FAILED " + reason for reason in tally.reasons)
    return result, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "artifact" / "cli.py").is_file():
        print("perfbench: no program source at %s" % (SRC / "artifact"),
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    result, notes = run_workload(workload, args.seed, args.seconds, args.trace)
    print("# %s: %s" % (workload.name, " ".join(workload.argv)))
    for note in notes:
        print("# " + note)
    for name, m in result["metrics"].items():
        print("# %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
