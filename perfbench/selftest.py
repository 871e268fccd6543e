"""Fast self-test of the benchmark harness; takes a few seconds.

    python3 perfbench/selftest.py

Runs the five workload shapes at a tiny size through the same run, check
and trace code as the real workloads.  It checks that every metric named
in BENCHMARK.json comes out with its unit, that each traced layer the
shape runs was seen by the tracer, that span self times plus the
unattributed time add up to the traced wall time, and that each oracle
rejects a wrong output.
"""

import json
import sys

import run
import workloads

# spans each shape must record, proving the rebinding reached the call sites
LAYERS_RUN = {
    "homology": ("congruence.transversal", "resolutions.sl2z_resolution",
                 "resolutions.restrict_resolution", "resolutions.tensor_with_z",
                 "chaincx.contract", "chaincx.homology",
                 "exactlin.smith_normal_form", "exactlin.homology_of_pair"),
    "cohomology": ("resolutions.restrict_resolution", "coeffmod.hom_complex",
                   "exactlin.smith_normal_form", "exactlin.homology_of_pair"),
    "cuspidal": ("resolutions.wall_resolution", "coeffmod.hom_complex",
                 "exactlin.QuotientLattice", "exactlin.solve_matrix",
                 "exactlin.solve_with_form", "exactlin.integer_kernel",
                 "exactlin.column_span_basis", "hecke.EquivariantChainMap",
                 "cuspidal.cuspidal_cohomology"),
    "hecke": ("congruence.generator_data", "hecke.gamma_prime_data",
              "hecke.EquivariantChainMap", "hecke.hecke_operator",
              "hecke.matrix_on_quotient", "exactlin.QuotientLattice",
              "exactlin.charpoly", "exactlin.integer_roots"),
    "generators": ("congruence.generator_data",),
}

# a plausible but wrong output per shape, which the oracle alone must catch
WRONG = {
    "homology": "Z/2 + Z\n",
    "cohomology": "Z/12 + Z^11\n",
    "cuspidal": "ambient Z/2 + Z^6\nboundary Z/22 + Z/22 + Z^2\ncuspidal Z^6\n",
    "hecke": "T2 {3, 3, -2}\n",
    "generators": "1 -1 0 1\n-4 -1 5 1\n",
}


def _shape(workload):
    return workload.argv[0]


def check_declarations():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == dict(run.END_TO_END), "end_to_end differs from run.END_TO_END"
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == dict(run.PER_LAYER), "per_layer differs from run.PER_LAYER"
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}, \
        "workloads differ from workloads.WORKLOADS"


def check_workload(workload):
    shape = _shape(workload)
    assert workload.check(workload.expected() + "0\n"), "changed output passed"
    assert workload.oracle(WRONG[shape]), "oracle accepted a wrong %s" % shape
    for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result, notes = run.run_workload(workload, seed=1, seconds=0.1,
                                         trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and not result["failed"], notes
        assert result["attempted"] >= 2
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == dict(declared), "metrics or units differ"
        values = {k: v["value"] for k, v in result["metrics"].items()}
        if not trace:
            assert all(v > 0 for v in values.values()), values
            continue
        for span in LAYERS_RUN[shape]:
            assert values[span + ".self_s"] > 0, span
        parts = (sum(v for k, v in values.items() if k.endswith(".self_s"))
                 + values["trace.other_self_s"] + values["trace.unattributed_s"])
        assert abs(parts - values["trace.wall_s"]) < 1e-6, "self times do not add up"


def main():
    check_declarations()
    for workload in workloads.TINY.values():
        check_workload(workload)
        print("ok  %s" % workload.name)
    print("perfbench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
