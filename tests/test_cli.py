"""Command-line front end: formats, exit codes, and reproduction scripts.

The CLI is exercised in-process through main(argv); the reproduction
scripts are run as real subprocesses and compared byte for byte against
their recorded expected outputs, which is the contract that keeps the
published session values stable across refactors.
"""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from artifact.cli import build_parser, config_from_args, main, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPRO = ROOT / "scripts" / "reproductions"


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_index_plain(capsys):
    rc, out, _ = run_cli(capsys, "index", "--gamma0", "39")
    assert rc == 0
    assert out == "56\n"


def test_index_json(capsys):
    rc, out, _ = run_cli(capsys, "index", "--gamma", "6", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "artifact-report/1"
    assert doc["subcommand"] == "index"
    assert doc["result"] == {"group": "Gamma(6)", "index": 144}


def test_generators_shape(capsys):
    rc, out, _ = run_cli(capsys, "generators", "--gamma0", "2",
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    gens = doc["result"]["generators"]
    assert doc["result"]["count"] == len(gens) > 0
    for a, b, c, d in gens:
        assert a * d - b * c == 1
        assert c % 2 == 0


def test_hecke_eigenvalues_line(capsys):
    rc, out, _ = run_cli(capsys, "hecke", "--gamma0", "11", "--weight", "2",
                         "--ops", "2", "--emit", "eigenvalues")
    assert rc == 0
    assert out == "T2 {3, -2, -2}\n"


def test_hecke_matrix_and_charpoly(capsys):
    rc, out, _ = run_cli(capsys, "hecke", "--gamma0", "11", "--weight", "2",
                         "--ops", "2", "--emit", "matrix", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    (op,) = doc["result"]["operators"]
    assert op["matrix"] == [[3, 0, 0], [0, -2, 0], [1, 0, -2]]
    assert op["orders"] == [0, 0, 0]
    rc, out, _ = run_cli(capsys, "hecke", "--gamma0", "11", "--weight", "2",
                         "--ops", "2", "--emit", "charpoly",
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    # (x - 3)(x + 2)^2 with integer coefficients, leading first
    assert doc["result"]["operators"][0]["charpoly"] == [1, 1, -8, -12]


def test_homology_contract_toggle(capsys):
    rc, plain, _ = run_cli(capsys, "homology", "--gamma0", "11",
                           "--degree", "1")
    assert rc == 0 and plain == "Z/2 + Z^3\n"
    rc, out, _ = run_cli(capsys, "homology", "--gamma0", "11", "--degree", "1",
                         "--contract", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["invariants"] == "Z/2 + Z^3"
    assert doc["result"]["contracted"] is True
    # collapsing must have actually shrunk the complex
    assert sum(doc["result"]["ranks_contracted"]) < sum(doc["result"]["ranks"])


def test_cohomology_weight_four(capsys):
    rc, out, _ = run_cli(capsys, "cohomology", "--gamma0", "11",
                         "--degree", "1", "--weight", "4")
    assert rc == 0
    assert out == "Z/2 + Z^6\n"


def test_cuspidal_json(capsys):
    rc, out, _ = run_cli(capsys, "cuspidal", "--gamma0", "11",
                         "--degree", "1", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["cuspidal"] == "Z^2"
    assert doc["result"]["cuspidal_rank"] == 2


def test_dvf_bundled_fixture(capsys):
    rc, out, _ = run_cli(capsys, "dvf", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["result"]["cells"] == [72, 154, 83]
    assert doc["result"]["homology"] == ["Z", "0", "0"]
    assert sum(doc["result"]["critical"]) >= 2


def test_contract_drops_truncation_degree(capsys):
    rc, out, _ = run_cli(capsys, "contract", "--gamma0", "11", "--depth", "3",
                         "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    # depth 3 reports homology only through degree 2
    assert len(doc["result"]["homology"]) == 3
    assert doc["result"]["homology"][:2] == ["Z", "Z/2 + Z^3"]
    assert doc["result"]["collapses"] > 0


def test_homology_and_contract_frozen():
    # JSON documents recorded while Z tensor_gamma F still came from the
    # restricted resolution; they pin ranks_contracted and collapses at
    # realistic levels
    frozen = json.loads((ROOT / "tests" / "frozen" /
                         "homology_contract.json").read_text())
    assert len(frozen) == 6
    for argv, want in frozen.items():
        out = io.StringIO()
        cfg = config_from_args(build_parser().parse_args(
            argv.split() + ["--format", "json"]))
        assert run(cfg, out=out) == 0, argv
        assert out.getvalue() == want, argv


@pytest.fixture(params=["missing", "directory", "latin1"])
def bad_complex(request, tmp_path):
    """A --complex argument that is no readable UTF-8 file, with the error
    type and exit code the CLI must answer it with."""
    if request.param == "missing":
        return str(tmp_path / "absent.cw"), "ConfigError", 2
    if request.param == "directory":
        return str(tmp_path), "ConfigError", 2
    path = tmp_path / "latin1.cw"
    path.write_bytes("# caf\xe9\ncells 1\n".encode("latin-1"))
    return str(path), "FormatError", 3


@pytest.mark.parametrize("subcommand", ["dvf", "contract"])
def test_bad_complex_file_plain(capsys, bad_complex, subcommand):
    path, kind, code = bad_complex
    rc, out, err = run_cli(capsys, subcommand, "--complex", path)
    assert rc == code
    assert out == ""
    assert err.startswith("error %s: " % kind) and path in err


@pytest.mark.parametrize("subcommand", ["dvf", "contract"])
def test_bad_complex_file_json(capsys, bad_complex, subcommand):
    path, kind, code = bad_complex
    rc, out, _ = run_cli(capsys, subcommand, "--complex", path,
                         "--format", "json")
    assert rc == code
    doc = json.loads(out)
    assert doc["subcommand"] == subcommand
    assert doc["error"]["type"] == kind and path in doc["error"]["message"]


def test_quad_report(capsys):
    rc, out, _ = run_cli(capsys, "quad", "--d", "-1", "--ideal", "41+56i",
                         "--report", "index", "--format", "json")
    assert rc == 0
    assert json.loads(out)["result"]["index"] == 4818


@pytest.mark.parametrize("d, ideal, norm, prime, index", [
    (5, "11", 121, False, 144),
    (5, "4+1i", 19, True, 20),
    (-3, "7", 49, False, 64),
    (-7, "2", 4, False, 9),
    (13, "3", 9, False, 16),
    (-1, "3", 9, True, 10),
    (-1, "2+1i", 5, True, 6),
    (-5, "6", 36, False, 96),
    (2, "7", 49, False, 64),
])
def test_quad_norm_prime_index(capsys, d, ideal, norm, prime, index):
    rc, out, _ = run_cli(capsys, "quad", "--d", str(d), "--ideal", ideal,
                         "--report", "norm,prime,index")
    assert rc == 0
    assert out == "norm %d\nprime %s\nindex %d\n" % (norm, prime, index)


def test_determinism(capsys):
    args = ("hecke", "--gamma0", "11", "--weight", "2", "--ops", "2,3",
            "--format", "json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("args", [
    ("index",),                                         # no group
    ("hecke", "--gamma0", "11", "--weight", "2"),       # no ops
    ("hecke", "--gamma0", "11", "--ops", "2"),          # no weight
    ("hecke", "--gamma0", "11", "--weight", "1", "--ops", "2"),
    ("quad", "--d", "-1", "--ideal", "1+i",
     "--report", "torsion-ratio"),                      # orders missing
    ("quad", "--d", "-1", "--ideal", "1+i", "--report", "nonsense"),
])
def test_config_errors_exit_two(capsys, args):
    rc = main(list(args))
    captured = capsys.readouterr()
    assert rc == 2
    assert "ConfigError" in captured.err


@pytest.mark.parametrize("args, flag", [
    (("homology", "--gamma0", "11", "--degree", "-1"), "--degree"),
    (("cohomology", "--gamma0", "11", "--degree", "-1"), "--degree"),
    (("hecke", "--gamma0", "11", "--weight", "2", "--ops", "2",
      "--degree", "-1"), "--degree"),
    (("cuspidal", "--gamma0", "11", "--degree", "-1"), "--degree"),
    (("cuspidal", "--gamma0", "11", "--module-degree", "-1"),
     "--module-degree"),
    (("hecke", "--gamma0", "11", "--weight", "2", "--ops", "2,0"), "--ops"),
    (("hecke", "--gamma0", "11", "--weight", "2", "--ops", "-3"), "--ops"),
    (("index", "--gamma0", "0"), "--gamma0"),
    (("index", "--gamma1", "-3"), "--gamma1"),
    (("index", "--gamma", "0"), "--gamma"),
    (("homology", "--gamma0", "0", "--degree", "1"), "--gamma0"),
    (("homology", "--gamma0", "11", "--degree", "1", "--depth", "0"),
     "--depth"),
    (("homology", "--gamma0", "11", "--degree", "3", "--depth", "2"),
     "--depth"),
    (("hecke", "--gamma0", "11", "--weight", "1", "--ops", "2"), "--weight"),
])
def test_out_of_range_flags_exit_two(capsys, args, flag):
    # rejected before any computation, naming the flag, not deep in the
    # pipeline as a DegreeOutOfRange or FormatError with exit 3
    rc = main(list(args) + ["--format", "json"])
    assert rc == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "ConfigError"
    assert doc["error"]["message"].startswith(flag + " ")


@pytest.mark.parametrize("args", [
    ("cohomology", "--gamma0", "11", "--degree", "1", "--ops", "2"),
    ("index", "--gamma0", "11", "--weight", "4"),
    ("hecke", "--gamma0", "11", "--weight", "2", "--ops", "2",
     "--module-degree", "2"),
    ("quad", "--d", "-1"),
    ("cohomology", "--gamma0", "11", "--degree", "1", "--contract"),
    ("cohomology", "--gamma0", "11", "--degree", "2", "--depth", "1"),
])
def test_parser_rejects_options_off_their_subcommand(capsys, args):
    # each option exists only on the subcommands that read it, so a stray
    # one never reaches config_from_args's checks
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_config_error_json_is_machine_readable(capsys):
    rc = main(["hecke", "--gamma0", "11", "--weight", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "ConfigError"
    assert "ops" in doc["error"]["message"]


def assert_config_error(capsys, argv, fmt, message):
    """main(argv) exits 2 with message, on stderr in plain output and as
    the error object of the JSON document."""
    rc = main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert rc == 2
    if fmt == "json":
        assert json.loads(captured.out)["error"] == {"type": "ConfigError",
                                                     "message": message}
    else:
        assert (captured.out, captured.err) == (
            "", "error ConfigError: %s\n" % message)


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_repeated_ops_index_exits_two(capsys, fmt):
    # each operator is lifted once, so T3 twice is a mistake in the call,
    # not a request to compute and print it twice
    assert_config_error(
        capsys, ["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2,3,3",
                 "--emit", "charpoly"], fmt, "--ops lists 3 more than once")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_repeated_report_field_exits_two(capsys, fmt):
    # the JSON result holds each field once, so norm twice would print a
    # line the document does not have
    assert_config_error(
        capsys, ["quad", "--d", "-1", "--ideal", "41+56i", "--report",
                 "norm,prime,norm"], fmt, "--report lists norm more than once")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_contract_complex_rejects_depth(capsys, fmt):
    # --depth truncates a group's resolution; a complex file has none, so
    # the flag could only be ignored
    path = str(ROOT / "src" / "artifact" / "data" / "bing_house.cw")
    assert_config_error(
        capsys, ["contract", "--complex", path, "--depth", "3"], fmt,
        "--depth truncates a group's resolution; a --complex file takes "
        "no --depth")


def test_computation_error_exit_three(capsys):
    # the ideal generated by 0 is found to be zero by the computation
    rc = main(["quad", "--d", "-1", "--ideal", "0", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 3
    doc = json.loads(out)
    assert doc["error"]["type"] == "ZeroIdeal"


def test_quad_non_squarefree_d_exits_three():
    # Z[sqrt(4)] is no ring of integers: a FormatError line, no traceback,
    # and the check survives python -O
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    for flags in ((), ("-O",)):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "artifact.cli", "quad", "--d", "4",
             "--ideal", "3"], capture_output=True, text=True, env=env,
            timeout=60)
        assert proc.returncode == 3, (flags, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("error FormatError: ")
        assert "Traceback" not in proc.stderr


def test_runconfig_round_trip():
    ns = build_parser().parse_args(
        ["cuspidal", "--gamma0", "39", "--degree", "1",
         "--module-degree", "2", "--format", "json"])
    cfg = config_from_args(ns)
    assert cfg.subcommand == "cuspidal"
    assert (cfg.kind, cfg.level) == ("gamma0", 39)
    assert cfg.module_degree == 2
    assert cfg.fmt == "json"


@pytest.mark.parametrize("name", [
    "indices",
    "hecke_level11",
    "gaussian_ideal",
    "cuspidal_level11",
    "two_room_house",
])
def test_reproduction_scripts_match_recorded_output(name):
    script = REPRO / ("%s.py" % name)
    expected = (REPRO / ("%s.expected" % name)).read_text()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


# Starts the command given in argv, waits for it with os.wait4 and prints its
# exit code, stdout and ru_maxrss (kilobytes on Linux) as JSON.  Linux keeps
# a process's peak RSS across exec, and a child spawned by the test process
# itself would report the test process's own peak; this small launcher
# makes the figure the command's alone.
_RSS_LAUNCHER = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
out = proc.stdout.read()
proc.stdout.close()
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"exit": proc.returncode, "stdout": out.decode(),
                  "maxrss_kb": usage.ru_maxrss}))
"""


def test_cli_import_leaves_the_heavy_layers_unloaded():
    # every subcommand imports its own layers, so starting the CLI loads
    # only the congruence layer and what it needs
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, artifact.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('artifact')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "artifact.congruence" in loaded
    for name in ("hecke", "cuspidal", "cwdvf", "quadring", "resolutions"):
        assert "artifact." + name not in loaded


def test_cuspidal_run_leaves_hecke_unloaded():
    # only ambient_kernel and cuspidal_hecke_operators import hecke, and
    # the cuspidal command calls neither
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import contextlib, io, sys\n"
            "from artifact.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, 'artifact.hecke' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, "cuspidal", "--gamma0",
                           "17", "--module-degree", "2"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# the records are namedtuples and json loads only to write a document, so
# a plain run leaves out dataclasses, which would pull in inspect
STARTUP_RUNS = [
    ["index", "--gamma0", "11"],
    ["generators", "--gamma0", "11"],
    ["homology", "--gamma0", "11", "--degree", "1"],
    ["cohomology", "--gamma0", "11", "--degree", "1", "--weight", "4"],
    ["hecke", "--gamma0", "11", "--weight", "2", "--ops", "2"],
    ["cuspidal", "--gamma0", "11"],
    ["generators", "--gamma0", "11", "--format", "json"],
]


@pytest.mark.parametrize("argv", STARTUP_RUNS, ids=" ".join)
def test_cli_run_loads_no_dataclasses_and_json_only_for_json(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import contextlib, io, sys\n"
            "from artifact.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(sys.argv[1:])\n"
            "print(code, ' '.join(m for m in ('dataclasses', 'inspect', 'json')"
            " if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, *loaded = proc.stdout.split()
    assert exit_code == "0"
    assert loaded == (["json"] if "json" in argv else [])


def test_c04_contracted_homology_peak_rss_under_100_mb():
    # memory guard: the level-1000 boundaries stay sparse from tensor_with_z
    # through contract (as dense matrices this run peaked at 596 MB)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "artifact.cli",
         "homology", "--gamma0", "1000", "--degree", "5", "--contract"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["exit"] == 0
    assert run["stdout"] == "Z/2\n"
    peak_mb = run["maxrss_kb"] / 1024
    assert peak_mb < 100, "peak RSS %.0f MB" % peak_mb


def test_hecke_t97_peak_rss_under_50_mb():
    # memory guard: the chain map is lifted from degree-0 images next to
    # their targets, so its tree walks stay short (with every image at the
    # base vertex this run peaked at 91 MB)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_LAUNCHER, sys.executable, "-m", "artifact.cli",
         "hecke", "--gamma0", "11", "--weight", "2", "--ops", "97"],
        capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["exit"] == 0
    assert run["stdout"] == "T97 {98, -7, -7}\n"
    peak_mb = run["maxrss_kb"] / 1024
    assert peak_mb < 50, "peak RSS %.0f MB" % peak_mb
