"""Command-line front end.

Subcommands: index, generators, homology, cohomology, hecke, cuspidal,
dvf, quad, contract.  Output is plain text by default and a versioned
JSON document with --format json; every run is deterministic for a fixed
configuration and package version (the vector-field search and all
lattice normal forms are deterministic algorithms, so no seeds are
involved).  Errors exit nonzero: 2 for configuration problems, 3 for
computational ones, and in JSON mode the document carries a
machine-readable error object instead of a result.
"""

import argparse
import sys

# Only the layers every subcommand needs load here; each runner imports
# the rest, so a run loads (and compiles) just the modules it uses.
from .congruence import CongruenceSubgroup, generators, index
from .errors import ArtifactError, ConfigError

SCHEMA = "artifact-report/1"

GROUP_COMMANDS = ("index", "generators", "homology", "cohomology",
                  "hecke", "cuspidal")


# the fields a subcommand does not define, and their values
_DEFAULTS = {"kind": None, "level": None, "d": None, "ideal": None,
             "degree": None, "weight": None, "module_degree": None,
             "emit": "eigenvalues", "complex_path": None,
             "do_contract": False, "depth": None}


def _group(cfg):
    return CongruenceSubgroup(cfg.kind, cfg.level)


def _validate(cfg):
    """Reject the values and combinations the parser cannot.

    Degree, weight and module_degree only apply where the subcommand
    consumes them, which the parser already enforces by defining each
    option on those subcommands alone.
    """
    if cfg.subcommand in GROUP_COMMANDS:
        if cfg.kind is None:
            raise ConfigError("%s needs a group: --gamma0, --gamma1, "
                              "or --gamma" % cfg.subcommand)
    if cfg.subcommand == "hecke":
        if not cfg.ops:
            raise ConfigError("hecke needs --ops")
        if cfg.weight is None:
            raise ConfigError("hecke needs --weight")
    if cfg.weight is not None and cfg.weight < 2:
        raise ConfigError("--weight must be >= 2, got %d" % cfg.weight)
    if cfg.subcommand == "quad":
        known = {"norm", "prime", "index", "l-ratio", "torsion-ratio"}
        for r in cfg.report:
            if r not in known:
                raise ConfigError("unknown report field %r" % r)
        repeated = _repeated(cfg.report)
        if repeated is not None:
            raise ConfigError("--report lists %s more than once" % repeated)
        if "torsion-ratio" in cfg.report and not cfg.orders:
            raise ConfigError("torsion-ratio needs --orders")
    if cfg.depth is not None and cfg.depth < 1:
        raise ConfigError("--depth must be >= 1, got %d" % cfg.depth)
    if (cfg.subcommand == "homology" and cfg.depth is not None
            and cfg.depth <= cfg.degree):
        raise ConfigError("--depth %d cannot reach --degree %d"
                          % (cfg.depth, cfg.degree))
    if cfg.level is not None and cfg.level < 1:
        flag = "--gamma" if cfg.kind == "principal" else "--" + cfg.kind
        raise ConfigError("%s must be >= 1, got %d" % (flag, cfg.level))
    for flag, v in (("--degree", cfg.degree),
                    ("--module-degree", cfg.module_degree)):
        if v is not None and v < 0:
            raise ConfigError("%s must be >= 0, got %d" % (flag, v))
    if cfg.ops and min(cfg.ops) < 1:
        raise ConfigError("--ops entries must be >= 1, got %d"
                          % min(cfg.ops))
    repeated = _repeated(cfg.ops)
    if repeated is not None:
        raise ConfigError("--ops lists %d more than once" % repeated)
    if cfg.complex_path and cfg.kind:
        raise ConfigError("give either --complex or a group, not both")
    if cfg.complex_path and cfg.depth is not None:
        raise ConfigError("--depth truncates a group's resolution; "
                          "a --complex file takes no --depth")


def _repeated(items):
    """The first item listed again later in items, or None."""
    return next((x for i, x in enumerate(items) if x in items[:i]), None)


def _group_args(p):
    g = p.add_mutually_exclusive_group(required=False)
    g.add_argument("--gamma0", type=int, metavar="N")
    g.add_argument("--gamma1", type=int, metavar="N")
    g.add_argument("--gamma", type=int, metavar="N",
                   help="principal congruence subgroup")


def _csv_ints(text):
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError("expected a comma-separated integer list, got %r"
                          % text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="artifact",
        description="integral cohomology and Hecke operators for "
                    "congruence subgroups")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("plain", "json"),
                        default="plain", dest="fmt")
    sub = ap.add_subparsers(dest="subcommand", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[common], **kw))

    p = sub.add_parser("index", help="index in the full modular group")
    _group_args(p)

    p = sub.add_parser("generators", help="generating matrices")
    _group_args(p)

    p = sub.add_parser("homology", help="integral homology H_n")
    _group_args(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--contract", action="store_true", dest="do_contract",
                   help="collapse the chain complex before taking homology")
    p.add_argument("--depth", type=int,
                   help="resolution length (default degree + 1)")

    p = sub.add_parser("cohomology", help="H^n with polynomial coefficients")
    _group_args(p)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--weight", type=int, default=2,
                   help="module weight k + 2 (2 = trivial coefficients)")

    p = sub.add_parser("hecke", help="Hecke operators on H^n")
    _group_args(p)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--weight", type=int)
    p.add_argument("--ops", type=str,
                   help="comma-separated operator indices, e.g. 2,3,5,7")
    p.add_argument("--emit", choices=("eigenvalues", "matrix", "charpoly"),
                   default="eigenvalues")

    p = sub.add_parser("cuspidal", help="kernel of restriction to the boundary")
    _group_args(p)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--module-degree", type=int, default=0,
                   help="polynomial coefficient degree k (weight k + 2)")

    p = sub.add_parser("dvf", help="discrete vector field on a CW complex")
    p.add_argument("--complex", type=str, metavar="FILE",
                   dest="complex_path",
                   help="complex file (default: the bundled two-room house)")

    p = sub.add_parser("quad", help="quadratic integer ring reports")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--ideal", type=str, required=True,
                   help="generator, e.g. \"41+56i\"")
    p.add_argument("--report", type=str, default="norm,prime,index",
                   help="comma-separated fields: norm, prime, index, "
                        "l-ratio, torsion-ratio")
    p.add_argument("--orders", type=str, default="",
                   help="torsion orders for torsion-ratio")

    p = sub.add_parser("contract", help="collapse a chain complex")
    _group_args(p)
    p.add_argument("--complex", type=str, metavar="FILE", dest="complex_path")
    p.add_argument("--depth", type=int)
    return ap


def config_from_args(ns):
    """Complete a parsed namespace into the validated configuration the
    runners read: kind and level from the group flag, --ops, --report and
    --orders as lists, and _DEFAULTS for the fields the subcommand does
    not define.  Raises ConfigError on what the parser cannot reject."""
    for name, value in _DEFAULTS.items():
        if not hasattr(ns, name):
            setattr(ns, name, value)
    for flag, kind in (("gamma0", "gamma0"), ("gamma1", "gamma1"),
                       ("gamma", "principal")):
        if getattr(ns, flag, None) is not None:
            ns.kind, ns.level = kind, getattr(ns, flag)
            break
    ns.ops = _csv_ints(ns.ops) if getattr(ns, "ops", None) else []
    ns.report = [r.strip() for r in getattr(ns, "report", "").split(",")
                 if r.strip()]
    ns.orders = _csv_ints(ns.orders) if getattr(ns, "orders", None) else []
    _validate(ns)
    return ns


# ------------------------------------------------------------ subcommands


def _run_index(cfg):
    n = index(_group(cfg))
    return {"group": str(_group(cfg)), "index": n}, [str(n)]


def _run_generators(cfg):
    gens = generators(_group(cfg))
    rows = [list(g.entries()) for g in gens]
    lines = ["%d %d %d %d" % tuple(r) for r in rows]
    return {"group": str(_group(cfg)), "count": len(rows),
            "generators": rows}, lines


def _group_chain_complex(cfg, depth):
    from .resolutions import sl2z_resolution, tensor_with_z
    return tensor_with_z(sl2z_resolution(depth), _group(cfg))


def _run_homology(cfg):
    from .chaincx import contract, homology as chain_homology
    n = cfg.degree
    depth = cfg.depth if cfg.depth is not None else n + 1
    C = _group_chain_complex(cfg, depth)
    ranks_before = list(C.ranks)
    if cfg.do_contract:
        C = contract(C)
    inv = chain_homology(C, n)
    result = {"group": str(_group(cfg)), "degree": n,
              "invariants": str(inv), "torsion": list(inv.torsion),
              "free_rank": inv.free_rank, "contracted": cfg.do_contract,
              "ranks": ranks_before}
    if cfg.do_contract:
        result["ranks_contracted"] = list(C.ranks)
    return result, [str(inv)]


def _run_cohomology(cfg):
    from .coeffmod import PolynomialModule, cohomology, hom_complex
    from .resolutions import restrict_resolution, sl2z_resolution
    n = cfg.degree
    module = PolynomialModule(cfg.weight - 2)
    # the resolution is released before the Smith form of the coboundaries
    C = hom_complex(restrict_resolution(sl2z_resolution(n + 1), _group(cfg)),
                    module)
    inv = cohomology(C, n)
    return {"group": str(_group(cfg)), "degree": n, "weight": cfg.weight,
            "invariants": str(inv), "torsion": list(inv.torsion),
            "free_rank": inv.free_rank}, [str(inv)]


def _run_hecke(cfg):
    from .coeffmod import PolynomialModule
    from .exactlin import charpoly
    from .hecke import hecke_eigenvalues, hecke_operators
    gamma = _group(cfg)
    n = cfg.degree
    module = PolynomialModule(cfg.weight - 2)
    results = []
    lines = []
    if cfg.emit == "eigenvalues":
        reports = hecke_eigenvalues(gamma, n, cfg.ops, module=module)
        for p in sorted(reports):
            rep = reports[p]
            ordered = sorted(rep.roots, reverse=True)
            results.append({"p": rep.p, "eigenvalues": ordered,
                            "residual": list(rep.residual)})
            lines.append("T%d {%s}" % (rep.p,
                                       ", ".join(str(r) for r in ordered)))
    else:
        ops = hecke_operators(gamma, n, cfg.ops, module=module)
        for p, T in zip(cfg.ops, ops):
            if cfg.emit == "matrix":
                results.append({"p": p, "orders": list(T.orders),
                                "matrix": [list(r) for r in T.matrix.data]})
                lines.append("T%d orders %s" % (p, list(T.orders)))
                lines.extend("  " + " ".join(str(x) for x in row)
                             for row in T.matrix.data)
            else:
                # charpoly of the free block: torsion has no spectrum over Q
                poly = charpoly(T.free_block())
                results.append({"p": p, "charpoly": poly})
                lines.append("T%d %s" % (p, " ".join(str(c) for c in poly)))
    return {"group": str(gamma), "degree": n, "weight": cfg.weight,
            "emit": cfg.emit, "operators": results}, lines


def _run_cuspidal(cfg):
    from .coeffmod import PolynomialModule
    from .cuspidal import cuspidal_cohomology
    module = PolynomialModule(cfg.module_degree)
    r = cuspidal_cohomology(_group(cfg), cfg.degree, module)
    doc = r.descriptor()
    lines = ["ambient %s" % doc["ambient"],
             "boundary %s" % doc["boundary"],
             "cuspidal %s" % doc["cuspidal"]]
    return doc, lines


def _run_dvf(cfg):
    from .chaincx import all_homology
    from .cwdvf import bing_house, critical_complex, load_complex, maximal_dvf
    if cfg.complex_path:
        X = load_complex(cfg.complex_path)
    else:
        X = bing_house()
    V = maximal_dvf(X)
    M = critical_complex(X, V)
    hom = [str(h) for h in all_homology(M)]
    crit = V.critical_counts(X)
    result = {"cells": list(X.counts), "critical": crit, "homology": hom}
    lines = ["cells " + " ".join(str(c) for c in X.counts),
             "critical " + " ".join(str(c) for c in crit),
             "homology " + " | ".join(hom)]
    return result, lines


def _run_quad(cfg):
    from .quadring import (ideal_from_generators, gamma0_index, l_ratio,
                           parse_quad, torsion_ratio)
    x = parse_quad(cfg.ideal, cfg.d)
    a = ideal_from_generators([x])
    result = {"d": cfg.d, "ideal": cfg.ideal, "element_norm": x.norm()}
    lines = []
    for fieldname in cfg.report:
        if fieldname == "norm":
            result["norm"] = a.norm()
            lines.append("norm %d" % a.norm())
        elif fieldname == "prime":
            result["prime"] = a.is_prime()
            lines.append("prime %s" % a.is_prime())
        elif fieldname == "index":
            result["index"] = gamma0_index(a)
            lines.append("index %d" % result["index"])
        elif fieldname == "l-ratio":
            # both normalizations in circulation, reported side by side
            v18 = l_ratio(cfg.d, pi_multiple=18)
            v6 = l_ratio(cfg.d, pi_multiple=6)
            result["l_ratio_18pi"] = round(v18, 7)
            result["l_ratio_6pi"] = round(v6, 7)
            lines.append("l-ratio(18pi) %.7f" % v18)
            lines.append("l-ratio(6pi) %.7f" % v6)
        elif fieldname == "torsion-ratio":
            v = torsion_ratio(cfg.orders, a)
            result["torsion_ratio"] = round(v, 8)
            lines.append("torsion-ratio %.8f" % v)
    return result, lines


def _run_contract(cfg):
    from .chaincx import all_homology, contract
    from .cwdvf import load_complex
    if cfg.complex_path:
        C = load_complex(cfg.complex_path).as_chain_complex()
        label = cfg.complex_path
        report_top = C.top_degree
    elif cfg.kind:
        depth = cfg.depth if cfg.depth is not None else 2
        C = _group_chain_complex(cfg, depth)
        label = str(_group(cfg))
        # the complex is a truncation, so its top homology is an artifact
        # of cutting the resolution off and is not reported
        report_top = C.top_degree - 1
    else:
        raise ConfigError("contract needs --complex or a group")
    ranks_before = list(C.ranks)
    D = contract(C)
    hom = [str(h) for h in all_homology(D)[:report_top + 1]]
    result = {"source": label, "ranks": ranks_before,
              "ranks_contracted": list(D.ranks), "collapses": len(D.trace),
              "homology": hom}
    lines = ["ranks " + " ".join(str(r) for r in ranks_before),
             "contracted " + " ".join(str(r) for r in D.ranks),
             "homology " + " | ".join(hom)]
    return result, lines


_RUNNERS = {
    "index": _run_index,
    "generators": _run_generators,
    "homology": _run_homology,
    "cohomology": _run_cohomology,
    "hecke": _run_hecke,
    "cuspidal": _run_cuspidal,
    "dvf": _run_dvf,
    "quad": _run_quad,
    "contract": _run_contract,
}


def _print_json(doc, out=None):
    # json loads only for the runs that write a JSON document
    import json
    print(json.dumps(doc, sort_keys=True), file=out)


def run(cfg, out=None):
    """Execute a validated configuration; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        result, lines = _RUNNERS[cfg.subcommand](cfg)
    except ConfigError:
        raise
    except ArtifactError as err:
        if cfg.fmt == "json":
            _print_json({"schema": SCHEMA, "subcommand": cfg.subcommand,
                         "error": {"type": type(err).__name__,
                                   "message": str(err)}}, out)
        else:
            print("error %s: %s" % (type(err).__name__, err), file=sys.stderr)
        return 3
    if cfg.fmt == "json":
        _print_json({"schema": SCHEMA, "subcommand": cfg.subcommand,
                     "result": result}, out)
    else:
        for line in lines:
            print(line, file=out)
    return 0


def main(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        cfg = config_from_args(ns)
        return run(cfg)
    except ConfigError as err:
        if ns.fmt == "json":
            _print_json({"schema": SCHEMA, "subcommand": ns.subcommand,
                         "error": {"type": "ConfigError",
                                   "message": str(err)}})
        else:
            print("error ConfigError: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
