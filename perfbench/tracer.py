"""Traced in-process run of one workload, for the per-module metrics.

perfbench/run.py --trace 1 starts this script in a process of its own, so
that the wrappers it installs never reach the untraced runs:

    python3 perfbench/tracer.py --workload class_stab --seed 1 --spans .perfbench/spans.jsonl

Steps, all in this one process:

1. time the permutation kernel (multiply, inverse, conjugate) at degrees
   24, 378 and 56672, before anything is wrapped;
2. run the workload's commands through designforge.cli.main, untraced;
3. wrap public functions of the package from outside, then run the commands
   again; each wrapper records a span (name, start, end, parent span, run id,
   one run id per command) and some count exact work;
4. check both passes' reports against the references, write the spans to
   --spans, and print the metrics as the last line of standard output.

trace.coverage is the share of the traced wall that the named layers account
for. The glue spans (cli.main and the public casestudies functions) take in
all time that no layer span covers, so their self time is left out of it.

Module-level caches (the lru_cache in gf.py) are cleared before every
command, as a fresh CLI interpreter would have them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import tempfile
import time
import timeit
from collections import Counter, defaultdict
from pathlib import Path
from random import Random

import gate
from run import ROOT, WORKLOADS

KERNEL_DEGREES = (24, 378, 56672)
COVERAGE_FLOOR = 0.95
GLUE = ("casestudies", "cli")

# metric -> span name: inclusive time of the outermost spans of that name
INCLUSIVE_METRICS = {
    "autsearch.aut_group_s": "autsearch.aut_group",
    "autsearch.lift_s": "autsearch.lift",
    "construct.perm_char_s": "construct.perm_char",
    "construct.method1_s": "construct.method1",
    "group.orbit_transversal_s": "group.orbit_transversal",
    "group.orbit_stabilizer_s": "group.orbit_stabilizer",
    "group.chain_s": "group.chain",
    "group.pointwise_stabilizer_s": "group.pointwise_stabilizer",
    "group.centralizer_s": "group.centralizer",
    "group.subgroup_closure_s": "group.subgroup_closure",
    "group.element_of_order_s": "group.element_of_order",
    "design.reduce_s": "design.reduce",
    "design.dual_s": "design.dual",
    "design.tally_s": "design.tally",
    "design.validate_s": "design.validate",
    "atlas.build_s": "atlas.build",
}
# metric -> span name: self time, the spans' durations minus their children's
SELF_METRICS = {
    "construct.method2_s": "construct.method2",
    "construct.coset_action_s": "construct.coset_action",
    "casestudies.self_s": "casestudies",
    "cli.self_s": "cli",
}
COUNT_METRICS = (
    "autsearch.nodes",
    "construct.method2_blocks",
    "group.orbit_elems",
    "group.chain_builds",
    "group.membership_tests",
    "perm.constructed",
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, run, outermost]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = Counter()
        self.run = None
        self.counts = Counter()
        self.budget_used = 0.0

    def wrap(self, name, fn, after=None):
        spans, stack, open_names = self.spans, self.stack, self.open_names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None,
                          self.run, open_names[name] == 0])
            stack.append(sid)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][2] = time.perf_counter()
                stack.pop()
                open_names[name] -= 1
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def counting(self, counter, fn):
        """fn, a method of one argument, counted on every call; the fixed
        signature keeps the cost of counting millions of calls low."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(obj, arg):
            counts[counter] += 1
            return fn(obj, arg)

        return counted

    def install(self, df):
        """Wrap the package's public functions and methods; df maps module
        short names to the imported designforge modules."""
        counts = self.counts
        aut_signature = inspect.signature(df["autsearch"].aut_group)

        def searched(res, *args, **kwargs):
            call = aut_signature.bind(*args, **kwargs)
            call.apply_defaults()
            counts["autsearch.nodes"] += res.nodes
            self.budget_used = max(self.budget_used, res.nodes / call.arguments["budget"])

        def method2(res, *a, **k):
            counts["construct.method2_blocks"] += res.design.b

        def orbit(res, *a, **k):
            counts["group.orbit_elems"] += len(res[0])

        functions = {
            (df["autsearch"].aut_group, "autsearch.aut_group", searched),
            (df["autsearch"].lift_test_method1, "autsearch.lift", None),
            (df["autsearch"].lift_test_method2, "autsearch.lift", None),
            (df["construct"].method1_design, "construct.method1", None),
            (df["construct"].method2_design, "construct.method2", method2),
            (df["construct"].coset_action, "construct.coset_action", None),
            (df["construct"].perm_char_value, "construct.perm_char", None),
            (df["group"].orbit_with_transversal, "group.orbit_transversal", orbit),
            (df["group"].orbit_with_stabilizer, "group.orbit_stabilizer", None),
            (df["group"].centralizer, "group.centralizer", None),
            (df["group"].subgroup_closure, "group.subgroup_closure", None),
            (df["group"].element_of_order, "group.element_of_order", None),
            (df["design"].reduce_design, "design.reduce", None),
            (df["design"].dual_design, "design.dual", None),
            (df["design"].t_design_lambda, "design.tally", None),
            (df["design"].validate_1design, "design.validate", None),
            (df["cli"].main, "cli", None),
        }
        for short, span in (("atlas", "atlas.build"), ("casestudies", "casestudies")):
            mod = df[short]
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    functions.add((fn, span, None))
        wrapped = {id(fn): self.wrap(span, fn, after) for fn, span, after in functions}
        # rebind every module-level name bound to a wrapped function, since
        # modules import each other's functions by name
        for mod in df.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    setattr(mod, name, wrapped[id(value)])

        PermGroup, Permutation = df["group"].PermGroup, df["perm"].Permutation
        PermGroup.pointwise_stabilizer = self.wrap(
            "group.pointwise_stabilizer", PermGroup.pointwise_stabilizer
        )
        PermGroup.__contains__ = self.counting("group.membership_tests", PermGroup.__contains__)
        Permutation.__init__ = self.counting("perm.constructed", Permutation.__init__)
        chain = PermGroup.chain.fget
        build = self.wrap("group.chain", chain)

        def first_access(group):
            # a span only where the property builds the chain, i.e. on first access
            if getattr(group, "_chain", None) is None:
                counts["group.chain_builds"] += 1
                return build(group)
            return chain(group)

        PermGroup.chain = property(first_access, doc=PermGroup.chain.__doc__)

    def self_and_inclusive(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_time, inclusive = defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, _, outermost) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            if outermost:
                inclusive[name] += end - start
        return self_time, inclusive

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def kernel_timings(Permutation, seed):
    """Microseconds per multiply, inverse and conjugate (with the inverse of
    the conjugator given, as the library's orbit loops call it)."""
    rng = Random(seed)
    out = {}
    for degree in KERNEL_DEGREES:
        a, b, x = [list(range(degree)) for _ in range(3)]
        for p in (a, b, x):
            rng.shuffle(p)
        a, b, x = Permutation(a), Permutation(b), Permutation(x)
        xinv = x.inverse()
        ops = {
            "mul": lambda: a * b,
            "inv": a.inverse,
            "conj": lambda: a.conjugate(x, xinv),
        }
        for op, fn in ops.items():
            timer = timeit.Timer(fn)
            number, _ = timer.autorange()  # a batch of at least 0.2 s
            number = max(1, number // 10)
            per = [t / number for t in timer.repeat(repeat=5, number=number)]
            out["perm.%s_us.d%d" % (op, degree)] = statistics.median(per) * 1e6
    return out


def coverage(self_time, traced_wall):
    """Share of the traced wall in the self time of spans other than glue."""
    return sum(v for k, v in self_time.items() if k not in GLUE) / traced_wall


def load_modules():
    """The designforge modules of this checkout, by short name."""
    sys.path.insert(0, str(ROOT / "src"))
    import designforge.cli
    from designforge import atlas, autsearch, casestudies, construct, design, gf, group, perm

    return dict(atlas=atlas, autsearch=autsearch, casestudies=casestudies, cli=designforge.cli,
                construct=construct, design=design, gf=gf, group=group, perm=perm)


def run_commands(df, cmds, seed, tmp, tag, tracer=None):
    """One in-process pass; returns (wall seconds, failures)."""
    caches = [fn for mod in df.values() for fn in vars(mod).values() if hasattr(fn, "cache_clear")]
    outcomes = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        started = time.perf_counter()
        for i, argv in enumerate(cmds):
            for fn in caches:
                fn.cache_clear()
            report = Path(tmp) / ("%s-%d.json" % (tag, i))
            if tracer is not None:
                tracer.run = i
            rc = df["cli"].main([*argv, "--seed", str(seed), "--report", str(report)])
            outcomes.append((argv, report, rc))
        wall = time.perf_counter() - started
    failures = []
    for argv, report, rc in outcomes:
        reason = "exit code %d" % rc if rc else gate.check(argv, report)
        if reason is not None:
            failures.append({"command": "%s (%s pass)" % (" ".join(argv), tag), "reason": reason})
    return wall, failures


def main():
    ap = argparse.ArgumentParser(description="traced in-process run of one workload")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    df = load_modules()
    cmds = WORKLOADS[args.workload]
    metrics = {k: (v, "us") for k, v in kernel_timings(df["perm"].Permutation, args.seed).items()}
    with tempfile.TemporaryDirectory(dir=args.spans.parent) as tmp:
        plain_wall, failures = run_commands(df, cmds, args.seed, tmp, "untraced")
        tracer = Tracer()
        tracer.install(df)
        traced_wall, traced_failures = run_commands(df, cmds, args.seed, tmp, "traced", tracer)
    failures += traced_failures
    tracer.write(args.spans)

    self_time, inclusive = tracer.self_and_inclusive()
    metrics.update((k, (inclusive[span], "s")) for k, span in INCLUSIVE_METRICS.items())
    metrics.update((k, (self_time[span], "s")) for k, span in SELF_METRICS.items())
    metrics.update((k, (tracer.counts[k], "count")) for k in COUNT_METRICS)
    nodes = tracer.counts["autsearch.nodes"]
    aut_ms = 1000 * inclusive["autsearch.aut_group"]
    covered = coverage(self_time, traced_wall)
    metrics.update({
        "autsearch.node_ms": (aut_ms / nodes if nodes else 0.0, "ms"),
        "autsearch.budget_used": (tracer.budget_used, "ratio"),
        "trace.coverage": (covered, "ratio"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    if covered < COVERAGE_FLOOR:
        failures.append({"command": "trace", "reason": "coverage %.3f below %.2f"
                         % (covered, COVERAGE_FLOOR)})
    print(json.dumps({
        "attempted": 2 * len(cmds),
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
