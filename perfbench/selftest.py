"""Self-test of the benchmark on its tiny `smoke` command list
(psl2 --q 3, then mathieu --n 22 --ord 2). It checks that:

- with --trace 0, exactly the end-to-end metrics of BENCHMARK.json are in
  the result, each printed by name with its unit, and ops_failed_ratio too;
- with --trace 1, exactly the per-layer metrics are, with their units;
- both runs pass the correctness gate;
- a corrupted reference report counts as a failed command;
- trace.coverage falls below its floor when a layer is left unwrapped, so
  that time counts as glue;
- without the program's sources the benchmark exits non-zero and prints no
  result.

Run from the root of a checkout (about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
from gate import REFS
from run import BENCH, OUT, ROOT, WORKLOADS, run_pass


def fail(msg):
    raise SystemExit("selftest FAILED: %s" % msg)


def bench(*extra, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    if proc.returncode != 0:
        fail("exit code %d:\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(proc, declared):
    result = result_of(proc)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if not result["correct"] or result["failed"]:
        fail("smoke run not correct: %s" % proc.stdout)
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics %s, declared %s" % (got, want))
    lines = proc.stdout.splitlines()[:-1]
    for name, unit in [*want.items(), ("ops_failed_ratio", "ratio")]:
        if not any(ln.startswith(name + " ") and (" %s" % unit) in ln for ln in lines):
            fail("%s is not printed with its unit %s" % (name, unit))


def check_unwrapped_layer(tmp):
    """Trace mathieu --n 22 --ord 2 with method2_design left unwrapped; its
    time then counts as casestudies glue, and coverage must fall below the
    floor."""
    df = tracer.load_modules()
    method2 = df["construct"].method2_design
    traced = tracer.Tracer()
    traced.install(df)
    for mod in df.values():
        for name, value in list(vars(mod).items()):
            if getattr(value, "__wrapped__", None) is method2:
                setattr(mod, name, method2)
    cmds = [["mathieu", "--n", "22", "--ord", "2"]]
    wall, failures = tracer.run_commands(df, cmds, 0, tmp, "unwrapped", traced)
    if failures:
        fail("unwrapped trace run failed: %s" % failures)
    self_time, _ = traced.self_and_inclusive()
    covered = tracer.coverage(self_time, wall)
    if "construct.method2" in self_time or covered >= tracer.COVERAGE_FLOOR:
        fail("coverage %.3f with method2_design unwrapped" % covered)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench("--trace", "0"), spec["end_to_end"])
    check_metrics(bench("--trace", "1"), spec["per_layer"])
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        refs = Path(tmp) / "refs"
        shutil.copytree(REFS, refs)
        corrupt = refs / "mathieu_n_22_ord_2.json"
        body = json.loads(corrupt.read_text())
        body["rows"][0]["aut_order"] += 1
        corrupt.write_text(json.dumps(body))
        _, failures = run_pass(WORKLOADS["smoke"], 0, Path(tmp), "corrupt",
                               time.monotonic() + 120, refs, [])
        if [f["command"] for f in failures] != ["mathieu --n 22 --ord 2"]:
            fail("a corrupted reference was not counted as a failure: %s" % failures)

        check_unwrapped_layer(tmp)

        bare = Path(tmp) / "bare"
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--trace", "0", cwd=bare, script=bare / BENCH.name / "run.py")
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("ran without the program's sources: %s" % proc.stdout)
    print("selftest: ok")


if __name__ == "__main__":
    main()
