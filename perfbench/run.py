"""Benchmark for the designforge CLI: closed-loop workloads of fixed command
lists, end-to-end metrics, a correctness gate and a traced per-module run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mathieu_rows --seed 1 --seconds 35 --trace 0

With --trace 0 the workload's command list runs in passes, one command at a
time, each in a fresh interpreter (so module caches start cold, as they do
for a CLI user), as many as should fit in --seconds, but at least one.
The set-up time is sampled before every command and then for the rest of
--seconds, so that its samples span the whole run.
With --trace 1 a separate process (perfbench/tracer.py) runs the list
in-process through designforge.cli.main, once untraced and once traced, and
the per-module metrics are printed instead. Either way every report is
compared with its stored reference (perfbench/gate.py). The last line of
standard output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import gate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"

# Each workload is a closed loop with one client and one command in flight.
WORKLOADS = {
    # Method 2 block orbits and automorphism search on dense duals
    # (22-24 points, 77-6160 blocks). The (23,3) and (24,3) rows take about
    # 80 s and 510 s; their code paths run here on (22,3) and (24,2).
    "mathieu_rows": [
        ["mathieu", "--n", "22", "--ord", "2"],
        ["mathieu", "--n", "22", "--ord", "3"],
        ["mathieu", "--n", "23", "--ord", "2"],
        ["mathieu", "--n", "24", "--ord", "2"],
    ],
    # Schreier-Sims chain builds, coset actions on 378 and 120 points,
    # Method 1, and search on sparse 378-point designs; no Method 2 at all.
    "coset_examples": [["examples"]],
    # Method 2 at two scales (16 small designs and the M23 class), class
    # orbits, centralizers and closures; no automorphism search at all.
    "class_stab": [
        ["psl2", "--q", "3,5"],
        ["stab", "--group", "psl2:9", "--maximal", "pgl2:squared", "--ord", "2"],
        ["stab", "--group", "mathieu:22", "--maximal", "point-stabilizer:21",
         "--ord", "3", "--fixed-points", "4"],
        ["stab", "--group", "mathieu:23", "--maximal", "point-stabilizer:22",
         "--ord", "3", "--fixed-points", "5"],
    ],
    # the self-test's tiny list (perfbench/selftest.py); not in BENCHMARK.json
    "smoke": [["psl2", "--q", "3"], ["mathieu", "--n", "22", "--ord", "2"]],
}

# Stop starting commands after this many seconds, so that a run ends well
# inside three minutes even when a command hangs.
RUN_DEADLINE_S = 150
TRACE_DEADLINE_S = 170

UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    """No result can be measured: the program cannot be imported, or the
    traced run did not finish."""


def child_env():
    env = dict(os.environ)
    env.pop("DESIGNFORGE_SEED", None)  # it would override --seed
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def spawn(argv, timeout, stdout, stderr):
    """Run argv to completion; return (exit code or None on timeout, rusage).

    The rusage is that of this child alone, so its max RSS is per command.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill():
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        # wait without reaping, so that the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if state["killed"] else proc.returncode), usage


def machine_record():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def loadavg():
    return [round(x, 2) for x in os.getloadavg()]


def setup_sample(tmp: Path):
    """Seconds for a fresh interpreter to import designforge.cli, checking
    that it is imported from this checkout."""
    src = (ROOT / "src").resolve()
    out = tmp / "setup.out"
    with open(out, "w") as fh:
        t0 = time.perf_counter()
        rc, _ = spawn([sys.executable, "-c", "import designforge.cli as m; print(m.__file__)"],
                      60, fh, subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
    path = out.read_text().strip()
    if rc != 0 or not path or not Path(path).resolve().is_relative_to(src):
        raise BenchError("cannot import designforge.cli from %s" % src)
    return elapsed


def run_pass(cmds, seed, tmp: Path, tag, deadline, refs, setup):
    """One pass over the command list; returns its measurements and the
    failed commands with reasons. Before each command one set-up sample is
    appended to the list setup; its time is not counted in the pass."""
    wall = cpu = peak = 0.0
    outcomes = []
    for i, argv in enumerate(cmds):
        if time.monotonic() < deadline:
            setup.append(setup_sample(tmp))
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            outcomes.append((argv, None, "not started: run deadline passed"))
            continue
        report = tmp / ("%s-%d.json" % (tag, i))
        err = tmp / ("%s-%d.err" % (tag, i))
        with open(err, "w") as fh:
            t0 = time.perf_counter()
            rc, usage = spawn(
                [sys.executable, "-m", "designforge.cli", *argv,
                 "--seed", str(seed), "--report", str(report)],
                remaining, subprocess.DEVNULL, fh,
            )
            wall += time.perf_counter() - t0
        cpu += usage.ru_utime + usage.ru_stime
        peak = max(peak, usage.ru_maxrss / 1024.0)  # Linux reports KiB
        reason = None
        if rc is None:
            reason = "timed out"
        elif rc:
            tail = err.read_text().strip().splitlines()
            reason = "exit code %d" % rc + (": " + tail[-1] if tail else "")
        outcomes.append((argv, report, reason))
    failures = []
    for argv, report, reason in outcomes:
        if reason is None:
            reason = gate.check(argv, report, refs)
        if reason is not None:
            failures.append({"command": " ".join(argv), "reason": reason})
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak}, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_untraced(cmds, args, tmp):
    t0 = time.monotonic()
    deadline = t0 + RUN_DEADLINE_S
    end = min(t0 + args.seconds, deadline)
    passes, failures, attempted, setup = [], [], 0, []
    while True:
        tag = "pass%d" % len(passes)
        started = time.monotonic()
        m, failed = run_pass(cmds, args.seed, tmp, tag, deadline, gate.REFS, setup)
        passes.append(m)
        failures.extend(failed)
        attempted += len(cmds)
        print("%s: wall_s %.3f cpu_s %.3f peak_rss_mib %.1f failed %d"
              % (tag, m["wall_s"], m["cpu_s"], m["peak_rss_mib"], len(failed)))
        # start another pass only if it should end within --seconds
        now = time.monotonic()
        if now + (now - started) > end:
            break
    while time.monotonic() + setup[-1] < end:
        setup.append(setup_sample(tmp))
    metrics = {}
    for name in ("wall_s", "cpu_s", "peak_rss_mib"):
        vals = [p[name] for p in passes]
        q1, q3 = quartiles(vals)
        metrics[name] = statistics.median(vals)
        print("%s median %.4f q1 %.4f q3 %.4f n %d %s"
              % (name, metrics[name], q1, q3, len(vals), UNITS[name]))
    q1, q3 = quartiles(setup)
    metrics["setup_s"] = statistics.median(setup)
    print("setup_s median %.4f q1 %.4f q3 %.4f n %d s" % (metrics["setup_s"], q1, q3, len(setup)))
    return metrics, attempted, failures, passes


def run_traced(args, tmp):
    out = tmp / "trace.out"
    with open(out, "w") as fh:
        rc, _ = spawn(
            [sys.executable, str(BENCH / "tracer.py"), "--workload", args.workload,
             "--seed", str(args.seed),
             "--spans", str(OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed)))],
            TRACE_DEADLINE_S, fh, None,
        )
    if rc != 0:
        raise BenchError("traced run %s" % ("timed out" if rc is None else "exited with %d" % rc))
    result = json.loads(out.read_text().splitlines()[-1])
    for name, m in result["metrics"].items():
        print("%s %s %s" % (name, m["value"], m["unit"]))
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "designforge" / "cli.py").is_file():
        print("error: no designforge sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "loadavg_before": loadavg()}
    print("machine: python %(python)s, numpy %(numpy)s, nproc %(nproc)d, cpu %(cpu)s" % machine)
    print("loadavg before: %s" % record["loadavg_before"])
    cmds = WORKLOADS[args.workload]
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            if args.trace:
                traced = run_traced(args, Path(tmp))
                metrics = traced["metrics"]
                attempted, failures = traced["attempted"], traced["failures"]
            else:
                values, attempted, failures, record["passes"] = run_untraced(cmds, args, Path(tmp))
                metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    record["loadavg_after"] = loadavg()
    print("loadavg after: %s" % record["loadavg_after"])
    for f in failures:
        print("FAILED %s: %s" % (f["command"], f["reason"]))
    print("ops_failed_ratio %.4f ratio (%d of %d commands)"
          % (len(failures) / attempted, len(failures), attempted))
    record.update(metrics=metrics, attempted=attempted, failures=failures)
    (OUT / ("run-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
