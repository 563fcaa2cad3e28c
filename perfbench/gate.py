"""Correctness gate: each command's JSON report must equal its stored
reference report on every deterministic field.

Left out of the comparison are the echoed seed and the fields a correct
change to the automorphism search may alter: generators and node counts.
Everything else is compared exactly: claims with their expected and observed
values and pass flags, orders, parameters, class sizes and completeness
flags.

To regenerate the references (only when the program's deterministic output
is meant to change), run from the root of a checkout:

    python3 perfbench/gate.py --write
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
VOLATILE = frozenset({"seed", "generators", "point_gens", "nodes"})


def ref_name(argv) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_") + ".json"


def project(report):
    """The report without its volatile fields."""
    if isinstance(report, dict):
        return {k: project(v) for k, v in report.items() if k not in VOLATILE}
    if isinstance(report, list):
        return [project(v) for v in report]
    return report


def first_difference(ref, got, path="$"):
    if isinstance(ref, dict) and isinstance(got, dict):
        for k in sorted(set(ref) | set(got)):
            if k not in ref or k not in got:
                return "%s.%s (present on one side only)" % (path, k)
            diff = first_difference(ref[k], got[k], "%s.%s" % (path, k))
            if diff:
                return diff
        return None
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return "%s (length %d, reference %d)" % (path, len(got), len(ref))
        for i, (r, g) in enumerate(zip(ref, got)):
            diff = first_difference(r, g, "%s[%d]" % (path, i))
            if diff:
                return diff
        return None
    if ref != got:
        return "%s (%r, reference %r)" % (path, got, ref)
    return None


def check(argv, report_path, refs_dir=REFS):
    """None when the report matches its reference, else the reason it fails."""
    try:
        got = project(json.loads(Path(report_path).read_text()))
    except (OSError, ValueError) as exc:
        return "unreadable report: %s" % exc
    try:
        ref = json.loads((Path(refs_dir) / ref_name(argv)).read_text())
    except (OSError, ValueError) as exc:
        return "unreadable reference: %s" % exc
    diff = first_difference(ref, got)
    return None if diff is None else "report differs from reference at %s" % diff


def write_refs():
    """Run every workload command once at seed 0 and store its projected
    report; every command must exit 0, i.e. with all its claims passing."""
    import subprocess
    import tempfile

    from run import OUT, WORKLOADS, spawn

    REFS.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    seen = set()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for cmds in WORKLOADS.values():
            for argv in cmds:
                name = ref_name(argv)
                if name in seen:
                    continue
                seen.add(name)
                report = Path(tmp) / name
                rc, _ = spawn(
                    [sys.executable, "-m", "designforge.cli", *argv, "--seed", "0",
                     "--report", str(report)],
                    600, subprocess.DEVNULL, None,
                )
                if rc != 0:
                    raise SystemExit("%s: exit code %s" % (" ".join(argv), rc))
                body = project(json.loads(report.read_text()))
                (REFS / name).write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
                print("wrote", REFS / name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python3 perfbench/gate.py --write")
    write_refs()
