import dataclasses
import gc
import json
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from designforge import cli
from designforge.casestudies import claim
from designforge.cli import main
from designforge.design import read_design
from oracles import jsonable


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_method1_writes_design(tmp_path, capsys):
    out_path = tmp_path / "d.design"
    code, body = run_json(
        capsys,
        "construct", "--method", "1", "--group", "alternating:6", "--out", str(out_path),
    )
    assert code == 0
    assert body["schema_version"] == 1
    assert body["params"] == {"t": 1, "v": 6, "b": 6, "k": 5, "lam": 5}
    D, params = read_design(out_path)
    assert (D.v, D.b) == (6, 6) and params.k == 5


def test_construct_method2(capsys):
    code, body = run_json(
        capsys,
        "construct", "--method", "2", "--group", "psl2:9",
        "--maximal", "point-stabilizer:0", "--ord", "2",
    )
    assert code == 0
    assert body["params"]["v"] == 45


def test_construct_method2_missing_args_is_input_error(capsys):
    code = main(["construct", "--method", "2", "--group", "psl2:9"])
    assert code == 2


def test_unknown_group_recipe_is_input_error(capsys):
    code = main(["construct", "--method", "1", "--group", "sporadic:1"])
    assert code == 2


def test_missing_design_file_is_input_error(capsys):
    code = main(["dual", "--design", "/nonexistent/d.design"])
    assert code == 2


def fano_file(tmp_path):
    path = tmp_path / "fano.design"
    path.write_text(
        "design 7 7\n1 3 3\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
    )
    return str(path)


def test_tdesign_expect_pass_and_fail(tmp_path, capsys):
    path = fano_file(tmp_path)
    code, body = run_json(capsys, "tdesign", "--design", path, "--t", "2", "--expect", "1")
    assert code == 0 and body["lambda_t"] == 1
    code, body = run_json(capsys, "tdesign", "--design", path, "--t", "2", "--expect", "9")
    assert code == 4


def test_tdesign_max_t(tmp_path, capsys):
    code, body = run_json(capsys, "tdesign", "--design", fano_file(tmp_path), "--max-t")
    assert code == 0
    assert body["max_t"] == 2 and body["lambda_t"] == 1


def test_tdesign_budget_exit(tmp_path, capsys):
    code = main(["tdesign", "--design", fano_file(tmp_path), "--t", "2", "--budget", "3"])
    assert code == 3


def test_aut_with_expectation(tmp_path, capsys):
    path = fano_file(tmp_path)
    code, body = run_json(capsys, "aut", "--design", path, "--expect-order", "168")
    assert code == 0
    assert body["order"] == 168 and body["complete"]
    code, _ = run_json(capsys, "aut", "--design", path, "--expect-order", "42")
    assert code == 4


def test_reduce_and_dual_roundtrip(tmp_path, capsys):
    src = tmp_path / "d.design"
    src.write_text(
        "design 6 6\n0 1 2 3\n2 3 4 5\n0 1 4 5\n0 1 2 3\n2 3 4 5\n0 1 4 5\n"
    )
    reduced = tmp_path / "r.design"
    code, body = run_json(
        capsys, "reduce", "--design", str(src), "--out", str(reduced)
    )
    assert code == 0 and body["class_size"] == 2 and body["classes"] == 3
    code, body = run_json(capsys, "dual", "--design", str(reduced))
    assert code == 0 and body["params"]["v"] == 6


def test_report_file_and_text_format(tmp_path, capsys):
    path = fano_file(tmp_path)
    report = tmp_path / "out.json"
    code, out = run(
        capsys,
        "aut", "--design", path, "--format", "text", "--report", str(report),
        "--expect-order", "168",
    )
    assert code == 0
    assert "order: 168" in out
    saved = json.loads(report.read_text())
    assert saved["order"] == 168 and saved["schema_version"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        "stab --group alternating:5 --maximal pgl2 --ord 2",
        "construct --method 2 --group mathieu:22 --maximal pgl2:squared --ord 2",
        "stab --group psl2:9 --maximal point-stabilizer:99 --ord 2",
        "construct --method 1 --group psl2:9 --point 50",
        "stab --group psl2:9 --maximal pgl2:squared --ord 0",
        "construct --method 1 --group psl2:4 --point -1",
        "stab --group psl2:9 --maximal point-stabilizer:-1 --ord 2",
        "construct --method 1 --group symmetric:4 --orbit-index -1",
        "examples --sample -1",
    ],
)
def test_out_of_range_argument_is_input_error(argv, capsys):
    # each of these once crashed with a traceback, or was read through
    # negative indexing as the last point or orbit
    assert main(argv.split()) == 2
    assert "error:" in capsys.readouterr().err


def test_stab_command(capsys):
    code, body = run_json(
        capsys, "stab", "--group", "psl2:9", "--maximal", "pgl2:squared", "--ord", "2"
    )
    assert code == 0
    assert body["report"]["s_order"] == 24
    assert all(c["pass"] for c in body["claims"])


def test_psl2_family_command(capsys):
    code, body = run_json(capsys, "psl2", "--q", "3")
    assert code == 0
    assert len(body["families"][0]["records"]) == 6


def test_mathieu_single_row_text(capsys):
    code, out = run(capsys, "mathieu", "--n", "22", "--ord", "2", "--format", "text")
    assert code == 0
    assert "887040" in out and "5760" in out


def test_mathieu_text_is_the_rendered_report(tmp_path, capsys, monkeypatch):
    # the text format is the one renderer applied to the JSON report, so
    # each row is printed once
    render = cli._render_text
    bodies = []
    monkeypatch.setattr(cli, "_render_text", lambda body: bodies.append(body) or render(body))
    report = tmp_path / "report.json"
    code, out = run(capsys, "mathieu", "--n", "22", "--ord", "2", "--format", "text", "--report", str(report))
    assert code == 0
    assert bodies == [json.loads(report.read_text())]
    render(bodies[0])
    assert out == capsys.readouterr().out


def test_mathieu_text_prints_one_field_per_line(capsys):
    # the rows are walked field by field under rows[i], and their nested
    # claims print as ok/FAIL lines, not as one Python repr per list
    code, out = run(capsys, "mathieu", "--n", "22", "--ord", "2", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert "rows[0].dual_params.b: 77" in lines
    assert "rows[0].claims: dual-aut-order ok" in lines
    assert "{'" not in out
    fields = [line.split(": ")[0] for line in lines if line.startswith("rows[0].") and "claims" not in line]
    assert fields == sorted(fields) and len(fields) == len(set(fields))


@pytest.mark.parametrize("command", ["dual", "tdesign", "reduce", "aut"])
def test_header_with_more_points_than_incidences_is_input_error(command, tmp_path, capsys):
    # a point count no block line can cover is rejected while the file is
    # read, before anything of that length is allocated
    path = tmp_path / "huge.design"
    path.write_text("design 10000000000000 1\n0 1\n")
    assert main([command, "--design", str(path)]) == 2
    assert "incidences" in capsys.readouterr().err


def test_params_line_contradicting_blocks_is_input_error(tmp_path, capsys):
    # a 1-(4,3,3) design declared as 1-(4,3,9)
    path = tmp_path / "bad.design"
    path.write_text("design 4 4\n1 3 9\n0 1 2\n1 2 3\n0 2 3\n0 1 3\n")
    assert main(["aut", "--design", str(path)]) == 2
    assert "params line" in capsys.readouterr().err
    path.write_text("design 4 4\n1 3 3\n0 1 2\n1 2 3\n0 2 3\n0 1 3\n")
    assert main(["aut", "--design", str(path)]) == 0


def test_one_block_too_many_is_input_error(tmp_path, capsys):
    # the header declares 3 blocks, so the first of 4 is read as a params line
    path = tmp_path / "extra.design"
    path.write_text("design 4 3\n0 1 2\n1 2 3\n0 2 3\n0 1 3\n")
    assert main(["aut", "--design", str(path)]) == 2
    assert "params line" in capsys.readouterr().err


def _parse_output(capsys, parser, argv):
    """Exit code and printed text of parsing argv with the given parser."""
    try:
        parser.parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(cli._COMMANDS))
def test_single_command_parser_matches_full_parser(name, capsys):
    # main builds only the called command's subparser; help and errors must
    # read as they do from the parser with every command
    full, single = cli._parser(), cli._parser(name)
    assert single.format_usage() == full.format_usage()
    for argv in ([name, "--help"], [name, "--no-such-option"], [name, "extra"], [name, "--seed", "x"]):
        assert _parse_output(capsys, single, argv) == _parse_output(capsys, full, argv)


def test_emit_collects_claims_inside_dataclasses(capsys):
    @dataclasses.dataclass
    class Row:
        n: int
        claims: list

    args = Namespace(seed=0, format="json", report=None)
    passing = {"command": "x", "rows": [Row(1, [claim("a", 1, 1)])]}
    failing = {"command": "x", "rows": [Row(1, [claim("a", 1, 1)]), Row(2, [claim("b", 1, 2)])]}
    assert cli._emit(args, passing) == 0
    capsys.readouterr()
    assert cli._emit(args, failing) == 4
    body = json.loads(capsys.readouterr().out)
    assert body["rows"][1] == {"n": 2, "claims": [claim("b", 1, 2)]}


@settings(max_examples=200, deadline=None)
@given(st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
))
@example({"claims": None})
@example({"claims": 3})
def test_dumps_matches_json(body):
    # the report encoder writes what json.dumps(indent=2, sort_keys=True)
    # does, also where a "claims" value is not a list
    assert cli._dumps(body, []) == json.dumps(body, indent=2, sort_keys=True)


def test_dumps_converts_report_objects():
    # dataclasses, tuples and keys that are not strings, as oracles.jsonable
    # converts them, and every claim under a "claims" key outside claims
    @dataclasses.dataclass
    class Row:
        n: int
        pair: tuple
        claims: list

    report = {"rows": [Row(1, (2, 3.5), [claim("a", {"claims": [0]}, 1)])], 7: (), "claims": [claim("b", 1, 1)]}
    claims = []
    assert cli._dumps(report, claims) == json.dumps(jsonable(report), indent=2, sort_keys=True)
    assert [c["claim"] for c in claims] == ["b", "a"]


def test_emit_rejects_numpy_scalars(capsys):
    # a value a report must not carry fails the encoding instead of being
    # written as a string
    args = Namespace(seed=0, format="json", report=None)
    with pytest.raises(TypeError):
        cli._emit(args, {"command": "x", "lambda_t": np.int64(3), "claims": []})


SRC = Path(cli.__file__).resolve().parents[1]


def fresh_python(*argv, env=None):
    """Run a fresh interpreter on this checkout's sources, with
    OPENBLAS_NUM_THREADS taken out of the environment unless env sets it."""
    full = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    full.update(env or {}, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *argv], env=full, capture_output=True, text=True, check=True)


PROBE = (
    "import os, designforge.cli; "
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], tasks)"
)


def test_cli_import_starts_no_blas_threads():
    # numpy's OpenBLAS starts its workers when numpy loads; the CLI module
    # asks for one thread first, so the process has no thread but its own
    value, tasks = fresh_python("-c", PROBE).stdout.split()
    assert value == "1"
    assert tasks in ("1", "None")


def test_cli_import_keeps_a_preset_blas_thread_count():
    value, _ = fresh_python("-c", PROBE, env={"OPENBLAS_NUM_THREADS": "2"}).stdout.split()
    assert value == "2"


def test_process_command_line_writes_the_in_process_report(tmp_path, capsys):
    # python -m designforge.cli reads the process's own argv and freezes the
    # collector; the report is the one main(argv) writes in-process
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    fresh_python("-m", "designforge.cli", "psl2", "--q", "3", "--report", str(a))
    assert main(["psl2", "--q", "3", "--report", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_main_with_argv_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert main(["psl2", "--q", "3"]) == 0
    assert gc.get_freeze_count() == before
