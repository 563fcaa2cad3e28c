"""The names perfbench/tracer.py wraps must exist in the package: the tracer
patches them when a traced benchmark run starts, so a missing one fails that
run with AttributeError, which no other test would notice. The tracer is read
with ast, never imported or run. The results its after-hooks read must keep
their shape too."""

import ast
import importlib
import inspect
from pathlib import Path

from designforge.atlas import build_psl2, point_stabilizer_subgroup
from designforge.autsearch import aut_group
from designforge.construct import method2_design
from designforge.design import IncidenceStructure
from designforge.group import element_of_order, index_set_action, orbit_with_transversal

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
PATCHED_CLASSES = {"PermGroup": "group", "Permutation": "perm"}


def wrapped_names(source: str):
    """(module, name) for every df["<module>"].<name> in the source, and for
    every attribute of PermGroup or Permutation it names; the keys read from
    the bound arguments of aut_group, as call.arguments["<key>"]."""
    names, arguments = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if (
                isinstance(owner, ast.Subscript)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "df"
                and isinstance(owner.slice, ast.Constant)
            ):
                names.add((owner.slice.value, node.attr))
            elif isinstance(owner, ast.Name) and owner.id in PATCHED_CLASSES:
                names.add((owner.id, node.attr))
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "arguments"
            and isinstance(node.slice, ast.Constant)
        ):
            arguments.add(node.slice.value)
    return names, arguments


def missing_names(names, arguments):
    """The names and aut_group parameters that the package lacks."""
    missing = []
    for owner, name in sorted(names):
        if owner in PATCHED_CLASSES:
            target = getattr(importlib.import_module("designforge." + PATCHED_CLASSES[owner]), owner)
        else:
            target = importlib.import_module("designforge." + owner)
        if not hasattr(target, name):
            missing.append("%s.%s" % (owner, name))
    params = inspect.signature(aut_group).parameters
    missing += ["aut_group(%s=)" % key for key in sorted(arguments) if key not in params]
    return missing


def test_planted_missing_names_are_found():
    source = (
        'df["group"].orbit_with_transversal\n'
        'df["group"].no_such_function\n'
        "PermGroup.chain\n"
        "Permutation.no_such_method\n"
        'call.arguments["budget"]\n'
        'call.arguments["no_such_parameter"]\n'
    )
    names, arguments = wrapped_names(source)
    assert len(names) == 4 and arguments == {"budget", "no_such_parameter"}
    assert missing_names(names, arguments) == [
        "Permutation.no_such_method",
        "group.no_such_function",
        "aut_group(no_such_parameter=)",
    ]


def test_tracer_names_exist():
    names, arguments = wrapped_names(TRACER.read_text())
    assert len(names) >= 23 and arguments == {"budget"}
    assert missing_names(names, arguments) == []


def test_traced_result_shapes():
    # the tracer's after-hooks read len(orbit_with_transversal(...)[0]),
    # aut_group(...).nodes against its budget, and method2_design(...).design.b
    G = build_psl2(5)
    res = orbit_with_transversal(G, (0,), index_set_action([g.images for g in G.gens]))
    assert len(res[0]) == G.degree
    aut = aut_group(IncidenceStructure(4, [(0, 1), (2, 3), (0, 2), (1, 3)]), budget=100)
    assert isinstance(aut.nodes, int) and 0 < aut.nodes <= 100
    M = point_stabilizer_subgroup(G, 0)
    design = method2_design(G, M, element_of_order(M, 2))
    assert design.design.b == G.order() // M.order()
