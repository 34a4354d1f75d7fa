"""Every ``PDAgentConfig`` field must be a setting some workload varies.

A field that every workload leaves at its default is a named constant in
the module that reads it, not a knob.  This scans the program (``src/``),
the benchmarks, the perf workloads and the examples with ``ast`` and fails
for any field that nothing there sets to a value other than its default.
A keyword argument or a string dict key named after a field counts as a
setting; a non-literal value (a variable, an expression) counts as varied.
"""

import ast
import dataclasses
import pathlib

from repro.core import PDAgentConfig

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "perfbench", "examples")

#: Deployment settings: where a real installation keeps its state, which
#: hermetic simulations leave at the default on purpose.
DEPLOYMENT_SETTINGS = {"sqlite_path"}


def _settings(tree):
    """``(name, value node)`` for every keyword argument and string dict key."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    yield key.value, value


def _is_default(value, default):
    try:
        literal = ast.literal_eval(value)
    except ValueError:
        return False  # computed: the workload varies it
    return literal == default


def varied_fields():
    defaults = {f.name: f.default for f in dataclasses.fields(PDAgentConfig)}
    varied = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for name, value in _settings(tree):
                if name in defaults and not _is_default(value, defaults[name]):
                    varied.add(name)
    return varied


def test_every_config_field_is_varied_by_some_workload():
    fields = {f.name for f in dataclasses.fields(PDAgentConfig)}
    single_valued = sorted(fields - varied_fields() - DEPLOYMENT_SETTINGS)
    assert single_valued == [], (
        f"{len(single_valued)} PDAgentConfig field(s) no workload sets to a "
        f"non-default value; make each a named constant where it is read: "
        f"{single_valued}"
    )


def test_deployment_allowlist_names_real_fields():
    fields = {f.name for f in dataclasses.fields(PDAgentConfig)}
    assert DEPLOYMENT_SETTINGS <= fields
