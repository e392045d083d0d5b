"""The names the benchmark in ``perfbench/`` looks up in ``ovoid`` exist.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` on
the listed modules, and ``perfbench/run.py`` calls ``ovoid.<module>.<name>``
directly.  A deletion or rename in ``src/`` that one of them still uses
fails here rather than in a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def run_py_references() -> set[tuple[str, str]]:
    """Every ``ovoid.<module>.<name>`` attribute chain in run.py."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    refs = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "ovoid"
        ):
            refs.add((f"ovoid.{node.value.attr}", node.attr))
    return refs


def test_tracer_targets_resolve():
    targets = load_tracer().TARGETS
    assert targets
    for name, (modules, _hook) in targets.items():
        for module in modules:
            assert callable(getattr(importlib.import_module(module), name, None)), (
                f"{module}.{name}"
            )


def test_run_py_references_resolve():
    refs = run_py_references()
    # the names the recheck workload is built from, so a parse that finds
    # nothing cannot pass
    assert {
        ("ovoid.io", "cached_model"),
        ("ovoid.io", "load_point_set"),
        ("ovoid.census", "run_census"),
        ("ovoid.census", "check_mass_conservation"),
        ("ovoid.census", "check_double_count"),
        ("ovoid.census", "check_residues"),
        ("ovoid.census", "check_antipode_minus3"),
    } <= refs
    for module, name in sorted(refs):
        assert callable(getattr(importlib.import_module(module), name, None)), (
            f"{module}.{name}"
        )
