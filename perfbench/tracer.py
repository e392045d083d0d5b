"""Spans around the public functions of ``ovoid``, recorded in memory.

A traced run replaces each name listed in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent, attributes) and restores the
originals when it is done.  The wrappers sit in the module namespaces the
program looks names up in (``ovoid.cli`` imports most names directly), so
both the CLI and library calls made by the benchmark pass through them.

Self time is a span's length minus the time its child spans cover; spans
nest strictly (one thread, calls return in order), so the children's
lengths simply add up.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def _model_of(args, kwargs, result) -> dict:
    return {"model": args[0]}


def _search(args, kwargs, result) -> dict:
    return {"model": args[0].name, "nodes": result.nodes}


def _suite(args, kwargs, result) -> dict:
    return {"directions": len(args[0].conic.plane.points)}


def _census(args, kwargs, result) -> dict:
    return {"hyperplanes": result.num_hyperplanes}


CENSUS_CHECKS = (
    "check_mass_conservation",
    "check_double_count",
    "check_residues",
    "check_antipode_minus3",
)

# span name -> (modules whose attribute of that name is wrapped, attrs hook)
TARGETS: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "field_for_q": (("ovoid.cli",), None),
    "make_field": (("ovoid.cli", "ovoid.gf"), None),
    "field_from_json": (("ovoid.io",), None),
    "cached_model": (("ovoid.cli", "ovoid.io"), _model_of),
    "verify_gq": (("ovoid.gq",), None),
    "find_example": (("ovoid.cli",), _search),
    "verify_members": (("ovoid.cli", "ovoid.verify"), None),
    "run_redei_suite": (("ovoid.verify",), _suite),
    "invariant_profile": (("ovoid.verify",), None),
    "run_census": (("ovoid.cli", "ovoid.census"), _census),
    **{name: (("ovoid.cli", "ovoid.census"), None) for name in CENSUS_CHECKS},
    "save_point_set": (("ovoid.cli", "ovoid.io"), None),
    "load_point_set": (("ovoid.cli", "ovoid.io"), None),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sp = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, hook: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if hook is not None:
                    sp.attrs.update(hook(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        import importlib

        for name, (modules, hook) in TARGETS.items():
            for mod_name in modules:
                module = importlib.import_module(mod_name)
                original = getattr(module, name)
                self._restore.append((module, name, original))
                setattr(module, name, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def subtree(self, root: Span) -> list[Span]:
        """``root`` and every span below it (spans are stored in start order)."""
        inside = {root.id}
        out = [root]
        for sp in self.spans[root.id + 1 :]:
            if sp.parent in inside:
                inside.add(sp.id)
                out.append(sp)
        return out

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        own = {sp.id: sp.seconds for sp in spans}
        for sp in spans:
            if sp.parent in own:
                own[sp.parent] -= sp.seconds
        return own


def calibrate_overhead(calls: int = 20000) -> float:
    """Seconds one traced call adds to an untraced one (median of 5 trials)."""

    def noop(*args, **kwargs):
        return None

    trials = []
    for _ in range(5):
        tracer = Tracer()
        traced = tracer.wrap(noop, "noop")
        t0 = time.perf_counter()
        for _ in range(calls):
            noop(1)
        t1 = time.perf_counter()
        for _ in range(calls):
            traced(1)
        t2 = time.perf_counter()
        trials.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(trials)


def layer_metrics(tracer: Tracer, root: Span, per_span_cost: float) -> dict[str, float]:
    """Per-layer figures for the spans under one operation or set-up."""
    spans = tracer.subtree(root)
    own = tracer.self_times(spans)

    def matching(name: str, **match) -> list[Span]:
        return [
            sp
            for sp in spans
            if sp.name == name and all(sp.attrs.get(k) == v for k, v in match.items())
        ]

    def total(name: str, **match) -> float:
        return sum((sp.seconds for sp in matching(name, **match)), 0.0)

    def attr_sum(name: str, key: str, **match) -> int:
        return sum(sp.attrs[key] for sp in matching(name, **match))

    q4_s, t2_s = total("find_example", model="Q4"), total("find_example", model="T2")
    q4_nodes = attr_sum("find_example", "nodes", model="Q4")
    t2_nodes = attr_sum("find_example", "nodes", model="T2")
    suite_s = total("run_redei_suite")
    census_s = total("run_census")
    return {
        "search.q4_s": q4_s,
        "search.t2_s": t2_s,
        "search.q4_nodes": q4_nodes,
        "search.t2_nodes": t2_nodes,
        "search.nodes_per_s": _rate(q4_nodes + t2_nodes, q4_s + t2_s),
        "q4.build_s": total("cached_model", model="Q4"),
        "t2.build_s": total("cached_model", model="T2"),
        "gq.verify_s": total("verify_gq"),
        "redei.suite_s": suite_s,
        "redei.directions_per_s": _rate(attr_sum("run_redei_suite", "directions"), suite_s),
        "census.run_s": census_s,
        "census.double_count_s": total("check_double_count"),
        "census.checks_s": sum(total(name) for name in CENSUS_CHECKS),
        "census.hyperplanes_per_s": _rate(attr_sum("run_census", "hyperplanes"), census_s),
        "verify.bundle_s": sum(own[sp.id] for sp in spans if sp.name == "verify_members"),
        "verify.profile_s": total("invariant_profile"),
        "io.save_s": total("save_point_set"),
        "io.load_s": total("load_point_set"),
        "gf.make_field_s": total("make_field") + total("field_from_json"),
        "cli.self_s": own[root.id] if root.name == "cli.main" else 0.0,
        "trace.op_s": root.seconds,
        "trace.spans": len(spans),
        "trace.overhead_s": len(spans) * per_span_cost,
    }


def self_sum_error(tracer: Tracer, root: Span) -> float:
    """How far the self times under ``root`` miss its length (0 when the
    spans nest properly)."""
    own = tracer.self_times(tracer.subtree(root))
    return abs(sum(own.values()) - root.seconds)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
