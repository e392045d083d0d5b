"""Benchmark of the ovoid toolkit, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recheck-q11 --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each was chosen):

- ``pipeline-q11``: ``ovoid pipeline --q 11 --stretch``, one fresh process
  per operation;
- ``recheck-q11``: library calls on seeded images of the stored q=11
  examples: ``load_point_set`` + ``verify_members`` on a T2 set, then
  ``load_point_set`` + ``run_census`` and its four checks on a Q4 set;
- ``pipeline-q7``: ``ovoid pipeline --q 7``, one fresh process per
  operation.  It is not listed in BENCHMARK.json: its 1.5 s operations sit
  inside single speed phases of a shared machine (see README.md).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same operations in-process with spans around the
program's public functions and reports per-layer metrics.  Every operation's
output is checked with the code in ``checks.py``, which does not use the
program.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import images
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
DATA_DIR = BENCH_DIR / "data" / "q11"

MIN_OPS = 2  # no end-to-end figure rests on a single operation
# set-up is repeated and its median reported: five cold starts for the CLI
# workloads, three model builds for the library one
CLI_SETUP_REPEATS = 5
LIB_SETUP_REPEATS = 3
IMAGE_POOL = 16  # seeded image pairs per recheck run, used in turn
SYMPY_DIRECTIONS = 3  # directions per operation checked with sympy
OP_TIMEOUT_S = 150.0  # a child still running after this is killed
RUN_DEADLINE_S = 165.0  # start no operation that would end after this
ENV_DROP = ("OVOID_CACHE_DIR", "OVOID_MAX_Q", "OVOID_STRETCH")


class BenchError(Exception):
    """The benchmark cannot run here (for instance, no program to run)."""


@dataclass
class OpRecord:
    seconds: float
    problems: list[str]
    digest: str = ""
    rss_mb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Run:
    """What one invocation measured."""

    records: list[OpRecord] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    startup_s: list[float] = field(default_factory=list)
    run_problems: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0


# ----------------------------------------------------------------------
# Helpers shared by the workloads.
# ----------------------------------------------------------------------


def clean_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ENV_DROP}
    env["PYTHONPATH"] = str(SRC)
    return env


# Runs ``python -m ovoid.cli ARGS`` as ``python -c CLI_WRAPPER RSS_FILE ARGS``
# and then writes the process's own peak resident memory (VmHWM, kB) to
# RSS_FILE.  The rusage of a child would not do: its ru_maxrss starts from
# the parent's resident size at fork, so it reports the benchmark process.
CLI_WRAPPER = """
import runpy, sys
rss_path = sys.argv.pop(1)
try:
    runpy.run_module("ovoid.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(rss_path, "w") as out:
        out.write(next(ln.split()[1] for ln in status if ln.startswith("VmHWM:")))
"""


def vm_hwm_mb() -> float:
    """Peak resident memory of this process's own address space, in MB."""
    with open("/proc/self/status") as status:
        return int(next(ln.split()[1] for ln in status if ln.startswith("VmHWM:"))) / 1024.0


def run_child(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[float, int]:
    """Run one child to its end: (wall seconds, exit code).

    The wait blocks in waitpid and a timer kills a child that overruns;
    ``subprocess.run(timeout=...)`` would instead poll in sleeps of up to
    50 ms, which shows as steps in the measured times.
    """
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=cwd,
            env=clean_env(),
            stdout=out,
            stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        return time.perf_counter() - t0, code


def cold_import(work: Path) -> float:
    """Wall time of a fresh ``python -c "import ovoid.cli"``."""
    seconds, code = run_child(["-c", "import ovoid.cli"], work, work / "import.txt")
    if code != 0:
        raise BenchError((work / "import.txt").read_text())
    return seconds


def digest_of(stdout: str) -> str:
    lines = [ln.split()[1] for ln in stdout.splitlines() if ln.startswith("digest ")]
    return lines[-1] if lines else ""


def check_pipeline_output(out_dir: Path, p: int, rng: random.Random) -> list[str]:
    """Independent checks of one pipeline's set files and census."""
    q4 = json.loads((out_dir / "q4-example.json").read_text())["members"]
    t2 = json.loads((out_dir / "t2-example.json").read_text())["members"]
    census = json.loads((out_dir / "census.json").read_text())
    problems = checks.check_q4_set(q4, p)
    if not problems:
        reference = checks.independent_census(q4, p)
        problems += checks.check_census(census, p, len(q4), reference)
    problems += checks.check_t2_set(t2, p)
    if not problems:
        problems += checks.check_identity_sympy(t2, p, rng, SYMPY_DIRECTIONS)
    return problems


def timed_loop(seconds: float, op, started: float) -> list[OpRecord]:
    """Run ``op(i)`` until ``seconds`` of operation time have passed, at
    least MIN_OPS times, and never past RUN_DEADLINE_S."""
    records: list[OpRecord] = []
    busy = 0.0
    while len(records) < MIN_OPS or busy < seconds:
        if records and time.perf_counter() - started + records[-1].seconds > RUN_DEADLINE_S:
            break
        rec = op(len(records))
        records.append(rec)
        busy += rec.seconds
    return records


def import_ovoid():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ovoid.census
    import ovoid.cli
    import ovoid.gf
    import ovoid.io
    import ovoid.verify

    if Path(ovoid.__file__).resolve().parent != SRC / "ovoid":
        raise BenchError(f"imported ovoid from {ovoid.__file__}, not from {SRC}")
    return ovoid


# ----------------------------------------------------------------------
# Pipelines.
# ----------------------------------------------------------------------


def pipeline_argv(q: int, out_dir: Path) -> list[str]:
    argv = ["pipeline", "--q", str(q), "--out-dir", str(out_dir)]
    return argv + (["--stretch"] if q == 11 else [])


def pipeline_workload(q: int, seed: int, seconds: float, tracer, work: Path, started: float) -> Run:
    run = Run()
    for _ in range(CLI_SETUP_REPEATS):
        t0 = time.perf_counter()
        run.startup_s.append(cold_import(work))
        run.setup_s.append(time.perf_counter() - t0)
    rng = random.Random(seed)
    if tracer is not None:
        ovoid = import_ovoid()
        tracer.install()

    def op(i: int) -> OpRecord:
        out_dir = Path(tempfile.mkdtemp(prefix=f"op{i}-", dir=work))
        try:
            if tracer is None:
                stdout_path, rss_path = work / f"op{i}.txt", work / f"op{i}.rss"
                secs, code = run_child(
                    ["-c", CLI_WRAPPER, str(rss_path), *pipeline_argv(q, out_dir)],
                    work,
                    stdout_path,
                )
                stdout = stdout_path.read_text()
                rss = int(rss_path.read_text()) / 1024.0 if rss_path.exists() else 0.0
            else:
                gc.collect()
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), tracer.span("cli.main") as sp:
                    try:
                        code = ovoid.cli.main(pipeline_argv(q, out_dir))
                    except Exception as exc:  # a failed operation, not a failed run
                        code = repr(exc)
                secs, rss, stdout = sp.seconds, 0.0, buf.getvalue()
            if code != 0:
                return OpRecord(secs, [f"exit code {code}: {stdout[-400:]}"], rss_mb=rss)
            problems = check_pipeline_output(out_dir, q, rng)
            return OpRecord(secs, problems, digest_of(stdout), rss)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    run.records = timed_loop(seconds, op, started)
    ok = [r for r in run.records if r.ok]
    run.run_problems += checks.check_digests([r.digest for r in ok]) if ok else []
    run.peak_rss_mb = statistics.median(r.rss_mb for r in run.records)
    return run


# ----------------------------------------------------------------------
# Recheck: library calls on seeded images of the stored q=11 examples.
# ----------------------------------------------------------------------


def recheck_workload(seed: int, seconds: float, tracer, work: Path, started: float) -> Run:
    p = 11
    run = Run()
    ovoid = import_ovoid()
    if tracer is not None:
        tracer.install()
    src = {name: json.loads((DATA_DIR / f"{name}-example.json").read_text()) for name in ("q4", "t2")}
    problems = checks.check_q4_set(src["q4"]["members"], p)
    problems += checks.check_t2_set(src["t2"]["members"], p)
    if problems:
        raise BenchError(f"stored examples fail their checks: {problems}")
    reference = checks.independent_census(src["q4"]["members"], p)
    models = None
    for _ in range(LIB_SETUP_REPEATS):
        models = None
        gc.collect()
        t0 = time.perf_counter()
        with (tracer.span("setup") if tracer else contextlib.nullcontext()):
            field_ = ovoid.gf.make_field(p)
            models = {
                "q4": ovoid.io.cached_model("Q4", field_),
                "t2": ovoid.io.cached_model("T2", field_),
            }
            rng = random.Random(seed)
            pool = []
            for i in range(IMAGE_POOL):
                pair = {}
                for name, make in (("t2", images.t2_image), ("q4", images.q4_image)):
                    members = make(src[name]["members"], p, rng)
                    path = work / f"{name}-image{i}.json"
                    images.write_image(src[name], members, path)
                    pair[name] = (path, members)
                pool.append(pair)
        run.setup_s.append(time.perf_counter() - t0)

    def op(i: int) -> OpRecord:
        pair = pool[i % IMAGE_POOL]
        gc.collect()
        with (tracer.span("recheck") if tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                model, members = ovoid.io.load_point_set(pair["t2"][0], models["t2"])
                report = ovoid.verify.verify_members(model, members, include_profile=True)
                model4, members4 = ovoid.io.load_point_set(pair["q4"][0], models["q4"])
                census = ovoid.census.run_census(model4, members4)
                outcomes = {
                    "mass_conservation": ovoid.census.check_mass_conservation(census),
                    "double_count": ovoid.census.check_double_count(census, model4),
                    "residues": ovoid.census.check_residues(census, model4.field),
                    "antipode_minus3": ovoid.census.check_antipode_minus3(census),
                }
            except Exception as exc:  # a failed operation, not a failed run
                return OpRecord(time.perf_counter() - t0, [f"raised {exc!r}"])
            secs = time.perf_counter() - t0
        problems = [f"verify {k}: {v.detail}" for k, v in report.checks.items() if not v.ok]
        if "identity_suite" not in report.checks:
            problems.append("verify ran no identity suite")
        problems += [f"census {k}: {v.detail}" for k, v in outcomes.items() if not v.ok]
        t2_members, q4_members = pair["t2"][1], pair["q4"][1]
        problems += checks.check_t2_set(t2_members, p)
        problems += checks.check_q4_set(q4_members, p)
        problems += checks.check_census(census.to_json(), p, len(members4), reference)
        problems += checks.check_identity_sympy(
            t2_members, p, random.Random(seed * 1000 + i), SYMPY_DIRECTIONS
        )
        return OpRecord(secs, problems)

    run.records = timed_loop(seconds, op, started)
    run.peak_rss_mb = vm_hwm_mb()
    if tracer is not None:
        run.startup_s = [cold_import(work) for _ in range(CLI_SETUP_REPEATS)]
    return run


# ----------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------


def end_to_end(run: Run) -> dict[str, dict]:
    ok = [r.seconds for r in run.records if r.ok] or [r.seconds for r in run.records]
    busy = sum(r.seconds for r in run.records)
    return {
        "ops_per_s": {"value": sum(r.ok for r in run.records) / busy, "unit": "1/s"},
        "op_p50_s": {"value": statistics.median(ok), "unit": "s"},
        "setup_s": {"value": statistics.median(run.setup_s), "unit": "s"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "search.q4_nodes": "count",
    "search.t2_nodes": "count",
    "trace.spans": "count",
    "search.nodes_per_s": "1/s",
    "redei.directions_per_s": "1/s",
    "census.hyperplanes_per_s": "1/s",
}
# the model builds run only in set-up on recheck-q11, so there they are
# taken from the set-up spans
SETUP_LAYERS = ("q4.build_s", "t2.build_s")


def per_layer(run: Run, tracer: tracing.Tracer, per_span_cost: float) -> dict[str, dict]:
    roots = [sp for sp in tracer.spans if sp.parent is None]
    ops = [tracing.layer_metrics(tracer, sp, per_span_cost) for sp in roots if sp.name != "setup"]
    setups = [tracing.layer_metrics(tracer, sp, per_span_cost) for sp in roots if sp.name == "setup"]
    for sp in roots:
        err = tracing.self_sum_error(tracer, sp)
        if err > 1e-6:
            run.run_problems.append(f"self times under {sp.name} miss its length by {err} s")
    values = {key: statistics.median(m[key] for m in ops) for key in ops[0]}
    for key in SETUP_LAYERS:
        if setups and not any(m[key] for m in ops):
            values[key] = statistics.median(m[key] for m in setups)
    values["cli.startup_s"] = statistics.median(run.startup_s)
    return {
        key: {"value": values[key], "unit": PER_LAYER_UNITS.get(key, "s")}
        for key in sorted(values)
    }


def tail_line(run: Run) -> str | None:
    """The highest percentile with at least ten samples beyond it (>= 40 ops)."""
    times = sorted(r.seconds for r in run.records if r.ok)
    n = len(times)
    if n < 40:
        return None
    pct = 100.0 * (n - 10) / n
    return f"tail p{pct:.1f} = {times[n - 11]:.6f} s over {n} operations"


# ----------------------------------------------------------------------
# Entry point.
# ----------------------------------------------------------------------

WORKLOADS = {
    "pipeline-q11": functools.partial(pipeline_workload, 11),
    "pipeline-q7": functools.partial(pipeline_workload, 7),
    "recheck-q11": recheck_workload,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "ovoid" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'ovoid'}; run from a checkout", file=sys.stderr)
        return 2
    for name in ENV_DROP:
        os.environ.pop(name, None)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    tracer = tracing.Tracer() if args.trace else None
    try:
        run = WORKLOADS[args.workload](args.seed, args.seconds, tracer, work, started)
        if tracer is not None:
            metrics = per_layer(run, tracer, tracing.calibrate_overhead())
        else:
            metrics = end_to_end(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    failed = [r for r in run.records if not r.ok]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "op_seconds": [r.seconds for r in run.records],
        "op_rss_mb": [r.rss_mb for r in run.records],
        "setup_seconds": run.setup_s,
        "problems": [r.problems for r in failed] + run.run_problems,
        "metrics": metrics,
    }
    if tracer is not None:
        detail["spans"] = [sp.to_json() for sp in tracer.spans]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    tail = tail_line(run)
    if tail:
        print(tail)
    print(
        json.dumps(
            {
                "correct": not run.run_problems,
                "attempted": len(run.records),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
