"""Command-line front end for building, searching, verifying and counting.

Subcommands
-----------

``build``      construct a model and print its order and point/line counts
``search``     find a maximal partial ovoid and write it as a set file
``verify``     re-check a set file: maximality, grid, identities
``census``     hyperplane-section histograms for a quadric-model set file
``residues``   the residue classes mod p realized by meeting sections
``pipeline``   search, verify, census and reference comparison in one run

Every command prints short human-readable lines on stdout and reports
failures as one JSON object on stderr with a nonzero exit status.  Runs
that produce artifacts also produce a manifest whose digest is a SHA-256
of the canonical JSON of the run's command, field and results; repeated
deterministic runs yield identical digests.  ``--seed`` exists on
``search`` only, where it seeds ``--mode random``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Optional

from .census import (
    EXPECTED_DISTINCT_ELLIPTIC,
    EXPECTED_MINUS3_VALUES,
    CensusError,
    check_antipode_minus3,
    check_double_count,
    check_mass_conservation,
    check_residues,
    run_census,
    write_census_csv,
    write_census_json,
)
from .geometry import GeometryError
from .gf import TABLE_LIMIT, Field, FieldError, make_field
from .gq import GQError
from .io import (
    StorageError,
    cached_model,
    check_desk_cap,
    desk_cap,
    json_digest,
    load_point_set,
    save_point_set,
)
from .redei import RedeiError, residue_set
from .search import SearchConfig, SearchError, search_maximal
from .verify import (
    find_example,
    seed_grid,
    verify_members,
)

__all__ = ["main", "CLIError"]

PIPELINE_FIELDS = (3, 5, 7)
STRETCH_FIELD = 11

# CLI spelling -> search.SearchConfig spelling
SEARCH_MODES = {
    "pairs": "antipode_paired",
    "exact": "exact_dfs",
    "random": "extend_random",
}


class CLIError(Exception):
    """A user-facing failure; carries the exit status and extra detail."""

    def __init__(self, message: str, exit_code: int = 2, extra: Optional[dict] = None):
        super().__init__(message)
        self.exit_code = exit_code
        self.extra = extra or {}


def _emit_error(message: str, extra: Optional[dict] = None) -> None:
    doc = {"error": message}
    if extra:
        doc.update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# ----------------------------------------------------------------------
# Field selection.
# ----------------------------------------------------------------------


def _prime_power(q: int) -> Optional[tuple[int, int]]:
    """Write q as p^h with p prime, or return None.

    Trial division stops at ``TABLE_LIMIT``, so a huge q costs no more
    than a small one.  A q with no factor up to there is taken as prime:
    that is exact for q <= TABLE_LIMIT^2, and a larger q is refused later
    by the desk-scale cap or by the field's table limit.
    """
    if q < 2:
        return None
    p = next((d for d in range(2, min(math.isqrt(q), TABLE_LIMIT) + 1) if q % d == 0), q)
    n, h = q, 0
    while n % p == 0:
        n //= p
        h += 1
    return (p, h) if n == 1 else None


def field_for_q(q: int, max_q: Optional[int] = None) -> Field:
    """Build GF(q) for an odd prime power q within the desk-scale cap."""
    try:
        if max_q is None:
            max_q = desk_cap()
        ph = _prime_power(q)
        if ph is None:
            raise CLIError(f"q = {q} is not a prime power")
        p, h = ph
        if p == 2:
            raise CLIError(f"q = {q} is even; only odd prime powers are supported")
        check_desk_cap(p, h, max_q)
    except StorageError as exc:
        raise CLIError(str(exc)) from exc
    return make_field(p, h)


# ----------------------------------------------------------------------
# Manifests.
# ----------------------------------------------------------------------


def run_manifest(
    command: str,
    config: dict,
    field: Optional[Field],
    results: dict,
    paths: Optional[dict] = None,
    wall_time: Optional[float] = None,
) -> dict:
    """Assemble a run manifest with a digest over its stable parts.

    The digest covers the command, the field, and the results — the
    parts a deterministic rerun must reproduce.  The configuration, the
    output paths and the wall time are recorded alongside but never
    hashed, so reruns agree digest-for-digest across artifact locations.
    """
    body = {
        "command": command,
        "field": field.to_json() if field is not None else None,
        "results": results,
    }
    manifest = {
        "command": command,
        "config": config,
        "field": body["field"],
        "paths": {k: str(v) for k, v in (paths or {}).items()},
        "results": results,
    }
    if wall_time is not None:
        manifest["wall_time"] = round(wall_time, 3)
    manifest["digest"] = json_digest(body)
    return manifest


def _write_json(path, doc) -> None:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# Subcommands.
# ----------------------------------------------------------------------


def _model_name(arg: str) -> str:
    name = arg.upper()
    if name not in ("Q4", "T2"):
        raise CLIError(f"unknown model {arg!r}; choose q4 or t2")
    return name


def cmd_build(args) -> int:
    field = field_for_q(args.q)
    name = _model_name(args.model)
    t0 = time.perf_counter()
    model = cached_model(name, field)
    elapsed = time.perf_counter() - t0
    gq = model.gq
    print(
        f"{name} over GF({field.q}): order ({gq.s},{gq.t}), "
        f"{gq.num_points} points, {len(gq.lines)} lines"
    )
    results = {
        "model": name,
        "q": field.q,
        "order": [gq.s, gq.t],
        "points": gq.num_points,
        "lines": len(gq.lines),
        "grid_size": len(seed_grid(model)),
    }
    manifest = run_manifest(
        "build",
        {"q": args.q, "model": name},
        field,
        results,
        wall_time=elapsed,
    )
    if args.out:
        _write_json(args.out, manifest)
        print(f"wrote {args.out}")
    print(f"digest {manifest['digest']}")
    return 0


def cmd_search(args) -> int:
    field = field_for_q(args.q)
    name = _model_name(args.model)
    model = cached_model(name, field)
    target = args.target if args.target is not None else field.q * field.q - 1
    mode = SEARCH_MODES[args.mode]
    root = None if args.root < 0 else args.root
    cfg = SearchConfig(
        target_size=target,
        mode=mode,
        seed=args.seed,
        time_budget=args.budget,
        root_fix=root,
    )
    grid = seed_grid(model)
    if mode == "extend_random" and target % 2:
        grid = None  # odd targets need point restarts, not partner pairs
    try:
        outcome = search_maximal(model.gq, cfg, grid)
    except SearchError as exc:
        raise CLIError(str(exc)) from exc
    results = {
        "model": name,
        "q": field.q,
        "target": target,
        "mode": args.mode,
        "status": outcome.status,
        "nodes": outcome.nodes,
        "size": len(outcome.members) if outcome.members else 0,
    }
    config = {
        "q": args.q,
        "model": name,
        "target": target,
        "mode": args.mode,
        "seed": args.seed,
        "budget": args.budget,
        "root": root,
    }
    if not outcome.found:
        raise CLIError(
            f"search {outcome.status} after {outcome.nodes} nodes "
            f"({outcome.elapsed:.2f} s) without a size-{target} witness",
            exit_code=1,
            extra={"status": outcome.status, "nodes": outcome.nodes},
        )
    members = outcome.members
    print(
        f"found a maximal partial ovoid of size {len(members)} in "
        f"{outcome.elapsed:.2f} s ({outcome.nodes} nodes)"
    )
    doc = None
    paths = {}
    if args.out:
        doc = save_point_set(
            args.out,
            model,
            members,
            meta={"mode": args.mode, "seed": args.seed, "root": root},
        )
        paths["set_file"] = args.out
        print(f"wrote {args.out}")
    else:
        doc = {"members": [model.encode_member(i) for i in members]}
        print(json.dumps(doc, sort_keys=True))
    results["set_digest"] = json_digest(doc)
    manifest = run_manifest(
        "search", config, field, results, paths, wall_time=outcome.elapsed
    )
    if args.manifest:
        _write_json(args.manifest, manifest)
    print(f"digest {manifest['digest']}")
    return 0


def cmd_verify(args) -> int:
    try:
        model, members = load_point_set(args.infile)
    except OSError as exc:
        raise CLIError(str(exc)) from exc
    t0 = time.perf_counter()
    report = verify_members(
        model,
        members,
        expect_size=args.expect_size,
        include_identities=not args.skip_identities,
        include_profile=args.profile,
    )
    elapsed = time.perf_counter() - t0
    for line in report.summary_lines():
        print(line)
    doc = report.to_json()
    if args.out:
        _write_json(args.out, doc)
        print(f"wrote {args.out}")
    manifest = run_manifest(
        "verify",
        {
            "infile": str(args.infile),
            "expect_size": args.expect_size,
            "identities": not args.skip_identities,
            "profile": args.profile,
        },
        model.field,
        doc,
        wall_time=elapsed,
    )
    print(f"digest {manifest['digest']}")
    if not report.passed:
        raise CLIError(
            "verification failed",
            exit_code=1,
            extra={
                "checks": {
                    k: v.detail for k, v in report.checks.items() if not v.ok
                }
            },
        )
    print(f"all {len(report.checks)} checks passed")
    return 0


def cmd_census(args) -> int:
    try:
        model, members = load_point_set(args.infile)
    except OSError as exc:
        raise CLIError(str(exc)) from exc
    if model.name != "Q4":
        raise CLIError(
            "census counts hyperplane sections and needs a Q4-model set file; "
            f"{args.infile} is for {model.name}"
        )
    t0 = time.perf_counter()
    report = run_census(model, members)
    checks = {
        "mass_conservation": check_mass_conservation(report),
        "double_count": check_double_count(report, model),
    }
    if model.field.h == 1:
        checks["residues"] = check_residues(report, model.field)
    checks["antipode_minus3"] = check_antipode_minus3(report)
    elapsed = time.perf_counter() - t0
    for kind, hist in sorted(report.histograms.items(), key=lambda kv: kv[0].value):
        print(f"{kind.value}: total {report.type_total(kind)}, histogram {dict(sorted(hist.items()))}")
    print(f"distinct elliptic intersection sizes: {sorted(report.distinct_elliptic)}")
    for name, res in checks.items():
        print(f"{'PASS' if res.ok else 'FAIL'} {name}: {res.detail}")
    paths = {}
    if args.out:
        write_census_csv(report, args.out)
        paths["csv"] = args.out
        print(f"wrote {args.out}")
    if args.json:
        write_census_json(report, args.json)
        paths["json"] = args.json
        print(f"wrote {args.json}")
    results = dict(report.to_json())
    results["checks"] = {k: v.ok for k, v in checks.items()}
    manifest = run_manifest(
        "census",
        {"infile": str(args.infile)},
        model.field,
        results,
        paths,
        wall_time=elapsed,
    )
    print(f"digest {manifest['digest']}")
    failing = {k: v.detail for k, v in checks.items() if not v.ok}
    if failing:
        raise CLIError("census checks failed", exit_code=1, extra={"checks": failing})
    return 0


def cmd_residues(args) -> int:
    field = field_for_q(args.q)
    try:
        values = sorted(residue_set(field))
    except RedeiError as exc:
        raise CLIError(str(exc)) from exc
    print(f"q={field.q}: residue set {values}")
    results = {"q": field.q, "residues": values}
    manifest = run_manifest("residues", {"q": args.q}, field, results)
    if args.out:
        _write_json(args.out, manifest)
        print(f"wrote {args.out}")
    print(f"digest {manifest['digest']}")
    return 0


def cmd_pipeline(args) -> int:
    q = args.q
    ph = _prime_power(q)
    if ph is not None and ph[0] != 2 and ph[1] > 1:
        raise CLIError(
            f"refusing q = {q}: no maximal partial ovoid of size q^2 - 1 = "
            f"{q * q - 1} exists when q is a proper prime power"
        )
    if q == STRETCH_FIELD and not args.stretch:
        raise CLIError(
            f"q = {STRETCH_FIELD} is the stretch field; pass --stretch to run it"
        )
    if q not in PIPELINE_FIELDS and q != STRETCH_FIELD:
        field_for_q(q)  # surfaces non-prime-power / even q as the real error
        raise CLIError(
            f"pipeline covers q in {set(PIPELINE_FIELDS)} "
            f"({STRETCH_FIELD} with --stretch); for q = {q} use search/verify/census"
        )
    field = field_for_q(q)
    out_dir = Path(args.out_dir or f"ovoid-pipeline-q{q}")
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    target = q * q - 1
    paths: dict[str, Path] = {}
    results: dict = {"q": q, "target": target}

    def step(msg: str) -> None:
        print(f"[{time.perf_counter() - t_start:6.2f}s] {msg}")

    profiles = {}
    for name in ("Q4", "T2"):
        model = cached_model(name, field)
        step(f"{name}: built ({model.gq.num_points} points)")
        outcome = find_example(model, time_budget=args.budget)
        if not outcome.found:
            raise CLIError(
                f"{name}: search {outcome.status} after {outcome.nodes} nodes; "
                f"no size-{target} example found",
                exit_code=1,
                extra={"model": name, "status": outcome.status},
            )
        members = outcome.members
        step(f"{name}: found size {len(members)} ({outcome.nodes} nodes, {outcome.elapsed:.2f} s)")
        set_path = out_dir / f"{name.lower()}-example.json"
        save_point_set(set_path, model, members)
        paths[f"{name.lower()}_set"] = set_path

        report = verify_members(model, members, include_profile=True)
        verify_path = out_dir / f"verify-{name.lower()}.json"
        _write_json(verify_path, report.to_json())
        paths[f"{name.lower()}_verify"] = verify_path
        if not report.passed:
            raise CLIError(
                f"{name}: verification failed",
                exit_code=1,
                extra={
                    "model": name,
                    "checks": {
                        k: v.detail for k, v in report.checks.items() if not v.ok
                    },
                },
            )
        step(f"{name}: verified ({len(report.checks)} checks)")
        profiles[name] = report.profile
        results[f"{name.lower()}_checks"] = {
            k: v.ok for k, v in report.checks.items()
        }

        if name == "Q4":
            census = run_census(model, members)
            write_census_csv(census, out_dir / "census.csv")
            write_census_json(census, out_dir / "census.json")
            paths["census_csv"] = out_dir / "census.csv"
            paths["census_json"] = out_dir / "census.json"
            census_checks = {
                "mass_conservation": check_mass_conservation(census),
                "double_count": check_double_count(census, model),
                "residues": check_residues(census, field),
                "antipode_minus3": check_antipode_minus3(census),
            }
            bad = {k: v.detail for k, v in census_checks.items() if not v.ok}
            if bad:
                raise CLIError(
                    "census checks failed", exit_code=1, extra={"checks": bad}
                )
            results["census_checks"] = {k: v.ok for k, v in census_checks.items()}
            results["distinct_elliptic"] = sorted(census.distinct_elliptic)
            results["minus3_values"] = sorted(census.minus3_values)
            step(f"census: elliptic values {sorted(census.distinct_elliptic)}")

            if q in EXPECTED_DISTINCT_ELLIPTIC:
                comparisons = {
                    "distinct_elliptic": (
                        census.distinct_elliptic,
                        EXPECTED_DISTINCT_ELLIPTIC[q],
                    ),
                    "minus3_values": (
                        census.minus3_values,
                        EXPECTED_MINUS3_VALUES[q],
                    ),
                }
                for label, (got, expected) in comparisons.items():
                    if set(got) != set(expected):
                        raise CLIError(
                            f"census reference mismatch for {label}",
                            exit_code=1,
                            extra={
                                "set": label,
                                "got": sorted(got),
                                "expected": sorted(expected),
                            },
                        )
                results["reference_comparison"] = "match"
                step("census: reference lists match")
            else:
                results["reference_comparison"] = "skipped"
                step(f"census: no reference list for q={q}; comparison skipped")

    match = profiles["Q4"] == profiles["T2"]
    results["cross_model_match"] = match
    if not match:
        raise CLIError(
            "invariant profiles differ between models",
            exit_code=1,
            extra={"q4": profiles["Q4"], "t2": profiles["T2"]},
        )
    step("cross-model invariant profiles match")

    if field.h == 1:
        results["residues"] = sorted(residue_set(field))

    wall = time.perf_counter() - t_start
    manifest = run_manifest(
        "pipeline",
        {
            "q": q,
            "budget": args.budget,
            "stretch": bool(args.stretch),
        },
        field,
        results,
        paths,
        wall_time=wall,
    )
    _write_json(out_dir / "manifest.json", manifest)
    step(f"wrote {out_dir}/manifest.json")
    print(f"digest {manifest['digest']}")
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with JSON usage errors, per the CLI error contract."""

    def error(self, message):  # noqa: A003 - argparse API
        _emit_error(f"usage error: {message}")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ovoid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, model=False, q=True):
        if q:
            p.add_argument("--q", type=int, required=True, help="odd prime power")
        if model:
            p.add_argument(
                "--model", default="q4", help="q4 (quadric) or t2 (affine)"
            )
        return p

    p = common(sub.add_parser("build", help="construct and verify a model"), model=True)
    p.add_argument("--out", help="write the run manifest here")
    p.set_defaults(func=cmd_build)

    p = common(sub.add_parser("search", help="find a maximal partial ovoid"), model=True)
    p.add_argument("--target", type=int, help="set size (default q^2 - 1)")
    p.add_argument(
        "--mode",
        choices=sorted(SEARCH_MODES),
        default="pairs",
        help="pairs (partner-paired DFS), exact (point DFS), random (restarts)",
    )
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument(
        "--seed", type=int, default=0, help="RNG seed of --mode random (default 0)"
    )
    p.add_argument(
        "--root",
        type=int,
        default=0,
        help="pin the first point/pair index (-1 to disable pinning)",
    )
    p.add_argument("--out", help="write the found set here as JSON")
    p.add_argument("--manifest", help="write the run manifest here")
    p.set_defaults(func=cmd_search)

    p = common(sub.add_parser("verify", help="re-check a set file"), q=False)
    p.add_argument("--in", dest="infile", required=True, help="set file to check")
    p.add_argument(
        "--expect-size", type=int, help="expected size (default q^2 - 1)"
    )
    p.add_argument(
        "--skip-identities",
        action="store_true",
        help="skip the polynomial-identity suite on affine-model inputs",
    )
    p.add_argument(
        "--profile", action="store_true", help="attach the invariant fingerprint"
    )
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = common(sub.add_parser("census", help="hyperplane-section histograms"), q=False)
    p.add_argument("--in", dest="infile", required=True, help="Q4-model set file")
    p.add_argument("--out", help="write the census CSV here")
    p.add_argument("--json", help="write the census JSON here")
    p.set_defaults(func=cmd_census)

    p = common(sub.add_parser("residues", help="per-field residue classes"))
    p.add_argument("--out", help="write the run manifest here")
    p.set_defaults(func=cmd_residues)

    p = common(sub.add_parser("pipeline", help="search + verify + census + compare"))
    p.add_argument("--budget", type=float, help="search time budget in seconds")
    p.add_argument("--out-dir", help="artifact directory (default ovoid-pipeline-qN)")
    p.add_argument(
        "--stretch",
        action="store_true",
        help=f"allow the q={STRETCH_FIELD} stretch run",
    )
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CLIError as exc:
        _emit_error(str(exc), exc.extra)
        return exc.exit_code
    except (
        CensusError,
        FieldError,
        GeometryError,
        GQError,
        RedeiError,
        SearchError,
        StorageError,
    ) as exc:
        _emit_error(str(exc))
        return 2
    except OSError as exc:
        _emit_error(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
