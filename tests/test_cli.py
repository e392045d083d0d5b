"""End-to-end command-line behavior: outputs, artifacts, exit codes."""

import json
import time

import pytest

from ovoid.cli import main
from ovoid.io import load_point_set


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stderr_json(err):
    doc = json.loads(err.strip().splitlines()[-1])
    assert "error" in doc
    return doc


def only_json_error(err):
    """stderr holds exactly one line, a JSON object with an error."""
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return stderr_json(err)


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------


def test_build_q3_quadric(capsys):
    code, out, err = run(capsys, "build", "--q", "3", "--model", "q4")
    assert code == 0
    assert "order (3,3), 40 points, 40 lines" in out
    assert "digest " in out


def test_build_q5_affine(capsys):
    code, out, _ = run(capsys, "build", "--q", "5", "--model", "t2")
    assert code == 0
    assert "order (5,5), 156 points" in out


def test_build_writes_manifest(capsys, tmp_path):
    path = tmp_path / "build.json"
    code, _, _ = run(capsys, "build", "--q", "3", "--model", "t2", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["results"]["points"] == 40
    assert doc["results"]["order"] == [3, 3]
    assert len(doc["digest"]) == 64


def test_build_rejects_even_q(capsys):
    code, _, err = run(capsys, "build", "--q", "4", "--model", "q4")
    assert code == 2
    assert "even" in stderr_json(err)["error"]


def test_build_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "build", "--q", "15", "--model", "q4")
    assert code == 2
    assert "not a prime power" in stderr_json(err)["error"]


def test_build_respects_desk_cap(capsys):
    code, _, err = run(capsys, "build", "--q", "17", "--model", "q4")
    assert code == 2
    assert "OVOID_MAX_Q" in stderr_json(err)["error"]


def test_bad_max_q_variable_is_a_json_failure(capsys, monkeypatch):
    monkeypatch.setenv("OVOID_MAX_Q", "abc")
    code, _, err = run(capsys, "build", "--q", "3", "--model", "q4")
    assert code == 2
    assert "OVOID_MAX_Q" in only_json_error(err)["error"]


def test_usage_errors_are_json(capsys):
    code, _, err = run(capsys, "build", "--q", "three", "--model", "q4")
    assert code == 2
    assert "usage error" in stderr_json(err)["error"]


# ----------------------------------------------------------------------
# search / verify
# ----------------------------------------------------------------------


def test_search_verify_roundtrip(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    manifest_path = tmp_path / "search-manifest.json"
    code, out, _ = run(
        capsys,
        "search", "--q", "3", "--model", "t2",
        "--out", str(set_path), "--manifest", str(manifest_path),
    )
    assert code == 0
    assert "size 8" in out
    model, members = load_point_set(set_path)
    assert len(members) == 8
    manifest = json.loads(manifest_path.read_text())
    assert manifest["results"]["status"] == "found"

    code, out, _ = run(capsys, "verify", "--in", str(set_path))
    assert code == 0
    assert "all 7 checks passed" in out


def test_search_without_out_prints_members(capsys):
    code, out, _ = run(capsys, "search", "--q", "3", "--model", "q4")
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("{")][0]
    assert len(json.loads(line)["members"]) == 8


def test_search_exhausted_is_a_json_failure(capsys):
    # No size-9 set through point 0 survives the maximality filter at q=3.
    code, _, err = run(
        capsys,
        "search", "--q", "3", "--model", "q4", "--mode", "exact", "--target", "9",
    )
    assert code == 1
    assert stderr_json(err)["status"] == "exhausted"


def test_search_timeout_is_a_json_failure(capsys):
    # every 25-point partial ovoid of Q(4,5) extends to an ovoid, so the
    # point walk can only end by exhaustion, far beyond the budget
    code, _, err = run(
        capsys,
        "search", "--q", "5", "--model", "q4", "--mode", "exact",
        "--target", "25", "--budget", "0.2",
    )
    assert code == 1
    assert stderr_json(err)["status"] == "timeout"


def test_verify_failure_lists_failing_checks(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    run(capsys, "search", "--q", "3", "--model", "q4", "--out", str(set_path))
    doc = json.loads(set_path.read_text())
    doc["members"] = doc["members"][:6]
    doc["size"] = 6
    set_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--in", str(set_path))
    assert code == 1
    failing = stderr_json(err)["checks"]
    assert {"maximal", "size"} <= set(failing)
    assert "FAIL size" in out


def test_verify_expect_size_flag(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    run(capsys, "search", "--q", "3", "--model", "q4", "--out", str(set_path))
    code, _, err = run(
        capsys, "verify", "--in", str(set_path), "--expect-size", "10"
    )
    assert code == 1
    assert "size" in stderr_json(err)["checks"]


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
    assert code == 2
    stderr_json(err)


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{", b"[" * 100000])
@pytest.mark.parametrize("command", ["verify", "census"])
def test_malformed_set_file_is_a_json_failure(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, _, err = run(capsys, command, "--in", str(path))
    assert code == 2
    assert "not a JSON document" in only_json_error(err)["error"]


@pytest.mark.parametrize("field", [{"p": 101, "h": 1}, {"p": 3, "h": 10**9}])
def test_set_file_above_desk_cap_is_refused_before_building(capsys, tmp_path, field):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(
        {"format": "ovoid-set", "version": 1, "model": "Q4", "field": field,
         "size": 0, "members": []}
    ))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "desk-scale cap" in only_json_error(err)["error"]
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize(
    "model,members",
    [("T2", [["a", 0, 0, 1]]), ("Q4", 5), ("Q4", [[1, 2]]), ("T2", [{"plane": None}])],
)
def test_malformed_members_are_a_json_failure(capsys, tmp_path, model, members):
    path = tmp_path / "bad-members.json"
    path.write_text(json.dumps(
        {"format": "ovoid-set", "version": 1, "model": model,
         "field": {"p": 3, "h": 1, "irreducible": [0, 1]}, "size": 1, "members": members}
    ))
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert code == 2
    assert "bad member data" in only_json_error(err)["error"]


def test_verify_report_out(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    run(capsys, "search", "--q", "3", "--model", "t2", "--out", str(set_path))
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "verify", "--in", str(set_path), "--out", str(report_path), "--profile"
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True
    assert doc["profile"]["size"] == 8
    assert doc["identity_suite"]["passed"] is True


# ----------------------------------------------------------------------
# census / residues
# ----------------------------------------------------------------------


def test_census_writes_csv_and_json(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    run(capsys, "search", "--q", "3", "--model", "q4", "--out", str(set_path))
    csv_path = tmp_path / "census.csv"
    json_path = tmp_path / "census.json"
    code, out, _ = run(
        capsys,
        "census", "--in", str(set_path),
        "--out", str(csv_path), "--json", str(json_path),
    )
    assert code == 0
    assert "distinct elliptic intersection sizes: [0, 2, 6]" in out
    assert "PASS mass_conservation" in out
    header = csv_path.read_text().splitlines()[0]
    assert header == (
        "section_type,intersection_size,count,contains_k_point,contains_antipode_pair"
    )
    doc = json.loads(json_path.read_text())
    assert doc["q"] == 3


def test_census_rejects_affine_model_files(capsys, tmp_path):
    set_path = tmp_path / "k.json"
    run(capsys, "search", "--q", "3", "--model", "t2", "--out", str(set_path))
    code, _, err = run(capsys, "census", "--in", str(set_path))
    assert code == 2
    assert "Q4-model" in stderr_json(err)["error"]


def test_residues_q5(capsys):
    code, out, _ = run(capsys, "residues", "--q", "5")
    assert code == 0
    assert "residue set [0, 2, 3]" in out


def test_residues_rejects_proper_prime_powers(capsys):
    code, _, err = run(capsys, "residues", "--q", "9")
    assert code == 2
    stderr_json(err)


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------


def test_pipeline_q3_end_to_end(capsys, tmp_path):
    out_dir = tmp_path / "p3"
    code, out, _ = run(capsys, "pipeline", "--q", "3", "--out-dir", str(out_dir))
    assert code == 0
    assert "comparison skipped" in out
    assert "cross-model match by the checked isomorphism" in out
    for name in (
        "q4-example.json", "t2-example.json", "census.csv", "census.json",
        "verify-q4.json", "verify-t2.json", "manifest.json",
    ):
        assert (out_dir / name).exists(), name
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["results"]["reference_comparison"] == "skipped"
    assert manifest["results"]["cross_model_match"] is True
    assert manifest["results"]["residues"] == [0, 2]


def test_pipeline_q5_matches_reference_lists(capsys, tmp_path):
    out_dir = tmp_path / "p5"
    code, out, _ = run(capsys, "pipeline", "--q", "5", "--out-dir", str(out_dir))
    assert code == 0
    assert "reference lists match" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["results"]["distinct_elliptic"] == [0, 2, 3, 5, 8, 12]
    assert manifest["results"]["minus3_values"] == [2, 12]
    assert manifest["results"]["reference_comparison"] == "match"


def test_pipeline_digests_stable_across_runs(capsys, tmp_path):
    digests = []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        code, _, _ = run(capsys, "pipeline", "--q", "3", "--out-dir", str(out_dir))
        assert code == 0
        digests.append(json.loads((out_dir / "manifest.json").read_text())["digest"])
    assert digests[0] == digests[1]


# manifest digests of ``ovoid pipeline``: they cover check outcomes and
# census results, not member lists, so they hold whichever equivalent
# example the pipeline puts in Q4 (searched there, or mapped from T2)
PIPELINE_DIGESTS = {
    3: "3f53134cb0dcfd04ecd8bf4626a34af2d27ede6ca2d3a77913332ddf0306ff7c",
    5: "b70657c7410db92b34fd2c99708dc61f7cdb9e012264dfaf93c48225e3ffd2bd",
}


@pytest.mark.parametrize("q", sorted(PIPELINE_DIGESTS))
def test_pipeline_digests_pinned(capsys, tmp_path, q):
    out_dir = tmp_path / f"p{q}"
    code, out, _ = run(capsys, "pipeline", "--q", str(q), "--out-dir", str(out_dir))
    assert code == 0
    assert f"digest {PIPELINE_DIGESTS[q]}" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["digest"] == PIPELINE_DIGESTS[q]
    # per-stage timings ride along outside the digest
    timings = manifest["timings"]
    assert set(timings["seconds"]) == {
        "t2_build", "search", "q4_build", "map_check",
        "verify_t2", "verify_q4", "census", "census_checks",
    }
    assert all(v >= 0 for v in timings["seconds"].values())
    n = (q + 1) * (q * q + 1)
    assert timings["counters"] == {
        "search_nodes": {3: 3, 5: 11}[q],
        "t2_lines": n,
        "q4_lines": n,
        "hyperplanes": (q**5 - 1) // (q - 1),
    }


def test_pipeline_searches_t2_only(capsys, tmp_path, monkeypatch):
    import ovoid.cli

    searched = []

    def recording(model, **kwargs):
        searched.append(model.name)
        return find_example(model, **kwargs)

    find_example = ovoid.cli.find_example
    monkeypatch.setattr(ovoid.cli, "find_example", recording)
    out_dir = tmp_path / "p5"
    code, out, _ = run(capsys, "pipeline", "--q", "5", "--out-dir", str(out_dir))
    assert code == 0
    assert searched == ["T2"]
    assert "isomorphism checked" in out
    # the Q4 set file is the image of the T2 one and passes its own bundle
    model, members = load_point_set(out_dir / "q4-example.json")
    assert model.name == "Q4" and len(members) == 24
    verify_doc = json.loads((out_dir / "verify-q4.json").read_text())
    assert verify_doc["passed"] is True


def test_pipeline_never_computes_invariant_profiles(capsys, tmp_path, monkeypatch):
    import ovoid.verify

    profiled = []

    def recording(gq, members, grid_points):
        profiled.append(len(members))
        return invariant_profile(gq, members, grid_points)

    invariant_profile = ovoid.verify.invariant_profile
    monkeypatch.setattr(ovoid.verify, "invariant_profile", recording)
    out_dir = tmp_path / "p3"
    code, _, _ = run(capsys, "pipeline", "--q", "3", "--out-dir", str(out_dir))
    assert code == 0
    assert profiled == []
    assert json.loads((out_dir / "manifest.json").read_text())["results"]["cross_model_match"] is True
    for name in ("verify-q4.json", "verify-t2.json"):
        assert "profile" not in json.loads((out_dir / name).read_text())
    # the recorder does see the profile that ``verify --profile`` asks for
    code, _, _ = run(capsys, "verify", "--in", str(out_dir / "t2-example.json"), "--profile")
    assert code == 0
    assert profiled == [8]


def test_pipeline_refuses_q9(capsys):
    code, _, err = run(capsys, "pipeline", "--q", "9")
    assert code == 2
    assert "no maximal partial ovoid" in stderr_json(err)["error"]


def test_pipeline_q11_needs_stretch_flag(capsys):
    code, _, err = run(capsys, "pipeline", "--q", "11")
    assert code == 2
    assert "--stretch" in stderr_json(err)["error"]


def test_pipeline_rejects_other_fields(capsys):
    code, _, err = run(capsys, "pipeline", "--q", "13")
    assert code == 2
    assert "pipeline covers" in stderr_json(err)["error"]
    code, _, err = run(capsys, "pipeline", "--q", "4")
    assert code == 2
    assert "even" in stderr_json(err)["error"]


# ----------------------------------------------------------------------
# input bounds and options
# ----------------------------------------------------------------------


@pytest.mark.parametrize("command", ["build", "pipeline", "residues"])
def test_huge_q_is_refused_before_factoring(capsys, command):
    t0 = time.perf_counter()
    code, _, err = run(capsys, command, "--q", "1000000007")
    assert code == 2
    assert "desk-scale cap" in only_json_error(err)["error"]
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("command", ["build", "pipeline", "residues"])
def test_huge_q_under_a_raised_cap_is_refused_at_once(capsys, monkeypatch, command):
    monkeypatch.setenv("OVOID_MAX_Q", str(10**30))
    t0 = time.perf_counter()
    code, _, err = run(capsys, command, "--q", str(10**18 + 3))
    assert code == 2
    assert "table limit" in only_json_error(err)["error"]
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("mode", ["pairs", "exact"])
def test_search_root_out_of_range_is_a_json_failure(capsys, mode):
    code, _, err = run(
        capsys, "search", "--q", "3", "--mode", mode, "--root", "5000", "--budget", "5"
    )
    assert code == 2
    assert "out of range" in only_json_error(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--q", "3", "--threads", "2"],
        ["search", "--q", "3", "--threads", "2"],
        ["verify", "--in", "k.json", "--threads", "2"],
        ["census", "--in", "k.json", "--threads", "2"],
        ["residues", "--q", "3", "--threads", "2"],
        ["pipeline", "--q", "3", "--threads", "2"],
        ["build", "--q", "3", "--seed", "1"],
        ["verify", "--in", "k.json", "--seed", "1"],
        ["census", "--in", "k.json", "--seed", "1"],
        ["residues", "--q", "3", "--seed", "1"],
        ["pipeline", "--q", "3", "--seed", "1"],
    ],
)
def test_threads_and_seed_outside_search_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in only_json_error(err)["error"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["search", "--q", "3", "--mode", "random"], "invalid choice: 'random'"),
        (["search", "--q", "3", "--seed", "1"], "unrecognized arguments: --seed 1"),
    ],
)
def test_removed_search_options_are_usage_errors(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in only_json_error(err)["error"]


def test_paired_search_refuses_another_target(capsys):
    code, _, err = run(capsys, "search", "--q", "3", "--mode", "pairs", "--target", "6")
    assert code == 2
    assert "finds sets of size 8, not 6" in only_json_error(err)["error"]
