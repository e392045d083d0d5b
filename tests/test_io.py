"""Round trips and failure paths for set files and the model registry."""

import json

import pytest

from ovoid.gf import make_field
from ovoid.io import (
    StorageError,
    cached_model,
    canonical_json,
    json_digest,
    load_point_set,
    save_point_set,
)
from ovoid.verify import find_example


def example_doc(tmp_path, name, q=3):
    model = cached_model(name, make_field(q))
    members = find_example(model).members
    path = tmp_path / f"{name.lower()}-{q}.json"
    doc = save_point_set(path, model, members, meta={"note": "test"})
    return model, members, path, doc


@pytest.mark.parametrize("name", ["Q4", "T2"])
def test_save_load_roundtrip(tmp_path, name):
    model, members, path, doc = example_doc(tmp_path, name)
    assert doc["model"] == name
    assert doc["size"] == len(members)
    assert doc["meta"] == {"note": "test"}
    reloaded_model, reloaded = load_point_set(path)
    assert reloaded == tuple(members)
    assert reloaded_model.name == name
    assert reloaded_model.field == model.field
    # and against the original model instance
    _, again = load_point_set(path, model=model)
    assert again == tuple(members)


def test_load_rejects_model_mismatch(tmp_path):
    _, _, path, _ = example_doc(tmp_path, "Q4")
    other = cached_model("T2", make_field(3))
    with pytest.raises(StorageError, match="file is for Q4"):
        load_point_set(path, model=other)
    q5 = cached_model("Q4", make_field(5))
    with pytest.raises(StorageError, match="file is for Q4"):
        load_point_set(path, model=q5)


def test_load_rejects_malformed_documents(tmp_path):
    _, _, path, doc = example_doc(tmp_path, "Q4")

    def write(mutate):
        bad = json.loads(json.dumps(doc))
        mutate(bad)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        return p

    with pytest.raises(StorageError, match="not a point-set file"):
        load_point_set(write(lambda d: d.update(format="other")))
    with pytest.raises(StorageError, match="unsupported version"):
        load_point_set(write(lambda d: d.update(version=99)))
    with pytest.raises(StorageError, match="unknown model"):
        load_point_set(write(lambda d: d.update(model="Q5")))
    with pytest.raises(StorageError, match="size field"):
        load_point_set(write(lambda d: d.update(size=3)))
    with pytest.raises(StorageError, match="duplicate"):
        load_point_set(
            write(lambda d: d.update(members=d["members"] + d["members"][:1]))
        )
    with pytest.raises(StorageError, match="bad field data"):
        load_point_set(write(lambda d: d.update(field={"p": "x"})))


def test_save_rejects_out_of_range_members(tmp_path):
    model = cached_model("Q4", make_field(3))
    with pytest.raises(StorageError, match="out of range"):
        save_point_set(tmp_path / "k.json", model, [0, model.gq.num_points])


def test_cached_model_rejects_unknown_name():
    with pytest.raises(StorageError, match="unknown model"):
        cached_model("W3", make_field(3))


def test_cached_model_no_dir_is_plain_build():
    model = cached_model("Q4", make_field(3))
    assert model.gq.num_points == 40


def test_canonical_json_and_digest_are_order_insensitive():
    a = {"b": [1, 2], "a": {"y": 1, "x": 2}}
    b = {"a": {"x": 2, "y": 1}, "b": [1, 2]}
    assert canonical_json(a) == canonical_json(b)
    assert json_digest(a) == json_digest(b)
    assert json_digest(a) != json_digest({"a": {"x": 2, "y": 1}, "b": [2, 1]})
    assert len(json_digest(a)) == 64
