"""Saving and loading point sets, plus the model registry.

A *set file* is a small JSON document naming the ambient model, the field
it was built over, and the member points in the model's own coordinate
encoding.  Files written by one process can be reloaded by another without
re-running any search, and the embedded field data pins down the arithmetic
exactly (the reduction polynomial is stored, not just ``q``).

:func:`cached_model` builds a model by name, and every field a set file
or the command line asks for is first held to the desk-scale cap
(``OVOID_MAX_Q``, default 13).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Optional, Union

from .gf import Field, field_from_json
from .q4 import Q4Model, build_q4_model
from .t2 import T2Model, build_t2_model

__all__ = [
    "StorageError",
    "MODEL_NAMES",
    "DEFAULT_MAX_Q",
    "desk_cap",
    "check_desk_cap",
    "cached_model",
    "save_point_set",
    "load_point_set",
    "canonical_json",
    "json_digest",
]

DEFAULT_MAX_Q = 13

SET_FORMAT = "ovoid-set"
SET_VERSION = 1

Model = Union[Q4Model, T2Model]

_BUILDERS = {"Q4": build_q4_model, "T2": build_t2_model}

MODEL_NAMES = tuple(sorted(_BUILDERS))


class StorageError(Exception):
    """Raised for malformed set files or registry misuse."""


def desk_cap() -> int:
    """The largest field order a run may build: ``OVOID_MAX_Q``, default 13."""
    raw = os.environ.get("OVOID_MAX_Q", str(DEFAULT_MAX_Q))
    try:
        return int(raw)
    except ValueError:
        raise StorageError(f"OVOID_MAX_Q must be an integer, got {raw!r}") from None


def check_desk_cap(p: int, h: int, max_q: Optional[int] = None) -> None:
    """Refuse GF(p^h) above the desk-scale cap (``max_q`` or :func:`desk_cap`).

    Since p >= 2, any h beyond the cap's bit length is refused without
    computing p^h, so an absurd degree costs nothing.
    """
    if max_q is None:
        max_q = desk_cap()
    huge = h > abs(max_q).bit_length()
    if huge or p**h > max_q:
        q = f"{p}^{h}" if huge else p**h
        raise StorageError(
            f"q = {q} exceeds the desk-scale cap {max_q} "
            "(set OVOID_MAX_Q to raise it)"
        )


def cached_model(name: str, field: Field) -> Model:
    """Build the named model (``"Q4"`` or ``"T2"``) over ``field``.

    This is the one model constructor of the command line and of set-file
    loading.  Nothing is cached: the name predates the removal of an
    on-disk cache and is kept because ``perfbench`` traces it by name.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise StorageError(
            f"unknown model {name!r}, expected one of {list(MODEL_NAMES)}"
        ) from None
    return builder(field)


# ----------------------------------------------------------------------
# Point-set files.
# ----------------------------------------------------------------------


def save_point_set(
    path: Union[str, Path],
    model: Model,
    members: Iterable[int],
    meta: Optional[dict] = None,
) -> dict:
    """Write ``members`` (point indices in ``model``) to a JSON set file.

    Returns the document that was written.  Members are stored sorted and
    in the model's coordinate encoding, so files are stable under
    reordering and readable without the producing process.
    """
    members = sorted(set(int(i) for i in members))
    for i in members:
        if not 0 <= i < model.gq.num_points:
            raise StorageError(f"member index {i} out of range for {model.name}")
    doc = {
        "format": SET_FORMAT,
        "version": SET_VERSION,
        "model": model.name,
        "field": model.field.to_json(),
        "size": len(members),
        "members": [model.encode_member(i) for i in members],
    }
    if meta:
        doc["meta"] = meta
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_point_set(
    path: Union[str, Path], model: Optional[Model] = None
) -> tuple[Model, tuple[int, ...]]:
    """Read a set file, returning ``(model, member indices)``.

    When ``model`` is passed it must match the file's model name and field;
    otherwise the model is built (through :func:`cached_model`) from the
    field data embedded in the file.  A file that is not JSON, or names a
    field above the desk-scale cap, raises :class:`StorageError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, as is an
        # integer literal too long to convert
        raise StorageError(f"{path}: not a JSON document ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != SET_FORMAT:
        raise StorageError(f"{path}: not a point-set file")
    if doc.get("version") != SET_VERSION:
        raise StorageError(f"{path}: unsupported version {doc.get('version')!r}")
    name = doc.get("model")
    if name not in _BUILDERS:
        raise StorageError(f"{path}: unknown model {name!r}")
    try:
        p, h = int(doc["field"]["p"]), int(doc["field"]["h"])
    except Exception as exc:
        raise StorageError(f"{path}: bad field data ({exc})") from exc
    check_desk_cap(p, h)  # before any table or model is built
    try:
        field = field_from_json(doc["field"])
    except Exception as exc:
        raise StorageError(f"{path}: bad field data ({exc})") from exc
    if model is None:
        model = cached_model(name, field)
    elif model.name != name or model.field != field:
        raise StorageError(
            f"{path}: file is for {name} over {field!r}, "
            f"got a {model.name} model over {model.field!r}"
        )
    try:
        members = sorted(model.decode_member(obj) for obj in doc.get("members", []))
    except (TypeError, ValueError) as exc:  # GeometryError is a ValueError
        raise StorageError(f"{path}: bad member data ({exc})") from exc
    if len(set(members)) != len(members):
        raise StorageError(f"{path}: duplicate members")
    if doc.get("size") != len(members):
        raise StorageError(
            f"{path}: size field {doc.get('size')!r} does not match "
            f"{len(members)} members"
        )
    return model, tuple(members)


# ----------------------------------------------------------------------
# Canonical JSON and digests (used by the CLI run manifests).
# ----------------------------------------------------------------------


def canonical_json(obj: object) -> str:
    """Serialize with sorted keys and no whitespace, for stable hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_digest(obj: object) -> str:
    """Hex SHA-256 of the canonical JSON serialization."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
