"""Scene files: the JSON surface for presentations.

A scene declares the torus rank, the weighted ring variables and the two
generator lists with polynomial-string differentials, and nothing else:
the presentation alone fixes the reduction.  Field names are part of the
format; unknown fields are rejected rather than ignored so typos fail
loudly.
"""

from __future__ import annotations

import json

from .cdga import GradedCdga, GradedVariable, Generator1, Generator2, require_valid
from .errors import SchemaError
from .parsing import MAX_TORUS_RANK, VAR, parse_polynomial
from .poly import GREVLEX, MonomialOrder


def _expect_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _expect_fields(obj: dict, where: str, required: tuple[str, ...]):
    for field in required:
        if field not in obj:
            raise SchemaError(f"{where} is missing the field {field!r}")
    for field in obj:
        if field not in required:
            raise SchemaError(f"{where} has an unknown field {field!r}")


def _expect_name(value, where: str) -> str:
    if not isinstance(value, str) or not VAR.fullmatch(value):
        raise SchemaError(f"{where} must be a name matching {VAR.pattern}")
    return value


def _expect_weight(value, rank: int, where: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != rank:
        raise SchemaError(f"{where} must be a list of {rank} integers")
    for entry in value:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise SchemaError(f"{where} must contain integers only")
    return tuple(value)


def _expect_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where} must be an integer")
    return value


def _entries(top: dict, key: str, fields: tuple[str, ...]):
    """(where, object) for each entry of the list ``top[key]``, each an
    object with exactly ``fields``."""
    if not isinstance(top[key], list):
        raise SchemaError(f"{key} must be a list")
    for i, entry in enumerate(top[key]):
        where = f"{key}[{i}]"
        _expect_fields(_expect_object(entry, where), where, fields)
        yield where, entry


def _name_and_weight(obj: dict, where: str, rank: int) -> tuple[str, tuple[int, ...]]:
    name = _expect_name(obj["name"], f"{where}.name")
    return name, _expect_weight(obj["weight"], rank, f"{where}.weight")


def parse_scene(data) -> GradedCdga:
    """The validated presentation that decoded JSON data declares."""
    top = _expect_object(data, "scene")
    _expect_fields(top, "scene", ("torus_rank", "variables", "gens1", "gens2"))

    rank = _expect_int(top["torus_rank"], "torus_rank")
    if rank < 0:
        raise SchemaError("torus_rank must be nonnegative")
    if rank > MAX_TORUS_RANK:
        raise SchemaError(f"torus_rank must be at most {MAX_TORUS_RANK}")

    variables = [
        GradedVariable(*_name_and_weight(obj, where, rank))
        for where, obj in _entries(top, "variables", ("name", "weight"))
    ]
    names = tuple(v.name for v in variables)

    gens1 = []
    for where, obj in _entries(top, "gens1", ("name", "weight", "differential")):
        src = obj["differential"]
        if not isinstance(src, str):
            raise SchemaError(f"{where}.differential must be a polynomial string")
        gens1.append(Generator1(*_name_and_weight(obj, where, rank), parse_polynomial(src, names)))
    gen1_order = {g.name: i for i, g in enumerate(gens1)}

    gens2 = []
    for where, obj in _entries(top, "gens2", ("name", "weight", "differential")):
        diff = _expect_object(obj["differential"], f"{where}.differential")
        pairs = []
        for target, src in diff.items():
            if target not in gen1_order:
                raise SchemaError(
                    f"{where}.differential names the unknown degree-1 generator {target!r}"
                )
            if not isinstance(src, str):
                raise SchemaError(f"{where}.differential[{target!r}] must be a polynomial string")
            pairs.append((target, parse_polynomial(src, names)))
        pairs.sort(key=lambda p: gen1_order[p[0]])
        gens2.append(Generator2(*_name_and_weight(obj, where, rank), tuple(pairs)))

    cdga = GradedCdga(rank, tuple(variables), tuple(gens1), tuple(gens2))
    require_valid(cdga)
    return cdga


def parse_scene_text(text: str, source: str = "scene") -> GradedCdga:
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaError(f"{source} repeats the key {key!r} within one object")
            obj[key] = value
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as err:
        raise SchemaError(f"{source} is not valid JSON: {err}") from err
    except RecursionError as err:
        # the decoder recurses once per open array or object
        raise SchemaError(f"{source} nests arrays or objects too deeply to decode") from err
    except ValueError as err:
        # a number past the interpreter's limit on integer string conversion
        raise SchemaError(f"{source} holds a number too long to decode") from err
    return parse_scene(data)


def read_scene_bytes(path: str) -> bytes:
    """The raw bytes of a scene file, which the documents' input digest
    hashes; the one place a scene file is opened."""
    with open(path, "rb") as handle:
        return handle.read()


def parse_scene_bytes(raw: bytes, source: str = "scene") -> GradedCdga:
    """The validated presentation that the raw bytes of a scene file
    declare; they must be UTF-8 JSON."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{source} is not UTF-8 text: {err}") from err
    return parse_scene_text(text, source)


def load_scene(path: str) -> GradedCdga:
    """The presentation a scene file declares, validated."""
    return parse_scene_bytes(read_scene_bytes(path), path)


def variable_document(v) -> dict:
    """The name and weight of a variable or generator, as the format
    writes them."""
    return {"name": v.name, "weight": list(v.weight)}


def presentation_document(x: GradedCdga, order: MonomialOrder = GREVLEX) -> dict:
    """The scene fields of a presentation, differentials printed in
    ``order``: the one writer of the format, shared by scene files and
    report documents."""
    return {
        "torus_rank": x.torus_rank,
        "variables": [variable_document(v) for v in x.ring_vars],
        "gens1": [
            {**variable_document(g), "differential": g.differential.to_string(order)}
            for g in x.gens1
        ],
        "gens2": [
            {**variable_document(g), "differential": {t: c.to_string(order) for t, c in g.differential}}
            for g in x.gens2
        ],
    }


def serialize_scene(cdga: GradedCdga) -> dict:
    """Scene data for a presentation; inverse of parse_scene.  Only fresh
    presentations serialize: removed points have no scene field and must
    travel through report documents instead."""
    if not cdga.excluded.is_unit():
        raise ValueError("a presentation with removed points cannot be written as a scene")
    return presentation_document(cdga)
