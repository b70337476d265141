"""Scene files: the JSON surface for presentations.

A scene declares the torus rank, the weighted ring variables, the two
generator lists with polynomial-string differentials, and run options.
Field names are part of the format; unknown fields are rejected rather
than ignored so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .cdga import GradedCdga, GradedVariable, Generator1, Generator2, require_valid
from .errors import SchemaError
from .parsing import VAR, parse_polynomial
from .poly import GREVLEX, ORDERS, MonomialOrder


@dataclass(frozen=True)
class SceneOptions:
    """The one run setting and its default: the monomial order for
    printing.  A scene's ``options`` and the ``--order`` flag override it;
    the value is checked here, wherever it came from.  The reduction itself
    takes no setting: the presentation alone fixes it."""

    order: str = GREVLEX.kind

    def __post_init__(self):
        if not isinstance(self.order, str) or self.order not in ORDERS:
            raise SchemaError("options.order must be " + " or ".join(map(repr, ORDERS)))


@dataclass(frozen=True)
class Scene:
    cdga: GradedCdga
    options: SceneOptions


def _expect_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _expect_fields(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    for field in required:
        if field not in obj:
            raise SchemaError(f"{where} is missing the field {field!r}")
    for field in obj:
        if field not in required and field not in optional:
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


def parse_scene(data) -> Scene:
    """Build a validated scene from decoded JSON data.  ``options`` may
    hold only the fields of ``SceneOptions``; any other name is a
    ``SchemaError``, like an unknown field anywhere else."""
    top = _expect_object(data, "scene")
    _expect_fields(top, "scene", ("torus_rank", "variables", "gens1", "gens2"), ("options",))

    rank = _expect_int(top["torus_rank"], "torus_rank")
    if rank < 0:
        raise SchemaError("torus_rank must be nonnegative")

    if not isinstance(top["variables"], list):
        raise SchemaError("variables must be a list")
    variables = []
    for i, entry in enumerate(top["variables"]):
        obj = _expect_object(entry, f"variables[{i}]")
        _expect_fields(obj, f"variables[{i}]", ("name", "weight"))
        variables.append(
            GradedVariable(
                _expect_name(obj["name"], f"variables[{i}].name"),
                _expect_weight(obj["weight"], rank, f"variables[{i}].weight"),
            )
        )
    names = tuple(v.name for v in variables)

    if not isinstance(top["gens1"], list):
        raise SchemaError("gens1 must be a list")
    gens1 = []
    for i, entry in enumerate(top["gens1"]):
        obj = _expect_object(entry, f"gens1[{i}]")
        _expect_fields(obj, f"gens1[{i}]", ("name", "weight", "differential"))
        src = obj["differential"]
        if not isinstance(src, str):
            raise SchemaError(f"gens1[{i}].differential must be a polynomial string")
        gens1.append(
            Generator1(
                _expect_name(obj["name"], f"gens1[{i}].name"),
                _expect_weight(obj["weight"], rank, f"gens1[{i}].weight"),
                parse_polynomial(src, names),
            )
        )
    gen1_order = {g.name: i for i, g in enumerate(gens1)}

    if not isinstance(top["gens2"], list):
        raise SchemaError("gens2 must be a list")
    gens2 = []
    for i, entry in enumerate(top["gens2"]):
        obj = _expect_object(entry, f"gens2[{i}]")
        _expect_fields(obj, f"gens2[{i}]", ("name", "weight", "differential"))
        diff = _expect_object(obj["differential"], f"gens2[{i}].differential")
        pairs = []
        for target, src in diff.items():
            if target not in gen1_order:
                raise SchemaError(
                    f"gens2[{i}].differential names the unknown degree-1 generator {target!r}"
                )
            if not isinstance(src, str):
                raise SchemaError(f"gens2[{i}].differential[{target!r}] must be a polynomial string")
            pairs.append((target, parse_polynomial(src, names)))
        pairs.sort(key=lambda p: gen1_order[p[0]])
        gens2.append(
            Generator2(
                _expect_name(obj["name"], f"gens2[{i}].name"),
                _expect_weight(obj["weight"], rank, f"gens2[{i}].weight"),
                tuple(pairs),
            )
        )

    given = _expect_object(top.get("options", {}), "options")
    _expect_fields(given, "options", (), tuple(f.name for f in fields(SceneOptions)))
    options = SceneOptions(**given)

    cdga = GradedCdga(rank, tuple(variables), tuple(gens1), tuple(gens2))
    require_valid(cdga)
    return Scene(cdga, options)


def parse_scene_text(text: str, source: str = "scene") -> Scene:
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
    return parse_scene(data)


def read_scene_bytes(path: str) -> bytes:
    """The raw bytes of a scene file, which the documents' input digest
    hashes; the one place a scene file is opened."""
    with open(path, "rb") as handle:
        return handle.read()


def parse_scene_bytes(raw: bytes, source: str = "scene") -> Scene:
    """Build a validated scene from the raw bytes of a scene file, which
    must be UTF-8 JSON."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise SchemaError(f"{source} is not UTF-8 text: {err}") from err
    return parse_scene_text(text, source)


def read_scene(path: str) -> tuple[Scene, bytes]:
    """Read, decode and validate a scene file; the raw bytes come back too."""
    raw = read_scene_bytes(path)
    return parse_scene_bytes(raw, path), raw


def load_scene(path: str) -> GradedCdga:
    """The presentation a scene file declares, validated."""
    return read_scene(path)[0].cdga


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


def serialize_scene(cdga: GradedCdga, options: SceneOptions | None = None) -> dict:
    """Scene data for a presentation; inverse of parse_scene up to option
    defaults.  Only fresh presentations serialize: removed points have no
    scene field and must travel through report documents instead."""
    if not cdga.excluded.is_unit():
        raise ValueError("a presentation with removed points cannot be written as a scene")
    data = presentation_document(cdga, ORDERS[options.order] if options else GREVLEX)
    if options is not None:
        data["options"] = asdict(options)
    return data
