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
from .poly import GREVLEX, ORDERS


@dataclass(frozen=True)
class SceneOptions:
    """The run setting and its default: the monomial order for printing.  A
    scene's ``options`` and the ``--order`` flag override it; the value is
    checked here, wherever it came from."""

    order: str = GREVLEX.kind

    def __post_init__(self):
        if not isinstance(self.order, str) or self.order not in ORDERS:
            raise SchemaError("options.order must be " + " or ".join(map(repr, ORDERS)))


# Settings that no longer steer anything: "seed" once seeded random rank
# probes, "degree_cap" once bounded the invariant-monomial search and
# "depth_fuse" once bounded the reduction's depth, which the strict drop of
# the stabilizer dimension on every edge now bounds by the torus rank.
# Older scene files keep them, so each is still checked to be an integer,
# then dropped.
RETIRED_OPTIONS = ("seed", "degree_cap", "depth_fuse")


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
    """Build a validated scene from decoded JSON data."""
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
    known = tuple(f.name for f in fields(SceneOptions))
    _expect_fields(given, "options", (), known + RETIRED_OPTIONS)
    options = SceneOptions(**{key: given[key] for key in known if key in given})
    for key in RETIRED_OPTIONS:
        _expect_int(given.get(key, 0), f"options.{key}")

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


def serialize_scene(cdga: GradedCdga, options: SceneOptions | None = None) -> dict:
    """Scene data for a presentation; inverse of parse_scene up to option
    defaults.  Only fresh presentations serialize: removed points have no
    scene field and must travel through report documents instead."""
    if not cdga.excluded.is_unit():
        raise ValueError("a presentation with removed points cannot be written as a scene")
    mono = ORDERS[options.order] if options else GREVLEX
    data = {
        "torus_rank": cdga.torus_rank,
        "variables": [{"name": v.name, "weight": list(v.weight)} for v in cdga.ring_vars],
        "gens1": [
            {"name": g.name, "weight": list(g.weight), "differential": g.differential.to_string(mono)}
            for g in cdga.gens1
        ],
        "gens2": [
            {
                "name": g.name,
                "weight": list(g.weight),
                "differential": {t: c.to_string(mono) for t, c in g.differential},
            }
            for g in cdga.gens2
        ],
    }
    if options is not None:
        data["options"] = asdict(options)
    return data
