import json

import pytest

from stabred import (
    GradedCdga,
    InvalidPresentation,
    SchemaError,
    load_scene,
    parse_scene,
    read_scene,
    serialize_scene,
)
from stabred.scene import SceneOptions, parse_scene_text
from stabred.poly import GREVLEX, LEX, ORDERS

from helpers import build_corpus, ideal_of


def minimal_scene():
    return {
        "torus_rank": 1,
        "variables": [
            {"name": "x", "weight": [1]},
            {"name": "y", "weight": [-1]},
        ],
        "gens1": [{"name": "w", "weight": [0], "differential": "x*y"}],
        "gens2": [],
    }


def test_load_named_scenes():
    for path, rank in (
        ("scenes/xy2-x2y.json", 1),
        ("scenes/darboux-x2y2.json", 1),
        ("scenes/a2-hyperbolic.json", 1),
        ("scenes/a2-positive.json", 1),
        ("scenes/xy.json", 1),
    ):
        scene, raw = read_scene(path)
        assert scene.cdga.torus_rank == rank
        assert load_scene(path) == scene.cdga
        with open(path, "rb") as handle:
            assert raw == handle.read()


def test_parse_minimal_scene():
    scene = parse_scene(minimal_scene())
    assert scene.cdga.var_names == ("x", "y")
    assert scene.options == SceneOptions()
    assert ORDERS[scene.options.order] == GREVLEX


def test_options_parsed_and_defaulted():
    data = minimal_scene()
    data["options"] = {"order": "lex"}
    scene = parse_scene(data)
    assert ORDERS[scene.options.order] == LEX
    assert parse_scene(minimal_scene()).options.order == GREVLEX.kind


@pytest.mark.parametrize("name", ["seed", "degree_cap", "depth_fuse"])
def test_retired_options_are_refused(name):
    # the reduction takes no seed, degree bound or depth bound, so the scene
    # options that once set them are unknown fields, whatever their value
    data = minimal_scene()
    for value in (-1, 0, 8, "99"):
        data["options"] = {"order": "lex", name: value}
        with pytest.raises(SchemaError, match=f"^options has an unknown field '{name}'$"):
            parse_scene(data)


def test_gens2_targets_normalized_to_declaration_order():
    data = minimal_scene()
    data["gens1"] = [
        {"name": "w1", "weight": [2], "differential": "x^2"},
        {"name": "w2", "weight": [2], "differential": "x^2"},
    ]
    data["gens2"] = [
        {
            "name": "e",
            "weight": [3],
            "differential": {"w2": "-x", "w1": "x"},
        }
    ]
    scene = parse_scene(data)
    assert [t for t, _ in scene.cdga.gens2[0].differential] == ["w1", "w2"]


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d.pop("torus_rank"), "torus_rank"),
        (lambda d: d["variables"][0].update(color="red"), "color"),
        (lambda d: d["variables"][0].update(weight=[1, 2]), "weight"),
        (lambda d: d["variables"][0].update(weight=[True]), "integer"),
        (lambda d: d["variables"][0].update(name=""), "name"),
        (lambda d: d["gens1"][0].update(differential=7), "differential"),
        (lambda d: d.update(torus_rank="one"), "torus_rank"),
        (lambda d: d.update(options={"order": "degrevlex"}), "order"),
        (lambda d: d.update(options={"degree_cap": "big"}), "degree_cap"),
        pytest.param(
            lambda d: d.update(options={"depth_fuse": 1.5}), "depth_fuse",
            id="<lambda>-options.depth_fuse",
        ),
        (lambda d: d.update(options={"mystery": 1}), "mystery"),
    ],
)
def test_schema_violations(mutate, fragment):
    data = minimal_scene()
    mutate(data)
    with pytest.raises(SchemaError, match=fragment):
        parse_scene(data)


def test_option_ranges_include_their_bounds():
    # every value in an option's range is accepted, its first and last
    # included; the one option is the printing order
    data = minimal_scene()
    for order in ORDERS:
        data["options"] = {"order": order}
        assert parse_scene(data).options == SceneOptions(order=order)


@pytest.mark.parametrize("name", ["x-1", "x y", "1x", "\u00e9", "x\u0663", "x\n"])
def test_names_outside_the_grammar_are_schema_errors(name):
    for field in ("variables", "gens1"):
        data = minimal_scene()
        data[field][0]["name"] = name
        with pytest.raises(SchemaError, match=rf"{field}\[0\]\.name must be a name matching"):
            parse_scene(data)

def test_gens2_unknown_target_is_a_schema_error():
    data = minimal_scene()
    data["gens2"] = [
        {"name": "e", "weight": [0], "differential": {"ghost": "x"}}
    ]
    with pytest.raises(SchemaError, match="ghost"):
        parse_scene(data)


def test_invalid_presentation_is_distinguished_from_schema():
    data = minimal_scene()
    data["gens1"][0]["weight"] = [5]  # wrong weight for x*y
    with pytest.raises(InvalidPresentation, match="w"):
        parse_scene(data)


def test_malformed_json_reports_position():
    with pytest.raises(SchemaError, match="line 1"):
        parse_scene_text("{not json", source="inline")


def test_non_object_root_rejected():
    with pytest.raises(SchemaError):
        parse_scene_text(json.dumps([1, 2, 3]))


def test_serialize_round_trip_on_named_scenes():
    for path in (
        "scenes/xy2-x2y.json",
        "scenes/darboux-x2y2.json",
        "scenes/a2-positive.json",
    ):
        scene, _ = read_scene(path)
        data = serialize_scene(scene.cdga, scene.options)
        again = parse_scene(data)
        assert again.cdga == scene.cdga
        assert again.options == scene.options


def test_serialize_round_trip_on_corpus_sample():
    for cdga in build_corpus(size=25, seed=4):
        assert parse_scene(serialize_scene(cdga)).cdga == cdga


def test_serialize_rejects_excluded_points():
    base = load_scene("scenes/a2-hyperbolic.json")
    marked = GradedCdga(
        base.torus_rank,
        base.ring_vars,
        excluded=ideal_of(("x", "y"), "x"),
    )
    with pytest.raises(ValueError, match="removed points"):
        serialize_scene(marked)
