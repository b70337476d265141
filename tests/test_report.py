import hashlib
import json
import re
from pathlib import Path

from stabred import Ideal, __version__, ideal, load_scene, stabilizer_reduce, validate_presentation
from stabred.groebner import buchberger
from stabred.poly import LEX
from stabred.report import (
    canonical_json,
    cdga_document,
    document,
    excluded_document,
    input_digest,
    leaves_document,
    pi0_document,
    reduction_document,
    validation_document,
)

from helpers import RANK2_TREES, SHIPPED_SCENES, ideal_of, scene_file, strings


def test_pyproject_version_is_the_tool_version():
    # read with a regex: Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version = "([^"]+)"$', project, re.M)
    assert version == __version__


def test_canonical_json_is_sorted_and_newline_terminated():
    text = canonical_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": [2, {"z": 0, "y": 1}]}


def test_input_digest_is_sha256_of_bytes():
    payload = b'{"torus_rank": 1}'
    assert input_digest(payload) == hashlib.sha256(payload).hexdigest()


def test_document_wrapper():
    doc = document("pi0", "f" * 64, {"generators": []})
    assert doc["version"] == __version__
    assert doc["command"] == "pi0"
    assert doc["input_digest"] == "f" * 64
    assert doc["data"] == {"generators": []}


def test_pi0_document_uses_canonical_generators():
    doc = pi0_document(load_scene("scenes/xy2-x2y.json"))
    assert doc == {"generators": ["x^2*y", "x*y^2"]}


def test_cdga_document_round_trips_strings():
    doc = cdga_document(load_scene("scenes/darboux-x2y2.json"))
    assert doc["torus_rank"] == 1
    assert doc["variables"] == [
        {"name": "x", "weight": [1]},
        {"name": "y", "weight": [-1]},
    ]
    assert doc["gens1"][0] == {
        "name": "w_x",
        "weight": [-1],
        "differential": "2*x*y^2",
    }
    assert doc["gens2"][0]["differential"] == {"w_x": "x", "w_y": "-y"}
    assert doc["excluded"] == []


def test_excluded_document_renders_the_removed_locus():
    ring = ("x", "y")
    assert excluded_document(Ideal.unit(ring)) == []  # nothing removed
    assert excluded_document(ideal_of(ring, "x", "x - 1")) == []
    assert excluded_document(Ideal.zero(ring)) == ["1"]  # every point removed
    assert excluded_document(ideal_of(ring, "x*y", "x")) == ["x"]


def _removed_loci(node):
    yield node.cdga.excluded
    for _, child in node.children:
        yield from _removed_loci(child)


def test_removed_loci_under_lex_need_no_buchberger_call(tmp_path, monkeypatch):
    # a monomial ideal's reduced basis in any order is its minimal
    # monomials, so the lex documents of the removed loci are read off the
    # generators, and they print what Buchberger would have
    scenes = SHIPPED_SCENES + tuple(RANK2_TREES)
    trees = [stabilizer_reduce(load_scene(scene_file(scene, tmp_path))) for scene in scenes]
    inputs = []

    def recording(generators, order):
        inputs.append(generators)
        return buchberger(generators, order)

    monkeypatch.setattr(ideal, "buchberger", recording)
    for tree in trees:
        for excluded in _removed_loci(tree):
            shown = excluded_document(excluded, LEX)
            if shown != ["1"]:
                expected = buchberger(excluded.generators, LEX)
                assert shown == ([] if expected[0].is_constant() else list(strings(expected)))
    assert not [gens for gens in inputs if all(len(g.terms) == 1 for g in gens)]


def test_validation_document():
    doc = validation_document(validate_presentation(load_scene("scenes/xy.json")))
    assert doc == {"ok": True, "violations": []}


def test_reduction_document_shape_and_checks():
    tree = stabilizer_reduce(load_scene("scenes/a2-hyperbolic.json"))
    doc = reduction_document(tree)
    assert doc["invariant_checks"] == {
        "validation": True,
        "crosscheck": True,
        "strict_decrease": True,
    }
    assert doc["summary"] == {
        "leaf_count": 2,
        "root_max_dim": 1,
    }
    ids = [node["id"] for node in doc["nodes"]]
    assert ids == ["root", "root/x", "root/y"]  # preorder
    root = doc["nodes"][0]
    assert root["children"][0]["chart"]["phi"] == {"x": "xi", "y": "xi*u_y"}
    assert root["children"][0]["chart"]["subtorus"] == [[1]]


def test_leaves_document():
    doc = leaves_document(stabilizer_reduce(load_scene("scenes/darboux-x2y2.json")))
    assert [leaf["id"] for leaf in doc["leaves"]] == ["root/x", "root/y"]
    assert all(leaf["vdim"] == 0 for leaf in doc["leaves"])
    assert all(leaf["e_ranks"] == [1, 1] for leaf in doc["leaves"])
