"""Canonicity of the reduction under a change of basis of the torus and
under a reordering of the variables.

A matrix U in GL_r(Z) maps every weight w to U·w.  Pairings are kept when
every cocharacter h goes to U^{-T}·h, so the same points have the same
stabilizers and the reduction makes the same choices: ``reduce`` prints
the same lines with the same exit code, and each subtorus of its document
is the image of the old one, in Hermite form.  Reordering the variables
changes how terms are printed, since grevlex follows the declared order,
but not the tree: the same exit code, the same node ids, and at each node
the same truncation and removed locus.  The scenes are the shipped ones
and the benchmark's ``rank2-trees`` workload.
"""

import contextlib
import io
import itertools
import json
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from stabred import Ideal, classical_truncation, ideal_equal, stabilizer_reduce
from stabred.cli import main
from stabred.intlinalg import hermite_rows
from stabred.scene import parse_scene

from helpers import bench_workload

ROOT = Path(__file__).resolve().parent.parent
SCENES = {
    **{path.stem: json.loads(path.read_text(encoding="utf-8")) for path in (ROOT / "scenes").glob("*.json")},
    **bench_workload("rank2-trees"),
}


@st.composite
def unimodular(draw, rank):
    """A matrix U in GL_rank(Z) and its inverse, as a product of sign
    changes and elementary row additions; U = ±1 at rank 1."""
    u = [[int(a == b) for b in range(rank)] for a in range(rank)]
    inverse = [row[:] for row in u]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
        if i == j:
            u[i] = [-a for a in u[i]]
            for row in inverse:
                row[i] = -row[i]
        else:
            # U <- (1 + k e_ij) U, so U^{-1} <- U^{-1} (1 - k e_ij)
            k = draw(st.integers(-3, 3))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
            for row in inverse:
                row[j] -= k * row[i]
    return u, inverse


def _apply(matrix, vector):
    return [sum(m * v for m, v in zip(row, vector)) for row in matrix]


def _rebased(doc, u):
    """The scene document with every weight w replaced by U·w."""
    out = json.loads(json.dumps(doc))
    for key in ("variables", "gens1", "gens2"):
        for entry in out[key]:
            entry["weight"] = _apply(u, entry["weight"])
    return out


def _subtori(node):
    """Every ``subtorus`` value of a document, in document order."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "subtorus":
                yield value
            else:
                yield from _subtori(value)
    elif isinstance(node, list):
        for item in node:
            yield from _subtori(item)


def _reduce(doc, directory):
    scene, out = directory / "scene.json", directory / "reduce.json"
    scene.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["reduce", "--scene", str(scene), "--json", str(out)])
    document = json.loads(out.read_text(encoding="utf-8")) if code == 0 else None
    return code, stdout.getvalue(), document


@pytest.fixture(scope="module")
def original(tmp_path_factory):
    directory = tmp_path_factory.mktemp("original")
    return {label: _reduce(doc, directory) for label, doc in SCENES.items()}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("rebased")


def test_the_scenes_include_ones_that_reduce_and_ones_that_fail(original):
    codes = [code for code, _, _ in original.values()]
    assert len(SCENES) >= 14
    assert codes.count(0) >= 10 and 3 in codes


@settings(max_examples=48, deadline=None)
@given(data=st.data())
def test_a_change_of_torus_basis_changes_nothing_reduce_prints(data, original, workdir):
    label = data.draw(st.sampled_from(sorted(SCENES)), label="scene")
    doc = SCENES[label]
    u, inverse = data.draw(unimodular(doc["torus_rank"]), label="U")
    code, stdout, document = _reduce(_rebased(doc, u), workdir)
    want_code, want_stdout, want_document = original[label]
    assert (code, stdout) == (want_code, want_stdout)
    if code != 0:
        return
    # h -> U^{-T} h: entry a of the image is sum over b of inverse[b][a] * h[b]
    transpose = [list(column) for column in zip(*inverse)]
    want = [
        [list(row) for row in hermite_rows(_apply(transpose, h) for h in subtorus)]
        for subtorus in _subtori(want_document)
    ]
    assert list(_subtori(document)) == want


def _preorder(node):
    yield node
    for _, child in node.children:
        yield from _preorder(child)


def _in_ring(ideal, ring):
    return Ideal(ring, tuple(g.extend(ring) for g in ideal.generators))


@pytest.mark.parametrize("label", sorted(SCENES))
def test_a_reordering_of_the_variables_keeps_the_tree_and_its_ideals(label, original, workdir):
    doc = SCENES[label]
    want_code = original[label][0]
    want = list(_preorder(stabilizer_reduce(parse_scene(doc)))) if want_code == 0 else None
    for variables in itertools.permutations(doc["variables"]):
        shuffled = {**doc, "variables": list(variables)}
        code, _, _ = _reduce(shuffled, workdir)
        assert code == want_code, [v["name"] for v in variables]
        if code != 0:
            continue
        got = list(_preorder(stabilizer_reduce(parse_scene(shuffled))))
        assert [n.id for n in got] == [n.id for n in want]
        for old, new in zip(want, got):
            ring = old.cdga.var_names
            assert sorted(new.cdga.var_names) == sorted(ring), old.id
            assert ideal_equal(classical_truncation(old.cdga), _in_ring(classical_truncation(new.cdga), ring)), old.id
            assert ideal_equal(old.cdga.excluded, _in_ring(new.cdga.excluded, ring)), old.id
