import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stabred

ROOT = Path(__file__).resolve().parent.parent


def _fresh_modules(code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``, which
    imports ``stabred`` from this checkout's ``src/``."""
    probe = f"import sys\n{code}\nimport json\nprint(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_every_exported_name_is_defined_once():
    # the table itself: a name listed under two modules would silently keep
    # only its last home in the name -> module map
    listed = [name for names in stabred._EXPORTS.values() for name in names.split()]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(stabred.__all__)
    missing = [name for name in stabred.__all__ if not hasattr(stabred, name)]
    assert missing == []


def test_star_import_runs():
    namespace = {}
    exec("from stabred import *", namespace)
    assert set(stabred.__all__) <= namespace.keys()


def test_the_package_and_its_version_load_no_submodule():
    loaded = _fresh_modules("import stabred\nassert stabred.__version__")
    assert [m for m in loaded if m.startswith("stabred.")] == []


def test_the_scene_writer_loads_only_the_input_modules():
    tree = ast.parse((ROOT / "bench" / "scenes.py").read_text(encoding="utf-8"))
    (names,) = [
        [alias.name for alias in node.names]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "stabred"
    ]
    loaded = _fresh_modules(f"from stabred import {', '.join(names)}")
    assert [m for m in loaded if m.startswith("stabred.")] == [
        f"stabred.{m}" for m in ("cdga", "errors", "groebner", "ideal", "intlinalg", "parsing", "poly", "scene")
    ]
    assert "hashlib" not in loaded


def test_a_name_is_its_home_binding_even_when_patched(monkeypatch):
    for name in stabred.__all__:
        home = importlib.import_module(f"stabred.{stabred._HOME[name]}")
        assert getattr(stabred, name) is getattr(home, name)
        stand_in = object()
        with monkeypatch.context() as patch:
            patch.setattr(home, name, stand_in)
            assert getattr(stabred, name) is stand_in


def test_dir_lists_every_export_and_an_unknown_name_is_refused():
    assert set(stabred.__all__) <= set(dir(stabred))
    with pytest.raises(AttributeError, match="no_such_name"):
        stabred.no_such_name
