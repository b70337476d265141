"""The benchmark's hooks into the package still resolve.

``bench/tracer.py`` patches spans onto functions it looks up by module and
name, and ``bench/selftest.py`` checks a list of module bindings; a rename
under ``src/`` would break both without failing any other test.  This
reads ``bench/`` and changes nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _selftest_bindings():
    """The (module, name) pairs ``check_patching`` lists, read from its source."""
    tree = ast.parse((BENCH / "selftest.py").read_text(encoding="utf-8"))
    check = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "check_patching"
    )
    assign = next(
        node for node in ast.walk(check)
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "bindings"
    )
    pairs = []
    for item in assign.value.elts:
        module, name = item.elts
        pairs.append((f"{module.value.id}.{module.attr}", name.value))
    return pairs


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for span, module_name, attr, method, _ in tracer.TARGETS:
        home = importlib.import_module(module_name)
        assert hasattr(home, attr), span
        if method is not None:
            assert method in vars(getattr(home, attr)), span


def test_every_selftest_binding_is_traced():
    tracer = _load_tracer()
    bindings = [(importlib.import_module(m), name) for m, name in _selftest_bindings()]
    assert bindings
    before = [getattr(module, name) for module, name in bindings]
    with tracer.Tracer().installed():
        wrapped = [getattr(module, name) for module, name in bindings]
    assert [getattr(w, "__wrapped__", None) for w in wrapped] == before
    assert [getattr(module, name) for module, name in bindings] == before


def test_tracer_reads_the_node_depth_as_the_third_argument_of_reduce():
    # ``reduce.depth_max`` is the largest ``args[2]`` of a ``_reduce`` span
    import stabred.reduce as reduce
    from test_torus import rank2_critical

    tracer = _load_tracer().Tracer()
    x = rank2_critical("a*b*c*d + a*b")
    with tracer.installed():
        tree = reduce.stabilizer_reduce(x)
    depths = [span[5] for span in tracer.spans if span[2] == "reduce._reduce"]
    assert all(type(depth) is int for depth in depths)
    assert max(depths) == reduce.tree_depth(tree) == 2
    nodes, stack = 0, [tree]
    while stack:
        nodes += 1
        stack.extend(child for _, child in stack.pop().children)
    assert len(depths) == nodes
