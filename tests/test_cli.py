import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stabred import blowup, cdga, cli, errors, torus
from stabred.cli import build_parser, main
from stabred.reduce import stabilizer_reduce
from stabred.scene import parse_scene

SCENES = "scenes"
ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--scene", f"{SCENES}/xy.json")
    assert code == 0
    assert out.strip() == "ok"
    assert err == ""


def test_validate_checks_the_presentation_once(monkeypatch, capsys):
    # parsing already validated the scene; the command reuses that verdict
    calls = []
    checked = cdga.validate_presentation
    monkeypatch.setattr(cdga, "validate_presentation", lambda x: calls.append(x) or checked(x))
    code, out, _ = run(capsys, "validate", "--scene", f"{SCENES}/xy2-x2y.json")
    assert (code, out.strip(), len(calls)) == (0, "ok", 1)


def test_validate_lists_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [{"name": "w", "weight": [5], "differential": "x*y"}],
        "gens2": [],
    }))
    code, out, err = run(capsys, "validate", "--scene", str(bad))
    assert code == 1
    assert "homogeneity" in out
    assert "w" in out


def test_schema_error_is_a_domain_failure(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, out, err = run(capsys, "pi0", "--scene", str(bad))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["validate", "pi0"])
def test_non_utf8_scene_is_a_domain_failure(command, tmp_path, capsys):
    bad = tmp_path / "latin.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = run(capsys, command, "--scene", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "not UTF-8" in err


@pytest.mark.parametrize("exponent", ["\u00b2", "\u0663"])
def test_non_ascii_digit_in_a_differential_is_a_domain_failure(exponent, tmp_path, capsys):
    scene = tmp_path / "digits.json"
    scene.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [{"name": "w", "weight": [0], "differential": f"x^{exponent}*y^2"}],
        "gens2": [],
    }), encoding="utf-8")
    code, out, err = run(capsys, "pi0", "--scene", str(scene))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "line 1, column 3" in err


def deep_scenes(directory):
    """A scene whose ``variables`` nests 100,000 arrays, and one whose
    differential nests 3,000 parentheses: each overflows the interpreter's
    recursion limit if it is decoded or parsed by plain recursion."""
    arrays = directory / "deep-arrays.json"
    arrays.write_text('{"torus_rank": 1, "variables": ' + "[" * 100_000 + "]" * 100_000 + ', "gens1": [], "gens2": []}')
    parens = directory / "deep-parens.json"
    parens.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [{"name": "w", "weight": [0], "differential": "(" * 3000 + "x*y" + ")" * 3000}],
        "gens2": [],
    }))
    return ((arrays, "nests arrays or objects too deeply"), (parens, "line 1, column 101: parentheses nested deeper"))


def assert_refused(capsys, command, scene, message, timeout):
    """``command`` on ``scene`` ends in one ``error:`` line naming
    ``message`` and exit 1, in process and as a subprocess that finishes
    within ``timeout`` seconds."""
    code, out, err = run(capsys, command, "--scene", str(scene))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1
    done = subprocess.run(
        [sys.executable, "-m", "stabred.cli", command, "--scene", str(scene)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True, timeout=timeout,
    )
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_deep_nesting_is_a_domain_failure(command, tmp_path, capsys):
    for scene, message in deep_scenes(tmp_path):
        assert_refused(capsys, command, scene, message, timeout=120)


def one_differential_scene(path, differential):
    path.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [{"name": "w", "weight": [0], "differential": differential}],
        "gens2": [],
    }))
    return path


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_integers_past_the_conversion_limit_are_a_domain_failure(command, tmp_path, capsys):
    # 5,000 digits is past the interpreter's limit on integer string
    # conversion (4,300 by default), which raises a plain ValueError
    digits = "1" * 5000
    coefficient = one_differential_scene(tmp_path / "big-coefficient.json", digits + "*x*y")
    rank = tmp_path / "big-rank.json"
    rank.write_text('{"torus_rank": ' + digits + ', "variables": [], "gens1": [], "gens2": []}')
    cases = (
        (coefficient, "line 1, column 1: integer literal of 5000 digits is too long"),
        (rank, "holds a number too long to decode"),
    )
    for scene, message in cases:
        assert_refused(capsys, command, scene, message, timeout=120)


def test_a_torus_rank_past_the_bound_is_refused_in_seconds(tmp_path, capsys):
    # reduce used to build r-by-r kernels for the flat of no variable, with
    # time and memory growing like r^2, before it failed with NoCenter
    scene = tmp_path / "big-torus.json"
    scene.write_text(json.dumps({"torus_rank": 100000, "variables": [], "gens1": [], "gens2": []}))
    assert_refused(capsys, "validate", scene, "torus_rank must be at most 64", timeout=20)


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_powers_that_expand_past_the_term_bound_are_refused_in_seconds(command, tmp_path, capsys):
    cases = (
        ("(x+y)^100000", "line 1, column 6: power 100000 of 2 terms may expand"),
        ("((x+y)^100)^100", "line 1, column 12: power 100 of 101 terms may expand"),
    )
    for i, (differential, message) in enumerate(cases):
        scene = one_differential_scene(tmp_path / f"power-{i}.json", differential)
        assert_refused(capsys, command, scene, message, timeout=20)


@pytest.mark.parametrize("command", ["validate", "pi0", "reduce"])
def test_coefficients_past_the_conversion_limit_are_refused_in_seconds(command, tmp_path, capsys):
    # each would print a coefficient past the interpreter's limit on integer
    # string conversion, and the last two took seconds to minutes to expand
    cases = (
        ("3^10000*x*y + x^2*y^2", "line 1, column 2: power 10000 may have a coefficient"),
        ("3^10000000", "line 1, column 2: power 10000000 may have a coefficient"),
        ("(3^100*x + y)^999", "line 1, column 14: power 999 may have a coefficient"),
    )
    for i, (differential, message) in enumerate(cases):
        scene = one_differential_scene(tmp_path / f"coefficient-{i}.json", differential)
        assert_refused(capsys, command, scene, message, timeout=20)


@pytest.mark.parametrize("command", ["pi0", "reduce"])
def test_coefficients_grown_past_the_conversion_limit_are_a_domain_failure(command, tmp_path, capsys):
    # every coefficient parses within the interpreter's limit on integer
    # string conversion, but the Groebner basis holds z^2 - 2^9000*3^4000*z
    scene = tmp_path / "growth.json"
    scene.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [
            {"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}, {"name": "z", "weight": [0]},
        ],
        "gens1": [
            {"name": "a", "weight": [0], "differential": "x*y - 3^4000*z"},
            {"name": "b", "weight": [0], "differential": "z^2 - 2^9000*x*y"},
        ],
        "gens2": [],
    }))
    limit = f"more than {sys.get_int_max_str_digits()} digits"
    assert_refused(capsys, command, scene, limit, timeout=120)
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes\n")
    code, out, err = run(capsys, command, "--scene", str(scene), "--json", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and limit in err
    assert target.read_bytes() == b"old bytes\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "pi0", "--scene", "does-not-exist.json")
    assert code == 1
    assert "error:" in err


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["pi0"]) == 2
    capsys.readouterr()
    assert main(["no-such-command", "--scene", "x"]) == 2
    capsys.readouterr()
    assert main(["-h"]) == 0
    capsys.readouterr()


FLAG_VALUES = {"--subtorus": "1", "--chart": "chart_x", "--order": "lex"}
REFUSED_FLAGS = (
    [("--subtorus", c) for c in ("validate", "pi0", "reduce", "report")]
    + [("--chart", c) for c in ("validate", "pi0", "fixed-locus", "rees", "reduce", "report")]
    + [("--order", c) for c in ("validate", "report")]
)


@pytest.mark.parametrize("flag, command", REFUSED_FLAGS, ids=[f"{c}{f}" for f, c in REFUSED_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(flag, command, capsys):
    code, out, err = run(capsys, command, "--scene", f"{SCENES}/xy.json", flag, FLAG_VALUES[flag])
    assert code == 2
    assert out == ""
    assert f"{flag} does not apply to the {command} command" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["pi0", "--scene", f"{SCENES}/xy.json", "--chart", "nope", "--subtorus", "5,5,5"],
        ["reduce", "--scene", f"{SCENES}/xy.json", "--subtorus", "9"],
        ["report", "--scene", f"{SCENES}/xy.json", "--subtorus", ""],
    ],
    ids=["pi0-malformed", "reduce-wrong-rank", "report-empty"],
)
def test_malformed_values_of_a_refused_flag_are_usage_errors(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"does not apply to the {argv[0]} command" in err


def test_pi0_output(capsys):
    code, out, _ = run(capsys, "pi0", "--scene", f"{SCENES}/xy2-x2y.json")
    assert code == 0
    assert out.splitlines() == ["pi0 generators (2):", "  x^2*y", "  x*y^2"]


def test_fixed_locus_output(capsys):
    code, out, _ = run(capsys, "fixed-locus", "--scene", f"{SCENES}/xy.json")
    assert code == 0
    assert "ring: (empty)" in out
    assert "gens1: w" in out


def test_fixed_locus_prints_the_hermite_form_of_a_rank_4_kernel(tmp_path, capsys):
    # the kernel of (-3, 1, 3, 2) has rank 3; its first row is reduced
    # above the pivot of the third
    scene = tmp_path / "rank4.json"
    scene.write_text(json.dumps({
        "torus_rank": 4,
        "variables": [
            {"name": "x", "weight": [-3, 1, 3, 2]},
            {"name": "y", "weight": [3, -1, -3, -2]},
            {"name": "z", "weight": [0, 0, 0, 0]},
        ],
        "gens1": [{"name": "w", "weight": [0, 0, 0, 0], "differential": "x*y - 1"}],
        "gens2": [],
    }))
    code, out, err = run(capsys, "fixed-locus", "--scene", str(scene))
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "subtorus: [[1, 0, 1, 0], [0, 1, 1, -2], [0, 0, 2, -3]]"


def test_blowup_and_chart_filter(capsys):
    code, out, _ = run(capsys, "blowup", "--scene", f"{SCENES}/xy2-x2y.json")
    assert code == 0
    assert "chart_x" in out and "chart_y" in out
    code, out, _ = run(
        capsys, "blowup", "--scene", f"{SCENES}/xy2-x2y.json", "--chart", "chart_y"
    )
    assert code == 0
    assert "chart_x" not in out and "chart_y" in out


def test_unknown_chart_name(capsys):
    code, _, err = run(
        capsys, "blowup", "--scene", f"{SCENES}/xy2-x2y.json", "--chart", "chart_z"
    )
    assert code == 1
    assert "chart_z" in err and "chart_x" in err


def test_kirwan_marks_fully_unstable(capsys):
    code, out, _ = run(capsys, "kirwan", "--scene", f"{SCENES}/a2-positive.json")
    assert code == 0
    # a chart that removes every point says so by its removed locus alone
    assert out.splitlines() == [
        "chart_x: center x, truncation (0), excluded (1)",
        "chart_y: center y, truncation (0), excluded (1)",
    ]


def test_kirwan_computes_the_unstable_locus_once(monkeypatch, capsys):
    # the charts and the printed saturation share one saturation_ideal call
    calls = []
    wrapped = torus.saturation_ideal

    def counted(x, h):
        calls.append(h)
        return wrapped(x, h)

    for module in (torus, blowup, cli):
        monkeypatch.setattr(module, "saturation_ideal", counted)
    code, out, _ = run(capsys, "kirwan", "--scene", f"{SCENES}/xy2-x2y.json")
    assert (code, len(calls)) == (0, 1)
    assert out.count("chart_") == 2


def test_subtorus_flag(capsys):
    code, out, _ = run(
        capsys, "kirwan", "--scene", f"{SCENES}/a2-hyperbolic.json",
        "--subtorus", "1",
    )
    assert code == 0
    assert "excluded (u_y)" in out


def test_subtorus_flag_malformed(capsys):
    code, _, err = run(
        capsys, "kirwan", "--scene", f"{SCENES}/a2-hyperbolic.json",
        "--subtorus", "1,junk",
    )
    assert code == 1
    assert "error:" in err
    code, _, err = run(
        capsys, "kirwan", "--scene", f"{SCENES}/a2-hyperbolic.json",
        "--subtorus", "1,0",
    )
    assert code == 1


@pytest.mark.parametrize("command", cli.FLAG_COMMANDS["--subtorus"])
def test_an_empty_subtorus_is_a_domain_failure(command, capsys):
    # the empty value is given, so it is parsed, not replaced by a witness
    code, out, err = run(capsys, command, "--scene", f"{SCENES}/xy2-x2y.json", "--subtorus", "")
    assert (code, out) == (1, "")
    assert err == "error: bad subtorus component ''\n"


# the scene's rank and variables, then the node, witness subtorus and flat
# the error names, and a subtorus that fixes every variable of the scene
POSITIVE_GENERIC_STABILIZER = (
    # every weight lies on the first axis, so each chart of the root fails
    (2, [("x", [1, 0]), ("y", [1, 0]), ("z", [-1, 0])], "'root/x'", "[[0, 1]]", "['xi', 'u_y', 'u_z']", "0,1"),
    (1, [], "'root'", "[[1]]", "[]", "1"),
    (1, [("x", [0])], "'root'", "[[1]]", "['x']", "1"),
)


@pytest.mark.parametrize(
    "rank, variables, node, subtorus, flat, fixing", POSITIVE_GENERIC_STABILIZER,
    ids=["rank2", "empty", "zero-weight"],
)
def test_a_positive_dimensional_generic_stabilizer_names_the_node(
    rank, variables, node, subtorus, flat, fixing, tmp_path, capsys
):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "torus_rank": rank,
        "variables": [{"name": n, "weight": w} for n, w in variables],
        "gens1": [],
        "gens2": [],
    }))
    message = (
        f"the generic stabilizer at {node} is positive-dimensional: "
        f"witness subtorus {subtorus} fixes its maximal flat {flat}, every ring variable"
    )
    assert_refused(capsys, "reduce", scene, message, timeout=20)
    # a subtorus given on the command line has no node to name, only itself
    named = [[int(c) for c in fixing.split(",")]]
    for command in ("blowup", "kirwan"):
        code, out, err = run(capsys, command, "--scene", str(scene), "--subtorus", fixing)
        assert (code, out, err) == (1, "", f"error: subtorus {named} moves no ring variable\n")


def test_a_dagger_violation_names_the_node(tmp_path, capsys):
    # x is fixed, and f of weight 1 has the constant coefficient 1 on e:
    # the moving degree-2 data does not vanish on the center of the root
    data = {
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [0]}],
        "gens1": [{"name": "e", "weight": [1], "differential": "0"}],
        "gens2": [{"name": "f", "weight": [1], "differential": {"e": "1"}}],
    }
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(data))
    message = "a moving degree-2 differential does not vanish on the center"
    with pytest.raises(errors.DaggerViolation):
        stabilizer_reduce(parse_scene(data))
    code, out, err = run(capsys, "reduce", "--scene", str(scene))
    assert (code, out, err) == (
        1, "", f"error: {message} of witness subtorus [[1]] at 'root', whose maximal flat is ['x']\n"
    )
    # a blow-up of the scene itself has no node to name, only the witness it chose
    for command in ("blowup", "kirwan", "rees"):
        code, out, err = run(capsys, command, "--scene", str(scene))
        assert (code, out, err) == (1, "", f"error: {message} of subtorus [[1]]\n")


def test_a_leaf_without_the_dagger_condition_has_no_e_ranks(tmp_path, capsys):
    # x*y = 1 leaves finite stabilizers, but f of weight 1 has the constant
    # coefficient 1 on g, so the degree-2 data does not vanish on fixed loci
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [
            {"name": "e", "weight": [0], "differential": "x*y - 1"},
            {"name": "g", "weight": [1], "differential": "0"},
        ],
        "gens2": [{"name": "f", "weight": [1], "differential": {"g": "1"}}],
    }))
    code, out, err = run(capsys, "report", "--scene", str(scene))
    assert (code, out, err) == (0, "root: vdim 0, e_ranks -, quasi_smooth False\n", "")
    target = tmp_path / "reduce.json"
    assert run(capsys, "reduce", "--scene", str(scene), "--json", str(target))[0] == 0
    (record,) = json.loads(target.read_text())["data"]["nodes"]
    assert record["leaf_report"] == {"vdim": 0, "e_ranks": None, "quasi_smooth": False}


def test_a_scene_with_no_point_says_so_when_a_command_needs_a_witness(tmp_path, capsys):
    # x*y = 1 and x*y = 0 meet nowhere, so no stratum survives, finite or not
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [
            {"name": "u", "weight": [0], "differential": "x*y - 1"},
            {"name": "w", "weight": [0], "differential": "x*y"},
        ],
        "gens2": [],
    }))
    for command in ("fixed-locus", "rees", "blowup", "kirwan"):
        assert run(capsys, command, "--scene", str(scene)) == (
            1, "", "error: the presentation has no point outside its removed locus\n"
        ), command
    assert run(capsys, "reduce", "--scene", str(scene)) == (0, "root max_dim 0, 0 leaves\nchecks: ok\n", "")


def test_reduce_summary(capsys):
    code, out, _ = run(capsys, "reduce", "--scene", f"{SCENES}/a2-hyperbolic.json")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "root max_dim 1, 2 leaves"
    assert lines[1] == "checks: ok"
    assert lines[2:] == ["  root/x: excluded (u_y)", "  root/y: excluded (u_x)"]


def test_report_lists_leaf_data(capsys):
    code, out, _ = run(capsys, "report", "--scene", f"{SCENES}/darboux-x2y2.json")
    assert code == 0
    assert out.splitlines() == [
        "root/x: vdim 0, e_ranks (1,1), quasi_smooth False",
        "root/y: vdim 0, e_ranks (1,1), quasi_smooth False",
    ]


@pytest.mark.parametrize("name", ["seed", "degree-cap", "depth-fuse"])
@pytest.mark.parametrize("command", ["reduce", "report"])
def test_retired_flags_are_refused(command, name, capsys):
    # the reduction takes no seed, degree bound or depth bound, so the
    # flags that once set them are unknown flags like any other
    code, out, err = run(capsys, command, "--scene", f"{SCENES}/xy.json", f"--{name}", "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --{name} 1" in err


@pytest.mark.parametrize(
    "options",
    [{}, {"order": "lex"}, {"seed": 1}, {"degree_cap": 1}, {"depth_fuse": 1}],
    ids=["empty", "order", "seed", "degree_cap", "depth_fuse"],
)
def test_retired_scene_options_are_refused(options, tmp_path, capsys):
    # a scene is its presentation alone: the print order is the --order
    # flag's, and the reduction takes no seed, degree bound or depth bound
    data = json.loads(Path(f"{SCENES}/a2-hyperbolic.json").read_text())
    data["options"] = options
    with pytest.raises(errors.SchemaError, match="^scene has an unknown field 'options'$"):
        parse_scene(data)
    scene = tmp_path / "options.json"
    scene.write_text(json.dumps(data))
    refused = (1, "", "error: scene has an unknown field 'options'\n")
    assert run(capsys, "reduce", "--scene", str(scene)) == refused


def test_scene_depth_fuse_option_and_flag_override(tmp_path, capsys):
    # the retired setting is refused from the scene, and the flag that once
    # overrode it is refused too, whatever the value
    data = json.loads(Path(f"{SCENES}/a2-hyperbolic.json").read_text())
    scene = tmp_path / "fused.json"
    for depth in (0, -1, "deep"):
        data["options"] = {"depth_fuse": depth}
        scene.write_text(json.dumps(data))
        refused = (1, "", "error: scene has an unknown field 'options'\n")
        assert run(capsys, "reduce", "--scene", str(scene)) == refused
        code, out, err = run(capsys, "reduce", "--scene", str(scene), "--depth-fuse", "8")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --depth-fuse 8" in err


@pytest.mark.parametrize(
    "key, text",
    [
        ("torus_rank", '{"torus_rank": 1, "torus_rank": 1, "variables": [], "gens1": [], "gens2": []}'),
        ("w", '{"torus_rank": 1, "variables": [{"name": "x", "weight": [1]}],'
              ' "gens1": [{"name": "w", "weight": [1], "differential": "x"}],'
              ' "gens2": [{"name": "e", "weight": [1], "differential": {"w": "1", "w": "0"}}]}'),
    ],
    ids=["torus_rank", "differential"],
)
def test_duplicate_json_keys_are_rejected(key, text, tmp_path, capsys):
    # json.loads alone keeps the last value, and both scenes would validate
    scene = tmp_path / "twice.json"
    scene.write_text(text)
    for command in ("validate", "reduce"):
        code, out, err = run(capsys, command, "--scene", str(scene))
        assert (code, out) == (1, "")
        assert err.startswith("error:")
        assert f"repeats the key {key!r}" in err


def test_variable_names_outside_the_grammar_are_rejected(tmp_path, capsys):
    # the grammar cannot parse x-1 back, so no chart may print u_x-1
    scene = tmp_path / "dash.json"
    scene.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x-1", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [],
        "gens2": [],
    }))
    code, out, err = run(capsys, "reduce", "--scene", str(scene))
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "variables[0].name must be a name matching" in err


ERROR_CLASSES = sorted(
    (
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.StabredError)
        and obj not in (errors.StabredError, errors.DomainError, errors.InternalError)
    ),
    key=lambda cls: cls.__name__,
)


def test_error_taxonomy_is_complete():
    assert len(ERROR_CLASSES) == 9


@pytest.mark.parametrize("error_class", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_is_domain_or_internal(error_class, monkeypatch, capsys):
    domain = issubclass(error_class, errors.DomainError)
    assert domain != issubclass(error_class, errors.InternalError)

    def refuse(path):
        # bypass __init__: some classes take structured arguments
        raise error_class.__new__(error_class)

    monkeypatch.setattr(cli, "read_scene_bytes", refuse)
    code, _, err = run(capsys, "pi0", "--scene", f"{SCENES}/xy.json")
    assert code == (1 if domain else 3)
    assert err.startswith("error:" if domain else "internal error:")


def test_json_report_is_deterministic(tmp_path, capsys):
    target_a = tmp_path / "a.json"
    target_b = tmp_path / "b.json"
    for target in (target_a, target_b):
        code, _, _ = run(
            capsys, "reduce", "--scene", f"{SCENES}/darboux-x2y2.json",
            "--json", str(target),
        )
        assert code == 0
    assert target_a.read_bytes() == target_b.read_bytes()
    doc = json.loads(target_a.read_text())
    assert doc["version"] == "0.1.0"
    assert doc["command"] == "reduce"
    assert len(doc["input_digest"]) == 64
    assert doc["data"]["summary"]["leaf_count"] == 2


def test_json_written_even_for_validation_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "torus_rank": 1,
        "variables": [{"name": "x", "weight": [1]}, {"name": "y", "weight": [-1]}],
        "gens1": [{"name": "w", "weight": [5], "differential": "x*y"}],
        "gens2": [],
    }))
    target = tmp_path / "report.json"
    code, _, _ = run(capsys, "validate", "--scene", str(bad), "--json", str(target))
    assert code == 1
    doc = json.loads(target.read_text())
    assert doc["data"]["ok"] is False
    assert doc["input_digest"] == hashlib.sha256(bad.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["validate", "reduce"])
def test_an_empty_json_path_is_a_domain_failure(command, capsys):
    code, out, err = run(capsys, command, "--scene", f"{SCENES}/xy.json", "--json", "")
    assert code == 1
    assert out != ""
    assert err.startswith("error: [Errno 2]")


def test_no_invariant_of_the_package_is_a_bare_assert():
    # ``python -O`` strips assert statements, so a breach they guard would
    # exit 0; every invariant raises InternalError, exit 3, instead
    found = []
    for path in sorted((ROOT / "src" / "stabred").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_a_failed_invariant_check_exits_three_after_writing_the_report(tmp_path, monkeypatch, capsys):
    from stabred import report

    monkeypatch.setattr(report, "crosscheck_truncation", lambda chart, parent: False)
    target = tmp_path / "reduce.json"
    code, out, err = run(capsys, "reduce", "--scene", f"{SCENES}/a2-hyperbolic.json", "--json", str(target))
    assert code == 3
    assert out.splitlines()[1] == "checks: FAILED (crosscheck)"
    assert err == ""
    checks = json.loads(target.read_text())["data"]["invariant_checks"]
    assert checks == {"crosscheck": False, "strict_decrease": True, "validation": True}


def test_a_chart_made_invalid_fails_the_validation_check(tmp_path, monkeypatch, capsys):
    # every chart's first degree-1 generator gets a weight its differential
    # does not have; the report checks each node's own presentation, so the
    # verdict kept by the valid chart it was copied from does not carry over
    from stabred import reduce

    charts = reduce.kirwan_charts

    def shifted(x, *args, **kwargs):
        out = []
        for chart in charts(x, *args, **kwargs):
            assert cdga.validate_presentation(chart.cdga).ok
            first, *rest = chart.cdga.gens1
            moved = first._replace(weight=tuple(w + 1 for w in first.weight))
            out.append(chart._replace(cdga=chart.cdga._replace(gens1=(moved, *rest))))
        return tuple(out)

    monkeypatch.setattr(reduce, "kirwan_charts", shifted)
    target = tmp_path / "reduce.json"
    code, out, err = run(capsys, "reduce", "--scene", f"{SCENES}/xy2-x2y.json", "--json", str(target))
    assert (code, err) == (3, "")
    assert out.splitlines()[1] == "checks: FAILED (validation)"
    assert json.loads(target.read_text())["data"]["invariant_checks"]["validation"] is False


def test_a_failed_rendering_leaves_an_existing_json_file_as_it_was(tmp_path, monkeypatch, capsys):
    from stabred import report

    def broken(doc):
        raise errors.InternalError("rendering failed")

    target = tmp_path / "reduce.json"
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(report, "canonical_json", broken)
    code, _, err = run(capsys, "reduce", "--scene", f"{SCENES}/xy.json", "--json", str(target))
    assert (code, err) == (3, "internal error: rendering failed\n")
    assert target.read_bytes() == b"old bytes\n"


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys):
    # each call of a row prints and writes what the same call prints and
    # writes in a process of its own
    assert build_parser() is build_parser()

    def calls(directory):
        directory.mkdir()
        return (
            ["reduce", "--order", "lex", "--scene", f"{SCENES}/darboux-x2y2.json", "--json", str(directory / "a.json")],
            ["reduce", "--chart", "x", "--scene", f"{SCENES}/xy.json"],
            ["reduce", "--scene", f"{SCENES}/a2-hyperbolic.json", "--json", str(directory / "b.json")],
        )

    in_row = [run(capsys, *argv) for argv in calls(tmp_path / "row")]
    assert [code for code, _, _ in in_row] == [0, 2, 0]
    env = {**os.environ, "PYTHONPATH": "src"}
    for argv, expected in zip(calls(tmp_path / "alone"), in_row):
        done = subprocess.run(
            [sys.executable, "-m", "stabred.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == expected
    for name in ("a.json", "b.json"):
        assert (tmp_path / "row" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_runs_without_site_packages(command):
    # -S leaves site-packages off the path, so only the standard library
    # and the package under src can be imported
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "-S", "-m", "stabred.cli", command, "--scene", f"{SCENES}/xy2-x2y.json"]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # records are NamedTuples, so start-up generates and compiles no methods;
    # importing dataclasses would also import inspect
    env = {**os.environ, "PYTHONPATH": "src"}
    code = "import sys, stabred.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "[]\n")


def test_no_ansi_codes_when_not_a_tty(capsys):
    _, out, _ = run(capsys, "reduce", "--scene", f"{SCENES}/a2-hyperbolic.json")
    assert "\x1b[" not in out


def test_order_flag_is_accepted(capsys):
    code, _, _ = run(
        capsys, "pi0", "--scene", f"{SCENES}/xy2-x2y.json", "--order", "lex"
    )
    assert code == 0


def test_rees_output(capsys):
    code, out, _ = run(capsys, "rees", "--scene", f"{SCENES}/xy2-x2y.json")
    assert code == 0
    assert "homogeneous coordinates: t_inv, v_x, v_y" in out
    assert "(0,0)  t_inv*v_x - x" in out
    assert "(0,1)  x*y*v_x" in out


def readme_transcripts():
    """Each ``$ stabred ...`` line of the README's fenced blocks, with the
    lines printed under it up to a blank line or the next command."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    transcripts = []
    for block in readme.split("```")[1::2]:
        for chunk in re.split(r"\n(?=\$ )|\n\s*\n", block):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ stabred "):
                transcripts.append((lines[0][2:], lines[1:]))
    return transcripts


TRANSCRIPTS = readme_transcripts()


def test_readme_has_the_quick_start_and_rees_transcripts():
    commands = [command for command, _ in TRANSCRIPTS]
    assert commands == [
        "stabred blowup --scene scenes/xy2-x2y.json",
        "stabred reduce --scene scenes/a2-hyperbolic.json",
        "stabred report --scene scenes/darboux-x2y2.json",
        "stabred rees --scene scenes/xy2-x2y.json",
    ]


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[command for command, _ in TRANSCRIPTS])
def test_readme_transcript(command, expected, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, *shlex.split(command)[1:])
    assert (code, err) == (0, "")
    assert out.splitlines() == expected


def test_readme_lists_every_flag_of_every_command():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    shared = readme.split("Shared flags:", 1)[1].split("\n\n", 2)[1]
    documented = sorted(re.findall(r"^\* `(--[a-z-]+)", shared, re.M))
    actions = build_parser()._actions
    (command,) = (a for a in actions if a.dest == "command")
    assert tuple(command.choices) == cli.COMMANDS
    flags = sorted(flag for action in actions for flag in action.option_strings if flag.startswith("--"))
    assert documented == [f for f in flags if f != "--help"]
    for flag, takers in cli.FLAG_COMMANDS.items():
        (bullet,) = re.findall(rf"^\* `{flag}[^`]*` \(([^)]*)\)", shared, re.M)
        assert tuple(re.findall(r"`([a-z0-9-]+)`", bullet)) == takers, flag
