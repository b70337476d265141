import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from stabred import cdga, cli, errors
from stabred.cli import build_parser, main

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
    assert out.count("[fully unstable]") == 2


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


def test_reduce_summary(capsys):
    code, out, _ = run(capsys, "reduce", "--scene", f"{SCENES}/a2-hyperbolic.json")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "root max_dim 1, 2 leaves (0 fully unstable)"
    assert lines[1] == "checks: ok"
    assert "root/x: excluded (u_y)  [dm]" in out
    assert "root/y: excluded (u_x)  [dm]" in out


def test_report_lists_leaf_data(capsys):
    code, out, _ = run(capsys, "report", "--scene", f"{SCENES}/darboux-x2y2.json")
    assert code == 0
    for line in out.splitlines():
        assert "vdim 0" in line
        assert "e_ranks (1,1)" in line
        assert "dagger True" in line


@pytest.mark.parametrize("name", ["seed", "degree-cap", "depth-fuse"])
@pytest.mark.parametrize("command", ["reduce", "report"])
def test_retired_flags_are_refused(command, name, capsys):
    # the reduction takes no seed, degree bound or depth bound, so the
    # flags that once set them are unknown flags like any other
    code, out, err = run(capsys, command, "--scene", f"{SCENES}/xy.json", f"--{name}", "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --{name} 1" in err


def test_scene_depth_fuse_option_and_flag_override(tmp_path, capsys):
    # the retired setting is refused from the scene, and the flag that once
    # overrode it is refused too, whatever the value
    data = json.loads(Path(f"{SCENES}/a2-hyperbolic.json").read_text())
    scene = tmp_path / "fused.json"
    for depth in (0, -1, "deep"):
        data["options"] = {"depth_fuse": depth}
        scene.write_text(json.dumps(data))
        refused = (1, "", "error: options has an unknown field 'depth_fuse'\n")
        assert run(capsys, "reduce", "--scene", str(scene)) == refused
        code, out, err = run(capsys, "reduce", "--scene", str(scene), "--depth-fuse", "8")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --depth-fuse 8" in err


@pytest.mark.parametrize("name", ["seed", "degree_cap", "depth_fuse"])
def test_retired_scene_options_are_refused(name, tmp_path, capsys):
    data = json.loads(Path(f"{SCENES}/a2-hyperbolic.json").read_text())
    data["options"] = {name: 1}
    scene = tmp_path / "retired.json"
    scene.write_text(json.dumps(data))
    code, out, err = run(capsys, "reduce", "--scene", str(scene))
    assert (code, out) == (1, "")
    assert err == f"error: options has an unknown field '{name}'\n"


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
    assert len(ERROR_CLASSES) == 10


@pytest.mark.parametrize("error_class", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_each_error_is_domain_or_internal(error_class, monkeypatch, capsys):
    domain = issubclass(error_class, errors.DomainError)
    assert domain != issubclass(error_class, errors.InternalError)

    def refuse(path):
        # bypass __init__: some classes take structured arguments
        raise error_class.__new__(error_class)

    monkeypatch.setattr(cli, "read_scene", refuse)
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


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_runs_without_site_packages(command):
    # -S leaves site-packages off the path, so only the standard library
    # and the package under src can be imported
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "-S", "-m", "stabred.cli", command, "--scene", f"{SCENES}/xy2-x2y.json"]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout


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
