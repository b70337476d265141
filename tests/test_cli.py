import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from stabred import cli, errors
from stabred.cli import build_parser, main

SCENES = "scenes"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", "--scene", f"{SCENES}/xy.json")
    assert code == 0
    assert out.strip() == "ok"
    assert err == ""


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


def test_pi0_output(capsys):
    code, out, _ = run(capsys, "pi0", "--scene", f"{SCENES}/xy2-x2y.json")
    assert code == 0
    assert out.splitlines() == ["pi0 generators (2):", "  x^2*y", "  x*y^2"]


def test_fixed_locus_output(capsys):
    code, out, _ = run(capsys, "fixed-locus", "--scene", f"{SCENES}/xy.json")
    assert code == 0
    assert "ring: (empty)" in out
    assert "gens1: w" in out


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


def test_seed_flag_is_accepted_and_ignored(tmp_path, capsys):
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    scene = f"{SCENES}/darboux-x2y2.json"
    code, out, _ = run(capsys, "report", "--scene", scene, "--json", str(plain))
    assert code == 0
    code, seeded_out, _ = run(
        capsys, "report", "--scene", scene, "--json", str(seeded), "--seed", "99"
    )
    assert code == 0
    assert seeded_out == out
    assert seeded.read_bytes() == plain.read_bytes()
    assert main(["report", "--scene", scene, "--seed", "x"]) == 2


def test_degree_cap_flag_is_accepted_and_ignored(tmp_path, capsys):
    plain, capped = tmp_path / "plain.json", tmp_path / "capped.json"
    scene = f"{SCENES}/xy.json"
    code, out, _ = run(capsys, "reduce", "--scene", scene, "--json", str(plain))
    assert code == 0
    code, capped_out, _ = run(
        capsys, "reduce", "--scene", scene, "--json", str(capped), "--degree-cap", "1"
    )
    assert code == 0
    assert capped_out == out
    assert capped.read_bytes() == plain.read_bytes()
    assert main(["reduce", "--scene", scene, "--degree-cap", "x"]) == 2


def test_depth_fuse_is_an_internal_error(capsys):
    code, _, err = run(
        capsys, "reduce", "--scene", f"{SCENES}/a2-hyperbolic.json",
        "--depth-fuse", "0",
    )
    assert code == 3
    assert err.startswith("internal error:")


def test_scene_depth_fuse_option_and_flag_override(tmp_path, capsys):
    data = json.loads(open(f"{SCENES}/a2-hyperbolic.json").read())
    data["options"] = {"depth_fuse": 0}
    scene = tmp_path / "fused.json"
    scene.write_text(json.dumps(data))
    code, _, err = run(capsys, "reduce", "--scene", str(scene))
    assert code == 3
    assert "depth fuse (0)" in err
    code, out, _ = run(capsys, "reduce", "--scene", str(scene), "--depth-fuse", "8")
    assert code == 0
    assert out.splitlines()[1] == "checks: ok"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--depth-fuse", "-1", "options.depth_fuse must be at least 0"),
    ],
)
def test_out_of_range_flags_are_domain_errors(flag, value, message, capsys):
    code, out, err = run(capsys, "reduce", "--scene", f"{SCENES}/xy.json", flag, value)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert message in err


ERROR_CLASSES = sorted(
    (
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.StabredError)
        and obj not in (errors.StabredError, errors.DomainError, errors.InternalError)
    ),
    key=lambda cls: cls.__name__,
)


def test_error_taxonomy_is_complete():
    assert len(ERROR_CLASSES) == 11


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


def test_readme_lists_every_flag_of_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    shared = readme.split("Shared flags:", 1)[1].split("\n\n", 2)[1]
    documented = sorted(re.findall(r"^\* `(--[a-z-]+)", shared, re.M))
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(commands.choices) == sorted(cli.COMMANDS)
    for name, parser in commands.choices.items():
        flags = sorted(
            flag for action in parser._actions for flag in action.option_strings if flag.startswith("--")
        )
        assert documented == [f for f in flags if f != "--help"], name
