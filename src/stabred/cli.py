"""Command-line surface.

Every command reads one scene file, prints a human-readable summary to
stdout, and optionally writes the canonical JSON document.  Exit codes:
0 success, 1 bad input or a domain-level refusal, 2 usage error, 3 an
internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import report as rpt
from .blowup import _charts, blowup_charts, rees_presentation
from .cdga import GradedCdga, SubtorusBasis, ValidationReport, classical_truncation, fixed_locus
from .errors import DomainError, InternalError, InvalidPresentation, SchemaError
from .poly import GREVLEX, ORDERS
from .reduce import stabilizer_reduce
from .scene import parse_scene_bytes, read_scene_bytes
from .torus import saturation_ideal, stabilizer_stratification, witness_subtori

COMMANDS = ("validate", "pi0", "fixed-locus", "rees", "blowup", "kirwan", "reduce", "report")
# the commands that read each of these flags; any other command refuses it
FLAG_COMMANDS = {
    "--subtorus": ("fixed-locus", "rees", "blowup", "kirwan"),
    "--chart": ("blowup", "kirwan"),
    "--order": ("pi0", "fixed-locus", "rees", "blowup", "kirwan", "reduce"),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    ``main`` call in the process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="stabred", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--scene", required=True, help="path to the scene JSON file")
    parser.add_argument("--subtorus", help="basis vectors, e.g. '1,0;0,-1' (default: a maximal witness)")
    parser.add_argument("--order", choices=tuple(ORDERS), help="monomial order for printing (default: grevlex)")
    parser.add_argument("--chart", help="restrict chart output to this chart name")
    parser.add_argument("--json", dest="json_path", help="write the canonical JSON document here")
    return parser


def _styled(text: str, good: bool) -> str:
    if os.environ.get("NO_COLOR") is not None or not sys.stdout.isatty():
        return text
    code = "32" if good else "31"
    return f"\x1b[{code}m{text}\x1b[0m"


def _parse_subtorus(text: str, rank: int) -> SubtorusBasis:
    vectors = []
    for part in text.split(";"):
        entries = part.split(",")
        try:
            vectors.append(tuple(int(e) for e in entries))
        except ValueError as err:
            raise SchemaError(f"bad subtorus component {part!r}") from err
    try:
        return SubtorusBasis(rank, tuple(vectors))
    except ValueError as err:
        raise SchemaError(str(err)) from err


def _resolve_subtorus(x: GradedCdga, args) -> SubtorusBasis:
    if args.subtorus is not None:
        return _parse_subtorus(args.subtorus, x.torus_rank)
    strata = stabilizer_stratification(x)
    return witness_subtori(strata)[0]


def _emit(args, command: str, digest: str, data: dict, lines: list[str]) -> None:
    for line in lines:
        print(line)
    if args.json_path is not None:
        # rendered before the file is opened, so a failed rendering leaves
        # an existing file as it was
        text = rpt.canonical_json(rpt.document(command, digest, data))
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _chart_lines(charts, order) -> list[str]:
    lines = []
    for c in charts:
        gens = classical_truncation(c.cdga).groebner(order)
        shown = ", ".join(g.to_string(order) for g in gens) or "0"
        removed = ", ".join(rpt.excluded_document(c.cdga.excluded, order))
        lines.append(f"{c.name}: center {c.center_var}, truncation ({shown})" + (
            f", excluded ({removed})" if removed else ""))
    return lines


def _select_charts(charts, wanted: str | None):
    if wanted is None:
        return charts
    picked = tuple(c for c in charts if c.name == wanted)
    if not picked:
        known = ", ".join(c.name for c in charts)
        raise SchemaError(f"no chart named {wanted!r}; charts: {known}")
    return picked


def run_command(args) -> int:
    raw = read_scene_bytes(args.scene)
    digest = rpt.input_digest(raw)
    if args.command == "validate":
        try:
            parse_scene_bytes(raw, args.scene)
            checked = ValidationReport()
        except InvalidPresentation as err:
            checked = err.report
        lines = [_styled("ok", True)] if checked.ok else [_styled("invalid", False)]
        lines += [f"  {v.kind} {v.subject}: {v.message}" for v in checked.violations]
        _emit(args, "validate", digest, rpt.validation_document(checked), lines)
        return 0 if checked.ok else 1

    x = parse_scene_bytes(raw, args.scene)
    order = ORDERS[args.order] if args.order else GREVLEX

    if args.command == "pi0":
        data = rpt.pi0_document(x, order)
        lines = [f"pi0 generators ({len(data['generators'])}):"]
        lines += [f"  {g}" for g in data["generators"]]
        _emit(args, "pi0", digest, data, lines)
        return 0

    if args.command == "fixed-locus":
        h = _resolve_subtorus(x, args)
        fixed = fixed_locus(x, h)
        data = {"subtorus": rpt.subtorus_document(h), "cdga": rpt.cdga_document(fixed, order)}
        ring = ", ".join(v.name for v in fixed.ring_vars) or "(empty)"
        lines = [
            f"subtorus: {rpt.subtorus_document(h)}",
            f"ring: {ring}",
            f"gens1: {', '.join(g.name for g in fixed.gens1) or '(none)'}",
            f"gens2: {', '.join(g.name for g in fixed.gens2) or '(none)'}",
        ]
        _emit(args, "fixed-locus", digest, data, lines)
        return 0

    if args.command == "rees":
        h = _resolve_subtorus(x, args)
        rp = rees_presentation(x, h)
        data = rpt.rees_document(rp, order)
        lines = [f"homogeneous coordinates: {', '.join(v.name for v in rp.homog_vars)}"]
        for r in rp.relations:
            lines.append(
                f"  ({r.homological_degree},{r.homogeneous_degree})  {r.element.to_string(order)}"
            )
        _emit(args, "rees", digest, data, lines)
        return 0

    if args.command == "blowup":
        h = _resolve_subtorus(x, args)
        charts = _select_charts(blowup_charts(x, h), args.chart)
        _emit(args, "blowup", digest, rpt.charts_document(charts, order), _chart_lines(charts, order))
        return 0

    if args.command == "kirwan":
        h = _resolve_subtorus(x, args)
        unstable = saturation_ideal(x, h)
        charts = _select_charts(_charts(x, h, unstable), args.chart)
        data = rpt.charts_document(charts, order)
        data["saturation"] = [g.to_string(order) for g in unstable.groebner(order)]
        _emit(args, "kirwan", digest, data, _chart_lines(charts, order))
        return 0

    tree = stabilizer_reduce(x)

    if args.command == "reduce":
        data = rpt.reduction_document(tree, order)
        checks = data["invariant_checks"]
        ok = all(checks.values())
        check_line = "checks: " + _styled("ok" if ok else "FAILED", ok)
        if not ok:
            check_line += " (" + ", ".join(k for k, v in checks.items() if not v) + ")"
        lines = [
            f"root max_dim {data['summary']['root_max_dim']}, "
            f"{data['summary']['leaf_count']} leaves",
            check_line,
        ]
        for record in data["nodes"]:
            if record["leaf_report"] is None:
                continue
            removed = ", ".join(record["cdga"]["excluded"]) or "-"
            lines.append(f"  {record['id']}: excluded ({removed})")
        _emit(args, "reduce", digest, data, lines)
        return 0 if ok else 3

    if args.command == "report":
        data = rpt.leaves_document(tree)
        lines = []
        for leaf in data["leaves"]:
            ranks = "-" if leaf["e_ranks"] is None else f"({leaf['e_ranks'][0]},{leaf['e_ranks'][1]})"
            lines.append(
                f"{leaf['id']}: vdim {leaf['vdim']}, e_ranks {ranks}, "
                f"quasi_smooth {leaf['quasi_smooth']}"
            )
        _emit(args, "report", digest, data, lines)
        return 0

    raise InternalError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for flag, takers in FLAG_COMMANDS.items():
            if getattr(args, flag[2:]) is not None and args.command not in takers:
                parser.error(f"{flag} does not apply to the {args.command} command")
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return run_command(args)
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
