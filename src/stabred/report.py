"""Deterministic JSON documents for every command.

Documents are plain dicts rendered with sorted keys; polynomial payloads
are canonical strings under the declared order, so mathematically equal
inputs produce byte-identical output.  ``canonical_json`` writes the bytes
``json.dumps(doc, sort_keys=True, indent=2) + "\n"`` would: the stdlib has
no C encoder for ``indent``, so ``json.dumps`` with it runs the
pure-Python one, and a small writer of its own is cheaper.
"""

from __future__ import annotations

import hashlib
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .blowup import Chart, ReesPresentation, crosscheck_truncation
from .cdga import GradedCdga, ValidationReport, classical_truncation, validate_presentation
from .ideal import Ideal
from .poly import GREVLEX, MonomialOrder
from .reduce import ObstructionReport, ReductionNode, iter_leaves, obstruction_report
from .scene import presentation_document, variable_document
from .torus import StabilizerReport


def input_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def canonical_json(doc: dict) -> str:
    """The document as ``json.dumps(doc, sort_keys=True, indent=2)`` prints
    it, plus a newline, byte for byte: keys sorted, two-space indentation,
    ``",\n"`` between items, ``": "`` after a key, ``{}`` and ``[]`` for
    empty containers, and strings escaped to ASCII by the C encoder of
    ``json``.  Values are dicts with ``str`` keys, lists, strings, ints,
    bools and None; any other type, a float or a tuple among them, raises
    TypeError."""
    pieces = []
    _write(doc, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _write(value, newline: str, pieces: list[str]) -> None:
    """Append the pieces of ``value`` written at the indentation that
    ``newline`` ends with."""
    kind = type(value)
    if kind is str:
        pieces.append(_quote(value))
    elif kind is int:
        pieces.append(str(value))
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif value is None:
        pieces.append("null")
    elif kind is dict:
        if not value:
            pieces.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            pieces.append(opener)
            pieces.append(_quote(key))
            pieces.append(": ")
            _write(value[key], inner, pieces)
            opener = "," + inner
        pieces.append(newline + "}")
    elif kind is list:
        if not value:
            pieces.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            pieces.append(opener)
            _write(item, inner, pieces)
            opener = "," + inner
        pieces.append(newline + "]")
    else:
        raise TypeError(f"{kind.__name__} is not a canonical JSON type")


def document(command: str, digest: str, data: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "data": data,
    }


def excluded_document(excluded: Ideal, order: MonomialOrder = GREVLEX) -> list[str]:
    """The removed locus V(excluded) as the list its documents have always
    shown: [] when nothing is removed (the unit ideal), ["1"] when every
    point is (the zero ideal), and the reduced basis otherwise."""
    if excluded.is_zero():
        return ["1"]
    basis = excluded.groebner(order)
    if basis[0].is_constant():
        return []
    return [g.to_string(order) for g in basis]


def cdga_document(x: GradedCdga, order: MonomialOrder = GREVLEX) -> dict:
    return {**presentation_document(x, order), "excluded": excluded_document(x.excluded, order)}


def validation_document(report: ValidationReport) -> dict:
    return {
        "ok": report.ok,
        "violations": [
            {"kind": v.kind, "subject": v.subject, "message": v.message} for v in report.violations
        ],
    }


def pi0_document(x: GradedCdga, order: MonomialOrder = GREVLEX) -> dict:
    gens = classical_truncation(x).groebner(order)
    return {"generators": [g.to_string(order) for g in gens]}


def subtorus_document(subtorus) -> list:
    return [list(v) for v in subtorus.vectors]


def stabilizer_document(report: StabilizerReport) -> dict:
    return {
        "max_dim": report.max_dim,
        "maximal_support": [list(s) for s in report.maximal_support],
    }


def rees_document(rp: ReesPresentation, order: MonomialOrder = GREVLEX) -> dict:
    return {
        "subtorus": subtorus_document(rp.subtorus),
        "t_inv": rp.t_inv,
        "ring": list(rp.ring),
        "homog_vars": [
            {**variable_document(v), "homogeneous_degree": v.homogeneous_degree, "source": v.source}
            for v in rp.homog_vars
        ],
        "relations": [
            {
                "homological_degree": r.homological_degree,
                "homogeneous_degree": r.homogeneous_degree,
                "element": r.element.to_string(order),
            }
            for r in rp.relations
        ],
        "base": cdga_document(rp.base, order),
    }


def chart_document(chart: Chart, order: MonomialOrder = GREVLEX) -> dict:
    """The chart map alone; the chart's presentation is the ``cdga`` of the
    node it leads to, or of the chart itself in ``charts_document``."""
    return {
        "name": chart.name,
        "center": chart.center_var,
        "slopes": {m: u for m, u in chart.slopes},
        "phi": {v: p.to_string(order) for v, p in chart.phi},
        "subtorus": subtorus_document(chart.subtorus),
    }


def charts_document(charts, order: MonomialOrder = GREVLEX) -> dict:
    """Charts of a blow-up of the scene itself, each map with its presentation."""
    return {
        "charts": [
            {**chart_document(c, order), "cdga": cdga_document(c.cdga, order)} for c in charts
        ]
    }


def obstruction_document(report: ObstructionReport) -> dict:
    return {
        "vdim": report.vdim,
        "e_ranks": list(report.e_ranks) if report.e_ranks is not None else None,
        "quasi_smooth": report.quasi_smooth,
    }


def reduction_document(root: ReductionNode, order: MonomialOrder = GREVLEX) -> dict:
    """Flat node records in preorder plus tree-wide invariant results.

    Each record holds its node's presentation once, as ``cdga``; a child
    entry holds the chart map that leads to the child, whose own record
    holds the chart's presentation.

    Every reported leaf's ``leaf_report`` is the root's obstruction report,
    computed once (see ``obstruction_report``); other records hold null.

    The invariant checks take the validation report of each node's own
    presentation, recompute the classical cross-check along every edge,
    and the strict decrease of stabilizer dimension; they are emitted with
    the document so a regression is visible in the output itself.
    """
    leaves = {node.id for node in iter_leaves(root)}
    shared = obstruction_report(root.cdga) if leaves else None
    nodes = []
    checks = {"validation": True, "crosscheck": True, "strict_decrease": True}

    def walk(node: ReductionNode):
        checks["validation"] &= validate_presentation(node.cdga).ok
        record = {
            "id": node.id,
            "cdga": cdga_document(node.cdga, order),
            "truncation": [
                g.to_string(order) for g in classical_truncation(node.cdga).groebner(order)
            ],
            "stabilizer": stabilizer_document(node.stabilizer),
            "children": [
                {"node": child.id, "chart": chart_document(chart, order)}
                for chart, child in node.children
            ],
            "leaf_report": obstruction_document(shared) if node.id in leaves else None,
        }
        nodes.append(record)
        for chart, child in node.children:
            checks["crosscheck"] &= crosscheck_truncation(chart, node.cdga)
            checks["strict_decrease"] &= child.stabilizer.max_dim < node.stabilizer.max_dim
            walk(child)

    walk(root)
    return {
        "nodes": nodes,
        "invariant_checks": checks,
        "summary": {
            "leaf_count": len(leaves),
            "root_max_dim": root.stabilizer.max_dim,
        },
    }


def leaves_document(root: ReductionNode) -> dict:
    """One record per reported leaf, each with the root's obstruction report."""
    leaves = list(iter_leaves(root))
    shared = obstruction_document(obstruction_report(root.cdga)) if leaves else None
    return {"leaves": [{"id": node.id, **shared} for node in leaves]}
