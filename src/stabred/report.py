"""Deterministic JSON documents for every command.

Documents are plain dicts rendered with sorted keys; polynomial payloads
are canonical strings under the declared order, so mathematically equal
inputs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json

from .blowup import Chart, ReesPresentation, crosscheck_truncation
from .cdga import GradedCdga, ValidationReport, classical_truncation, validate_presentation
from .ideal import Ideal, monomial_basis
from .poly import GREVLEX, MonomialOrder
from .reduce import ObstructionReport, ReductionNode, iter_leaves
from .torus import StabilizerReport

TOOL_VERSION = "0.1.0"


def input_digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document(command: str, digest: str, data: dict) -> dict:
    return {
        "version": TOOL_VERSION,
        "command": command,
        "input_digest": digest,
        "data": data,
    }


def excluded_document(excluded: Ideal, order: MonomialOrder = GREVLEX) -> list[str]:
    """The removed locus V(excluded) as the list its documents have always
    shown: [] when nothing is removed (the unit ideal), ["1"] when every
    point is (the zero ideal), and the reduced basis otherwise.  Every
    removed locus the pipeline builds is generated by monomials, and its
    basis in any order is read off the generators."""
    if excluded.is_zero():
        return ["1"]
    if all(len(g.terms) == 1 for g in excluded.generators):
        basis = monomial_basis(excluded, order)
    else:
        basis = excluded.groebner(order)
    if basis[0].is_constant():
        return []
    return [g.to_string(order) for g in basis]


def cdga_document(x: GradedCdga, order: MonomialOrder = GREVLEX) -> dict:
    return {
        "torus_rank": x.torus_rank,
        "variables": [{"name": v.name, "weight": list(v.weight)} for v in x.ring_vars],
        "gens1": [
            {"name": g.name, "weight": list(g.weight), "differential": g.differential.to_string(order)}
            for g in x.gens1
        ],
        "gens2": [
            {
                "name": g.name,
                "weight": list(g.weight),
                "differential": {t: c.to_string(order) for t, c in g.differential},
            }
            for g in x.gens2
        ],
        "excluded": excluded_document(x.excluded, order),
    }


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
        "strata": [
            {"support": list(s.support), "stabilizer_dim": s.stabilizer_dim, "nonempty": s.nonempty}
            for s in report.strata
        ],
    }


def rees_document(rp: ReesPresentation, order: MonomialOrder = GREVLEX) -> dict:
    return {
        "subtorus": subtorus_document(rp.subtorus),
        "t_inv": rp.t_inv,
        "ring": list(rp.ring),
        "homog_vars": [
            {
                "name": v.name,
                "weight": list(v.weight),
                "homogeneous_degree": v.homogeneous_degree,
                "source": v.source,
            }
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
    return {
        "name": chart.name,
        "center": chart.center_var,
        "parent": chart.parent_id,
        "exceptional": {"name": chart.exceptional.name, "weight": list(chart.exceptional.weight)},
        "slopes": {m: u for m, u in chart.slopes},
        "phi": {v: p.to_string(order) for v, p in chart.phi},
        "subtorus": subtorus_document(chart.subtorus),
        "fully_unstable": chart.fully_unstable,
        "cdga": cdga_document(chart.cdga, order),
    }


def charts_document(charts, order: MonomialOrder = GREVLEX) -> dict:
    return {"charts": [chart_document(c, order) for c in charts]}


def obstruction_document(report: ObstructionReport) -> dict:
    return {
        "vdim": report.vdim,
        "e_ranks": list(report.e_ranks) if report.e_ranks is not None else None,
        "quasi_smooth": report.quasi_smooth,
        "dagger": report.dagger,
        "dm": report.dm,
        "fully_unstable": report.fully_unstable,
    }


def reduction_document(root: ReductionNode, order: MonomialOrder = GREVLEX) -> dict:
    """Flat node records in preorder plus tree-wide invariant results.

    The invariant checks recompute validity, the classical cross-check
    along every edge, and the strict decrease of stabilizer dimension;
    they are emitted with the document so a regression is visible in the
    output itself.
    """
    nodes = []
    checks = {"validation": True, "crosscheck": True, "strict_decrease": True}
    leaves = {"total": 0, "fully_unstable": 0}

    def walk(node: ReductionNode):
        checks["validation"] &= validate_presentation(node.cdga).ok
        record = {
            "id": node.id,
            "ring": [{"name": v.name, "weight": list(v.weight)} for v in node.cdga.ring_vars],
            "truncation": [
                g.to_string(order) for g in classical_truncation(node.cdga).groebner(order)
            ],
            "excluded": excluded_document(node.cdga.excluded, order),
            "stabilizer": stabilizer_document(node.stabilizer),
            "children": [
                {"node": child.id, "chart": chart_document(chart, order)}
                for chart, child in node.children
            ],
            "leaf_report": obstruction_document(node.leaf_report) if node.leaf_report else None,
        }
        nodes.append(record)
        if node.leaf_report is not None:
            leaves["total"] += 1
            if node.leaf_report.fully_unstable:
                leaves["fully_unstable"] += 1
        for chart, child in node.children:
            checks["crosscheck"] &= crosscheck_truncation(chart, node.cdga)
            checks["strict_decrease"] &= child.stabilizer.max_dim < node.stabilizer.max_dim
            walk(child)

    walk(root)
    return {
        "nodes": nodes,
        "invariant_checks": checks,
        "summary": {
            "leaf_count": leaves["total"],
            "fully_unstable_leaves": leaves["fully_unstable"],
            "root_max_dim": root.stabilizer.max_dim,
        },
    }


def leaves_document(root: ReductionNode) -> dict:
    return {
        "leaves": [
            {"id": node.id, **obstruction_document(node.leaf_report)} for node in iter_leaves(root)
        ]
    }
