"""Iterated Kirwan blow-up until every stabilizer is finite.

Each round finds the locus of maximal stabilizer dimension, blows up its
fixed locus for every witnessing subtorus, removes the unstable points,
and recurses into the charts.  The maximal stabilizer dimension strictly
decreases along every edge: each chart is stratified before the recursion
descends into it, and an edge that fails to lower it is refused.  So no
path is longer than the root's ``max_dim``, which is at most the torus
rank, and the recursion ends by construction.  Leaves get
obstruction-theory reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import Chart, dagger_check, kirwan_charts
from .cdga import GradedCdga, SubtorusBasis, require_valid, tangent_complex_ranks
from .errors import StrictDecreaseViolation
from .groebner import exact_divide
from .poly import Polynomial
from .torus import (
    StabilizerReport,
    saturation_ideal,
    stabilizer_stratification,
    witness_subtori,
)


@dataclass(frozen=True)
class ObstructionReport:
    vdim: int
    e_ranks: tuple[int, int] | None
    quasi_smooth: bool
    dagger: bool
    dm: bool
    fully_unstable: bool


def _delta2_generic_rank(x: GradedCdga) -> int:
    """Rank of the degree-2 coefficient matrix over the function field.

    Fraction-free (Bareiss) elimination on the polynomial entries: after
    each pivot every remaining entry is a minor of the matrix, so the
    division by the previous pivot is exact and no entry ever leaves the
    polynomial ring.
    """
    zero = Polynomial.zero(x.var_names)
    matrix = [
        [g.coefficient(w.name) or zero for w in x.gens1]
        for g in x.gens2
    ]
    previous = Polynomial.constant(x.var_names, 1)
    rank = 0
    for col in range(len(x.gens1)):
        pivot = next((r for r in range(rank, len(matrix)) if not matrix[r][col].is_zero()), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank]
        for row in matrix[rank + 1 :]:
            for c in range(col + 1, len(head)):
                row[c] = exact_divide(head[col] * row[c] - row[col] * head[c], previous)
            row[col] = zero
        previous = head[col]
        rank += 1
    return rank


def obstruction_report(x: GradedCdga) -> ObstructionReport:
    """Obstruction-theory summary of a finite-stabilizer presentation.

    The two ranks describe the dual two-term complex: ambient tangent
    directions minus the torus, and degree-1 generators minus the generic
    rank of the degree-2 coefficient matrix.  They are only meaningful
    when the degree-2 data vanishes on fixed loci and some semistable
    point exists, so they are omitted otherwise.  ``dm`` is always true: the
    report describes leaves of the reduction, whose stabilizers are finite.
    """
    fully_unstable = x.excluded.is_zero()
    dagger = dagger_check(x, SubtorusBasis.full(x.torus_rank))
    ranks = tangent_complex_ranks(x)
    e_ranks = None
    if dagger and not fully_unstable:
        e_ranks = (ranks.ring_rank - x.torus_rank, ranks.gens1_rank - _delta2_generic_rank(x))
    return ObstructionReport(
        vdim=ranks.vdim,
        e_ranks=e_ranks,
        quasi_smooth=not x.gens2,
        dagger=dagger,
        dm=True,
        fully_unstable=fully_unstable,
    )


@dataclass(frozen=True)
class ReductionNode:
    id: str
    cdga: GradedCdga
    stabilizer: StabilizerReport
    children: tuple[tuple[Chart, "ReductionNode"], ...]
    leaf_report: ObstructionReport | None


def stabilizer_reduce(x: GradedCdga) -> ReductionNode:
    """Run the full reduction and return the tree of blow-up rounds."""
    require_valid(x)
    return _reduce(x, "root", 0, stabilizer_stratification(x))


def _reduce(x: GradedCdga, node_id: str, depth: int, report: StabilizerReport) -> ReductionNode:
    """The subtree at ``x``, whose stratification is ``report``; ``depth`` is
    the node's distance from the root, which ``bench/tracer.py`` reads.

    Each chart is stratified here, before the recursion into it, so an edge
    that fails to lower ``max_dim`` is refused before anything below it is
    built, and each node is stratified exactly once."""
    if report.max_dim == 0:
        leaf = obstruction_report(x)
        return ReductionNode(node_id, x, report, (), leaf)

    parent_dagger = dagger_check(x, SubtorusBasis.full(x.torus_rank))
    subtori = witness_subtori(x, report)
    multi = len(subtori) > 1
    children = []
    for i, h in enumerate(subtori):
        j = saturation_ideal(x, h)
        for chart in kirwan_charts(x, h, j, parent_id=node_id):
            where = (
                f"subtorus {[list(v) for v in h.vectors]}, parent maximal flats "
                f"{[list(s) for s in report.maximal_support]}, chart {chart.name}"
            )
            if parent_dagger:
                assert dagger_check(chart.cdga, SubtorusBasis.full(x.torus_rank)), (
                    f"blow-up chart of {node_id!r} lost the degree-2 vanishing property ({where})"
                )
            suffix = f"s{i}.{chart.center_var}" if multi else chart.center_var
            child_id = f"{node_id}/{suffix}"
            child_report = stabilizer_stratification(chart.cdga)
            if child_report.max_dim >= report.max_dim:
                raise StrictDecreaseViolation(
                    f"stabilizer dimension failed to drop from {report.max_dim} "
                    f"at {node_id!r} to {child_report.max_dim} at {child_id!r} ({where})"
                )
            children.append((chart, _reduce(chart.cdga, child_id, depth + 1, child_report)))
    return ReductionNode(node_id, x, report, tuple(children), None)


def iter_leaves(node: ReductionNode):
    if node.leaf_report is not None:
        yield node
    for _, child in node.children:
        yield from iter_leaves(child)


def tree_depth(node: ReductionNode) -> int:
    if not node.children:
        return 0
    return 1 + max(tree_depth(child) for _, child in node.children)
