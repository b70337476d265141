"""Iterated Kirwan blow-up until every stabilizer is finite.

Each round finds the locus of maximal stabilizer dimension, blows up its
fixed locus for every witnessing subtorus, removes the unstable points,
and recurses into the charts.  The maximal stabilizer dimension strictly
decreases along every edge; the driver asserts this and carries a depth
fuse so a violation surfaces as an error instead of a hang.  Leaves get
obstruction-theory reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blowup import Chart, dagger_check, kirwan_charts
from .cdga import GradedCdga, SubtorusBasis, require_valid, tangent_complex_ranks
from .errors import DepthExceeded, StrictDecreaseViolation
from .groebner import exact_divide
from .poly import Polynomial
from .scene import SceneOptions
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


def stabilizer_reduce(x: GradedCdga, options: SceneOptions | None = None) -> ReductionNode:
    """Run the full reduction and return the tree of blow-up rounds.

    Reads ``depth_fuse`` and ``degree_cap`` from ``options``."""
    require_valid(x)
    return _reduce(x, "root", 0, options or SceneOptions())


def _reduce(x: GradedCdga, node_id: str, depth: int, options: SceneOptions) -> ReductionNode:
    if depth > options.depth_fuse:
        raise DepthExceeded(
            f"reduction exceeded the depth fuse ({options.depth_fuse}) at {node_id!r}"
        )
    report = stabilizer_stratification(x)
    if report.max_dim == 0:
        leaf = obstruction_report(x)
        return ReductionNode(node_id, x, report, (), leaf)

    parent_dagger = dagger_check(x, SubtorusBasis.full(x.torus_rank))
    subtori = witness_subtori(x, report)
    multi = len(subtori) > 1
    children = []
    for i, h in enumerate(subtori):
        j = saturation_ideal(x, h, options)
        for chart in kirwan_charts(x, h, j, parent_id=node_id):
            if parent_dagger:
                assert dagger_check(chart.cdga, SubtorusBasis.full(x.torus_rank)), (
                    f"blow-up chart {chart.name} of {node_id!r} lost the degree-2 vanishing property"
                )
            suffix = f"s{i}.{chart.center_var}" if multi else chart.center_var
            child = _reduce(chart.cdga, f"{node_id}/{suffix}", depth + 1, options)
            if child.stabilizer.max_dim >= report.max_dim:
                raise StrictDecreaseViolation(
                    f"stabilizer dimension failed to drop from {report.max_dim} "
                    f"at {node_id!r} to {child.stabilizer.max_dim} at {child.id!r}"
                )
            children.append((chart, child))
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
