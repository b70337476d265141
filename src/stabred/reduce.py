"""Iterated Kirwan blow-up until every stabilizer is finite.

Each round finds the locus of maximal stabilizer dimension, blows up its
fixed locus for every witnessing subtorus, removes the unstable points,
and recurses into the charts.  The maximal stabilizer dimension strictly
decreases along every edge: each chart is stratified before the recursion
descends into it, and an edge that fails to lower it is refused.  So no
path is longer than the root's ``max_dim``, which is at most the torus
rank, and the recursion ends by construction.  A chart with no point
outside its removed locus adds nothing to the quotient and is dropped; a
node with finite stabilizers and a point is a reported leaf.  Every chart
is birational onto its parent, so every reported leaf has the root's
obstruction report, and the documents compute it once per tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .blowup import Chart, kirwan_charts
from .cdga import GradedCdga, SubtorusBasis, require_valid
from .errors import DaggerViolation, InternalError, NoCenter, StrictDecreaseViolation
from .groebner import exact_divide
from .poly import Polynomial
from .torus import StabilizerReport, stabilizer_stratification


class ObstructionReport(NamedTuple):
    vdim: int
    e_ranks: tuple[int, int] | None
    quasi_smooth: bool


def _delta2_generic_rank(x: GradedCdga) -> int:
    """Rank of the degree-2 coefficient matrix over the function field.

    Fraction-free (Bareiss) elimination on the polynomial entries: after
    each pivot every remaining entry is a minor of the matrix, so the
    division by the previous pivot is exact and no entry ever leaves the
    polynomial ring.  The first pivot divides by the unit, so no division
    is made there.
    """
    zero = Polynomial.zero(x.var_names)
    matrix = [
        [g.coefficient(w.name) or zero for w in x.gens1]
        for g in x.gens2
    ]
    previous = None
    rank = 0
    for col in range(len(x.gens1)):
        pivot = next((r for r in range(rank, len(matrix)) if not matrix[r][col].is_zero()), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        head = matrix[rank]
        for row in matrix[rank + 1 :]:
            for c in range(col + 1, len(head)):
                minor = head[col] * row[c] - row[col] * head[c]
                row[c] = minor if previous is None else exact_divide(minor, previous)
            row[col] = zero
        previous = head[col]
        rank += 1
    return rank


def obstruction_report(x: GradedCdga) -> ObstructionReport:
    """Obstruction-theory summary of a finite-stabilizer presentation.

    ``vdim`` counts ring variables minus degree-1 plus degree-2 generators
    minus the torus rank.  The two ranks describe the dual two-term
    complex: ambient tangent directions minus the torus, and degree-1
    generators minus the generic rank of the degree-2 coefficient matrix.
    They are only meaningful when the degree-2 data vanishes on fixed loci
    (``torus_dagger``), so ``e_ranks`` is None otherwise.  The reduction
    reports only its leaves with a point, whose stabilizers are finite.

    A Kirwan chart has the report of its parent, so every reported leaf
    has the root's, and the documents ask for it once, at the root:

    - Same counts.  A chart keeps n ring variables (xi, the u_m, the fixed
      variables), the same generators in each degree and the same torus
      rank, so ``vdim`` and ``quasi_smooth`` are the same.
    - Same rank of delta2.  The chart's delta2 is phi*(delta2) with its rows
      and columns scaled by powers of xi.  phi* is injective, since it is
      injective on monomials, so every minor stays zero or nonzero and the
      generic rank is the same.
    - The dagger is kept both ways.  True to True is the ``InternalError``
      check of ``_reduce``.  For False to False, take a degree-2 generator
      g that breaks it: its weight is nonzero, and one of its coefficients
      has a monomial mu in weight-0 variables.  ``dagger_check(x, h)`` for
      the witness h forces g to be h-fixed, and so is that coefficient's
      target, whose weight is g's.  So the coefficient's xi shift is 0 and
      mu pulls back to itself in the chart, where g keeps its nonzero
      weight: the chart breaks the dagger too.
    """
    e_ranks = None
    if x.torus_dagger:
        e_ranks = (len(x.ring_vars) - x.torus_rank, len(x.gens1) - _delta2_generic_rank(x))
    return ObstructionReport(
        vdim=len(x.ring_vars) - len(x.gens1) + len(x.gens2) - x.torus_rank,
        e_ranks=e_ranks,
        quasi_smooth=not x.gens2,
    )


class ReductionNode(NamedTuple):
    id: str
    cdga: GradedCdga
    stabilizer: StabilizerReport
    children: tuple[tuple[Chart, "ReductionNode"], ...]


def stabilizer_reduce(x: GradedCdga) -> ReductionNode:
    """Run the full reduction and return the tree of blow-up rounds."""
    require_valid(x)
    return _reduce(x, "root", 0, stabilizer_stratification(x))


def _reduce(x: GradedCdga, node_id: str, depth: int, report: StabilizerReport) -> ReductionNode:
    """The subtree at ``x``, whose stratification is ``report``; ``depth`` is
    the node's distance from the root, which ``bench/tracer.py`` reads.

    Each chart is stratified here, before the recursion into it, so an edge
    that fails to lower ``max_dim`` is refused before anything below it is
    built, and each node is stratified exactly once.  A chart with no
    nonempty flat has no point outside its removed locus (unless a lower
    flat is nonempty, the walk goes up to the flat of every variable, and a
    truncation that is the unit ideal tests none), so it is checked and
    then dropped."""
    if report.max_dim == 0:
        return ReductionNode(node_id, x, report, ())

    multi = len(report.witnesses) > 1
    children = []
    for i, h in enumerate(report.witnesses):
        witness = f"witness subtorus {[list(v) for v in h.vectors]}"
        flat = list(report.maximal_support[i])
        try:
            charts = kirwan_charts(x, h)
        except DaggerViolation as err:
            raise DaggerViolation(
                f"a moving degree-2 differential does not vanish on the center of "
                f"{witness} at {node_id!r}, whose maximal flat is {flat}"
            ) from err
        except NoCenter as err:
            # a flat is every variable its kernel fixes, so this witness's
            # flat holds every ring variable
            raise NoCenter(
                f"the generic stabilizer at {node_id!r} is positive-dimensional: "
                f"{witness} fixes its maximal flat {flat}, every ring variable"
            ) from err
        for chart in charts:
            if x.torus_dagger and not chart.cdga.torus_dagger:
                raise InternalError(
                    f"blow-up chart of {node_id!r} lost the degree-2 vanishing property "
                    f"({_where(h, report, chart)})"
                )
            suffix = f"s{i}.{chart.center_var}" if multi else chart.center_var
            child_id = f"{node_id}/{suffix}"
            child_report = stabilizer_stratification(chart.cdga)
            if child_report.max_dim >= report.max_dim:
                raise StrictDecreaseViolation(
                    f"stabilizer dimension failed to drop from {report.max_dim} "
                    f"at {node_id!r} to {child_report.max_dim} at {child_id!r} "
                    f"({_where(h, report, chart)})"
                )
            if child_report.maximal_support:
                children.append((chart, _reduce(chart.cdga, child_id, depth + 1, child_report)))
    return ReductionNode(node_id, x, report, tuple(children))


def _where(h: SubtorusBasis, report: StabilizerReport, chart: Chart) -> str:
    """The subtorus, parent maximal flats and chart that an error names."""
    return (
        f"subtorus {[list(v) for v in h.vectors]}, parent maximal flats "
        f"{[list(s) for s in report.maximal_support]}, chart {chart.name}"
    )


def iter_leaves(node: ReductionNode):
    """The reported leaves: nodes with a point and finite stabilizers, in preorder."""
    if node.stabilizer.max_dim == 0 and node.stabilizer.maximal_support:
        yield node
    for _, child in node.children:
        yield from iter_leaves(child)


def tree_depth(node: ReductionNode) -> int:
    if not node.children:
        return 0
    return 1 + max(tree_depth(child) for _, child in node.children)
