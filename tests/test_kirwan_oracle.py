"""Every Kirwan chart's removed locus against the saturation route in
``helpers``, and every Kirwan chart against its blow-up chart, on the
scenes of the benchmark's ``corpus-r1`` and ``rank2-trees`` workloads,
read from ``bench/scenes.py``."""

import functools

import pytest

import stabred.blowup
from stabred import (
    StrictDecreaseViolation,
    blowup_charts,
    ideal_equal,
    kirwan_charts,
    load_scene,
    monomial_intersection,
    parse_scene,
    stabilizer_reduce,
    stabilizer_stratification,
    tree_depth,
    witness_subtori,
)

from helpers import RANK2_TREES, SHIPPED_SCENES, bench_workload, kirwan_exclusion_by_saturation
from test_torus import _every_chart

REDUCING = ("crit-abcd+ab", "crit-ab+cd-1", "crit-a2b2+cd", "crit-ab+cd-skew", "hyp-ab-1")
FAILING = ("crit-abcd", "hyp-ab+cd-1", "hyp-ab+cd")


@functools.cache
def workload(name):
    return {label: parse_scene(data) for label, data in bench_workload(name).items()}


def check_tree(tree):
    """Compare every Kirwan chart of every node of ``tree`` that has charts,
    those left out of the tree for having no point included; returns the
    number of charts met."""
    met = 0
    for node, chart in _every_chart(tree):
        expected = kirwan_exclusion_by_saturation(node.cdga, chart)
        assert ideal_equal(chart.cdga.excluded, expected), (node.id, chart.name)
        met += 1
    return met


def test_chart_exclusions_match_the_saturation_route_on_corpus_r1():
    # every fourth scene as drawn: 240 of the 960
    scenes = list(workload("corpus-r1").values())[::4]
    assert len(scenes) >= 200
    assert sum(check_tree(stabilizer_reduce(x)) for x in scenes) > 0


@pytest.mark.parametrize("label", REDUCING)
def test_chart_exclusions_match_the_saturation_route_on_rank2_trees(label):
    tree = stabilizer_reduce(workload("rank2-trees")[label])
    assert check_tree(tree) > 0
    if label == "crit-abcd+ab":
        assert tree_depth(tree) == 2


@pytest.mark.parametrize("label", FAILING)
def test_root_chart_exclusions_match_the_saturation_route_where_reduction_fails(label):
    x = workload("rank2-trees")[label]
    with pytest.raises(StrictDecreaseViolation):
        stabilizer_reduce(x)
    met = 0
    for h in witness_subtori(stabilizer_stratification(x)):
        for chart in kirwan_charts(x, h):
            assert ideal_equal(chart.cdga.excluded, kirwan_exclusion_by_saturation(x, chart)), chart.name
            met += 1
    assert met > 0


@pytest.mark.parametrize("label", REDUCING + FAILING)
def test_a_kirwan_step_builds_each_chart_map_once(monkeypatch, label):
    x = workload("rank2-trees")[label]
    chart_map = stabred.blowup._chart_map
    calls = []

    def counted(*args):
        calls.append(args[2])
        return chart_map(*args)

    monkeypatch.setattr(stabred.blowup, "_chart_map", counted)
    for h in witness_subtori(stabilizer_stratification(x)):
        calls.clear()
        charts = kirwan_charts(x, h)
        assert calls == [chart.center_var for chart in charts]


def nodes_with_charts(node):
    """Every node of the tree below ``node`` that has charts, itself included:
    those with ``max_dim`` > 0, whether or not a chart has a point."""
    if node.stabilizer.max_dim > 0:
        yield node
    for _, child in node.children:
        yield from nodes_with_charts(child)


def kirwan_only_removes_more(x, h):
    """Each Kirwan chart of ``(x, h)`` against the blow-up chart at the same
    center: equal in every field but the removed locus, which only grows.
    Returns the number of charts compared."""
    kirwan, blown_up = kirwan_charts(x, h), blowup_charts(x, h)
    assert [k.center_var for k in kirwan] == [b.center_var for b in blown_up]
    for k, b in zip(kirwan, blown_up):
        assert k._replace(cdga=None) == b._replace(cdga=None), k.name
        assert k.cdga._replace(excluded=b.cdga.excluded) == b.cdga, k.name
        both = monomial_intersection(b.cdga.excluded, k.cdga.excluded)
        assert ideal_equal(both, k.cdga.excluded), k.name
    return len(kirwan)


def scenes_for_the_chart_comparison():
    scenes = [load_scene(f"scenes/{label}.json") for label in SHIPPED_SCENES]
    scenes += [workload("rank2-trees")[label] for label in RANK2_TREES]
    # every fourth scene as drawn: 240 of the 960
    return scenes + list(workload("corpus-r1").values())[::4]


def test_kirwan_charts_are_the_blowup_charts_with_the_unstable_locus_removed():
    met = carried = 0
    for x in scenes_for_the_chart_comparison():
        for node in nodes_with_charts(stabilizer_reduce(x)):
            for h in witness_subtori(node.stabilizer):
                met += kirwan_only_removes_more(node.cdga, h)
            carried += not node.cdga.excluded.is_unit()
    assert met > 0
    # the comparison reaches nodes that carry a removed locus in
    assert carried > 0
