"""Every Kirwan chart's removed locus against the saturation route in
``helpers``, on the scenes of the benchmark's ``corpus-r1`` and
``rank2-trees`` workloads, read from ``bench/scenes.py``."""

import functools

import pytest

from stabred import (
    StrictDecreaseViolation,
    ideal_equal,
    kirwan_charts,
    parse_scene,
    stabilizer_reduce,
    stabilizer_stratification,
    tree_depth,
    witness_subtori,
)

from helpers import bench_workload, kirwan_exclusion_by_saturation

REDUCING = ("crit-abcd+ab", "crit-ab+cd-1", "crit-a2b2+cd", "crit-ab+cd-skew", "hyp-ab-1")
FAILING = ("crit-abcd", "hyp-ab+cd-1", "hyp-ab+cd")


@functools.cache
def workload(name):
    return {label: parse_scene(data).cdga for label, data in bench_workload(name).items()}


def check_tree(node):
    """Compare every edge below ``node``; returns the number of charts met."""
    met = 0
    for chart, child in node.children:
        expected = kirwan_exclusion_by_saturation(node.cdga, chart)
        assert ideal_equal(chart.cdga.excluded, expected), child.id
        met += 1 + check_tree(child)
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
