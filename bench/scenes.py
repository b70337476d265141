"""Scene files of the benchmark workloads.

Run as ``python3 bench/scenes.py <workload> <seed> <directory>``: it
imports ``stabred`` from this checkout's ``src/``, writes each scene of the
workload to ``<directory>/<label>.json`` with ``serialize_scene``, so that
each operation reads a file exactly as a user's run does, prints the
labels one per line, and prints ``time.perf_counter()`` as its last line.
``run.py`` runs it as a fresh process for each set-up, so the set-up time
runs from process start to the last file written.  The seed draws the
``corpus-r1`` scenes; the other two workloads are fixed lists.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stabred import (  # noqa: E402
    GradedCdga,
    GradedVariable,
    Generator1,
    Generator2,
    Polynomial,
    SubtorusBasis,
    dagger_check,
    from_invariant_function,
    parse_polynomial,
    serialize_scene,
    validate_presentation,
)

# A scene's cost depends mostly on its number of variables, of degree-1
# generators and of degree-2 generators, and on whether its weights take
# both signs: the cheapest class runs in about 2 ms, the dearest in about
# 50 ms.  Drawn freely, 400 scenes moved the round's cost by 10-30% from one
# seed to the next, and an equal quota per (variables, degree-1
# generators) class still moved the median scene by about 15%.  So the
# corpus keeps an equal number of scenes of each class below, and the seed
# picks the scenes within each class.  Over ten seeds, the median scene
# moved by 5% (IQR over median) with 16 scenes per class and by 3% with 32.
# A round of 960 scenes takes about 20 seconds.
CORPUS_PER_CLASS = 32
CORPUS_CLASSES = tuple(
    (v, g, k, mixed)
    for v in (1, 2, 3)
    for g in (0, 1, 2, 3)
    for k in ((0, 1) if g >= 2 else (0,))
    for mixed in ((False, True) if v > 1 else (False,))
)

RANK2_WEIGHTS = (("a", (1, 0)), ("b", (-1, 0)), ("c", (0, 1)), ("d", (0, -1)))


# -- corpus-r1: port of the test suite's seeded random rank-1 corpus --------

_VAR_POOL = ("x", "y", "z")
_COEFFS = (-3, -2, -1, 1, 2, 3)


def _random_exponents(rng, nvars, max_degree):
    degree = rng.randint(1, max_degree)
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _random_homogeneous(rng, names, weights, max_degree=4):
    """Nonzero polynomial whose terms all share one rank-1 weight."""
    lead = _random_exponents(rng, len(names), max_degree)
    target = sum(e * w for e, w in zip(lead, weights))
    terms = {lead: Fraction(rng.choice(_COEFFS))}
    for _ in range(rng.randint(0, 4)):
        exps = _random_exponents(rng, len(names), max_degree)
        if exps not in terms and sum(e * w for e, w in zip(exps, weights)) == target:
            terms[exps] = Fraction(rng.choice(_COEFFS))
    return Polynomial(names, terms), (target,)


def random_scene(rng):
    """Random valid rank-1 presentation with at least one moving variable.

    At most 3 variables and 3 degree-1 generators; a degree-2 generator,
    when present, is a Koszul pair e with d(e) = d(b)·a - d(a)·b.  The
    random draws follow the test suite's generator call for call.
    """
    while True:
        names = _VAR_POOL[: rng.randint(1, 3)]
        weights = tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in names)
        if any(weights):
            break
    ring_vars = tuple(GradedVariable(n, (w,)) for n, w in zip(names, weights))
    gens1 = []
    for i in range(rng.randint(0, 3)):
        if rng.random() < 0.15:
            weight = (rng.choice((-2, -1, 0, 1, 2)),)
            gens1.append(Generator1(f"w{i + 1}", weight, Polynomial.zero(names)))
            continue
        diff, weight = _random_homogeneous(rng, names, weights)
        gens1.append(Generator1(f"w{i + 1}", weight, diff))
    gens1 = tuple(gens1)
    scene = GradedCdga(1, ring_vars, gens1)
    live = [g for g in gens1 if not g.differential.is_zero()]
    if len(live) >= 2 and rng.random() < 0.5:
        a, b = sorted(rng.sample(live, 2), key=gens1.index)
        pair = Generator2(
            "e1",
            (a.weight[0] + b.weight[0],),
            ((a.name, b.differential), (b.name, -a.differential)),
        )
        candidate = GradedCdga(1, ring_vars, gens1, (pair,))
        if dagger_check(candidate, SubtorusBasis.full(1)):
            scene = candidate
    report = validate_presentation(scene)
    if not report.ok:
        raise RuntimeError(f"generated an invalid scene: {report.violations}")
    return scene


def corpus_r1(seed):
    """``CORPUS_PER_CLASS`` scenes of each class, in the order drawn."""
    rng = random.Random(seed)
    left = dict.fromkeys(CORPUS_CLASSES, CORPUS_PER_CLASS)
    scenes = []
    while len(scenes) < len(CORPUS_CLASSES) * CORPUS_PER_CLASS:
        scene = random_scene(rng)
        weights = [v.weight[0] for v in scene.ring_vars]
        mixed = min(weights) < 0 < max(weights)
        key = (len(scene.ring_vars), len(scene.gens1), len(scene.gens2), mixed)
        if left[key]:
            left[key] -= 1
            scenes.append((f"r1-{len(scenes):03d}", serialize_scene(scene)))
    return scenes


# -- hard-coded scenes ------------------------------------------------------


def _critical(label, spec, rank, f):
    """Derived critical locus of the invariant function ``f``."""

    names = tuple(n for n, _ in spec)
    variables = tuple(GradedVariable(n, w) for n, w in spec)
    return label, serialize_scene(from_invariant_function(variables, rank, parse_polynomial(f, names)))


def _hypersurface(label, spec, rank, f):
    """The one-relation presentation: a single weight-zero degree-1 generator."""

    names = tuple(n for n, _ in spec)
    variables = tuple(GradedVariable(n, w) for n, w in spec)
    gen = Generator1("w1", (0,) * rank, parse_polynomial(f, names))
    return label, serialize_scene(GradedCdga(rank, variables, (gen,)))


def critical_6(seed):
    rank1 = tuple((f"{v}{i}", (s,)) for i in (1, 2, 3) for v, s in (("x", 1), ("y", -1)))
    rank2 = RANK2_WEIGHTS + (("e", (1, 1)), ("f", (-1, -1)))
    return [
        _critical("crit-x1y1+x2y2+x3y3", rank1, 1, "x1*y1+x2*y2+x3*y3"),
        _critical("crit-ab+cd+ef", rank2, 2, "a*b+c*d+e*f"),
    ]


def rank2_trees(seed):
    skew = RANK2_WEIGHTS[:2] + (("c", (1, 1)), ("d", (-1, -1)))
    return [
        _critical("crit-abcd+ab", RANK2_WEIGHTS, 2, "a*b*c*d+a*b"),
        _critical("crit-ab+cd-1", RANK2_WEIGHTS, 2, "a*b+c*d-1"),
        _critical("crit-a2b2+cd", RANK2_WEIGHTS, 2, "a^2*b^2+c*d"),
        _critical("crit-ab+cd-skew", skew, 2, "a*b+c*d"),
        _hypersurface("hyp-ab-1", RANK2_WEIGHTS, 2, "a*b-1"),
        # These three exit 3 (StrictDecreaseViolation) at the seed commit;
        # they stay in and count toward failed_ratio until the Kirwan step
        # is fixed at depth 2 and with several witness subtori.
        _critical("crit-abcd", RANK2_WEIGHTS, 2, "a*b*c*d"),
        _hypersurface("hyp-ab+cd-1", RANK2_WEIGHTS, 2, "a*b+c*d-1"),
        _hypersurface("hyp-ab+cd", RANK2_WEIGHTS, 2, "a*b+c*d"),
    ]


WORKLOADS = {"corpus-r1": corpus_r1, "critical-6": critical_6, "rank2-trees": rank2_trees}


def main(argv):
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    directory.mkdir(parents=True, exist_ok=True)
    labels = []
    for label, data in WORKLOADS[workload](seed):
        with open(directory / f"{label}.json", "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
        labels.append(label)
    print("\n".join(labels))
    print(repr(perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1:])
