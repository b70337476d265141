"""Self-test of the benchmark.

Run from the repository root with ``python3 bench/selftest.py``; it exits 0
when every check holds and 1, naming the failed checks, otherwise.  It
checks that

* the tracer patches every module binding of a traced function and
  restores them afterwards;
* the traced counts on ``scenes/xy2-x2y.json`` repeat exactly across two
  runs;
* traced and untraced runs give the same ``output_sha256``;
* every ``rank2-trees`` scene is attempted, and the critical locus of
  ``a*b*c*d`` counts in ``failed`` when it exits nonzero instead of being
  skipped.
"""

from __future__ import annotations

import importlib
import shutil
import sys
import run
import tracer as tracing

EXACT_COUNTS = ("groebner.buchberger_calls", "groebner.spolys", "torus.stratum_tests", "blowup.charts")

failures = []


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message)
    if not ok:
        failures.append(message)


def one_round(scene_paths, out_dir, trace):
    """One round of operations; returns (checker, layer metrics or None)."""
    cli = importlib.import_module("stabred.cli")
    tracer = tracing.Tracer() if trace else None
    result = run.measure(cli, scene_paths, out_dir, 0, tracer)
    layers = tracing.layer_metrics(tracer.spans, len(scene_paths)) if trace else None
    return result["checker"], layers


def check_patching():
    import stabred.blowup
    import stabred.cli
    import stabred.groebner
    import stabred.ideal
    import stabred.torus

    bindings = (
        (stabred.ideal, "saturate"), (stabred.torus, "saturate"), (stabred.blowup, "saturate"),
        (stabred.cli, "stabilizer_reduce"), (stabred.groebner, "s_polynomial"),
        (stabred.groebner, "normal_form"), (stabred.ideal, "normal_form"),
    )
    before = [getattr(module, name) for module, name in bindings]
    with tracing.Tracer().installed():
        wrapped = [getattr(module, name) for module, name in bindings]
    after = [getattr(module, name) for module, name in bindings]
    check(all(getattr(w, "__wrapped__", None) is b for w, b in zip(wrapped, before)),
          "every binding of saturate, stabilizer_reduce, s_polynomial and normal_form is traced")
    check(after == before, "the tracer restores every binding")


def main():
    sys.path.insert(0, str(run.SRC))
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_patching()

        scene = [("xy2-x2y", run.ROOT / "scenes" / "xy2-x2y.json")]
        first_checker, first = one_round(scene, work / "a", trace=True)
        second_checker, second = one_round(scene, work / "b", trace=True)
        for name in EXACT_COUNTS:
            check(first[name] == second[name] and first[name] > 0,
                  f"{name} repeats exactly: {first[name]} and {second[name]}")
        plain_checker, _ = one_round(scene, work / "c", trace=False)
        check(plain_checker.output_sha256() == first_checker.output_sha256() == second_checker.output_sha256(),
              "traced and untraced runs give the same output_sha256")
        check(not (first_checker.problems or plain_checker.problems), "xy2-x2y passes every output check")

        _, scene_paths = run.set_up("rank2-trees", run.DEFAULT_SEED, work / "r2")
        result = run.measure(importlib.import_module("stabred.cli"), scene_paths, work / "r2" / "out", 0)
        outcomes = result["checker"].first
        exits = sorted(label for label, token in outcomes.items() if token.startswith("exit "))
        check(result["attempted"] == len(outcomes) == 8, f"all 8 rank2-trees scenes are attempted ({result['attempted']})")
        check(not result["checker"].problems, "no rank2-trees output fails a check")
        check(result["failed"] == len(exits), f"every nonzero exit counts in failed: {exits}")
        check("crit-abcd" in outcomes, f"crit-abcd is attempted and {outcomes.get('crit-abcd')}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed checks" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
