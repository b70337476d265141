"""End-to-end benchmark of ``stabred reduce``.

Usage, from the repository root::

    python3 bench/run.py --workload corpus-r1 --seed 20260815 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

One operation is the in-process call
``stabred.cli.main(["reduce", "--scene", <file>, "--json", <out>])`` with
stdout and stderr captured; it runs the scene, cdga, torus, ideal,
groebner, poly, blowup, reduce, report and cli modules the way a user's
run does.  The load is a closed loop with one caller, like a batch user:
each operation starts when the previous one ends.  Operations run in whole
rounds over the workload's scenes, so every scene is measured equally
often, and the loop stops after the round that ends nearest to
``--seconds``.

Every operation is checked: exit code 0, all ``invariant_checks`` true,
``summary.leaf_count`` equal to the number of nodes with a ``leaf_report``,
the document's command and input digest, and a byte-identical document on
every repeat of a scene.  An operation fails on a nonzero exit code or a
failed check and is timed up to the point it fails; a failed check also
makes the result incorrect.  ``output_sha256`` hashes the documents of all
scenes in label order (``exit <code>`` for a failed scene), so two commits
can be compared byte for byte.

The machine this benchmark was written on is a shared one whose speed
drifts by 20% and more over seconds and over tens of minutes, so every
time is scaled to a nominal machine speed (see ``reference.py``): an
operation's time is divided by the mean of the reference kernel's times
just before and just after it, a set-up's by those of a reference process
run before and after it.  The raw wall times are printed too (``loop``).

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median over ``SETUP_REPEATS`` set-ups, each a fresh
  process (``scenes.py``) timed from its start until it has imported
  ``stabred`` and generated and written the workload's scene files;
* ``op_p50_s``: median over the workload's scenes of each scene's median
  operation time in the run;
* ``op_tail_s``: the same per-scene median times at the highest
  percentile with at least ten scenes above it, or the slowest scene's
  when the workload has fewer than eleven scenes; the line before the
  result names the percentile and the scene count;
* ``ops_per_s``: scenes over the sum of their median operation times,
  the rate of one pass over the workload;
* ``peak_rss_mb``: peak resident memory of the process.

``failed_ratio`` is printed but is not in the result's metrics, because
they hold only metrics that are never 0; the result's ``attempted`` and
``failed`` carry it.

With ``--trace 1`` each operation runs twice, untraced and then traced
(see ``tracer.py``); the run reports the per-layer numbers of the traced
operations, per operation, and ``trace.overhead_ratio``, the sum of the
scenes' median traced times over that of their median untraced times,
both scaled.
The spans are written to ``.bench_work/spans-<workload>.tsv`` when the
run ends.

``BENCHMARK.json`` lists ``corpus-r1`` and ``rank2-trees``.
``critical-6``, the two 6-variable critical loci where choosing the next
S-pair dominates, is run by hand for its traced profile: each of its
operations takes about ten seconds, so a run holds four of them, and a
third workload would not fit the time that all runs of the benchmark
may take together.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import reference  # noqa: E402  (this directory is sys.path[0])
import tracer as tracing  # noqa: E402

WORKLOADS = ("corpus-r1", "critical-6", "rank2-trees")
DEFAULT_SEED = 20260815
SETUP_REPEATS = 7
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def set_up(workload, seed, scene_dir):
    """Write the scene files in fresh processes; returns (median scaled
    seconds, scene paths)."""
    cmd = [sys.executable, str(BENCH_DIR / "scenes.py"), workload, str(seed), str(scene_dir)]
    times = []
    before = reference.process_seconds()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"scene set-up failed:\n{proc.stderr}")
        *labels, end = proc.stdout.split()
        after = reference.process_seconds()
        times.append(reference.scaled(float(end) - start, before, after, reference.PROCESS_NOMINAL_S))
        before = after
    return statistics.median(times), [(label, scene_dir / f"{label}.json") for label in labels]


class Checker:
    """Output checks across every operation of a run."""

    def __init__(self, scene_paths):
        self.input_digest = {
            label: hashlib.sha256(path.read_bytes()).hexdigest() for label, path in scene_paths
        }
        self.first = {}
        self.problems = []

    def check(self, label, rc, out_path):
        """Return True when the operation succeeded and its output is right."""
        if rc != 0:
            token = f"exit {rc}"
            ok = False
        else:
            try:
                raw = out_path.read_bytes()
                token = hashlib.sha256(raw).hexdigest()
                problems = self._document_problems(label, json.loads(raw))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
                token = f"unreadable {type(err).__name__}"
                problems = [f"unreadable document: {err!r}"]
            for problem in problems:
                self.problems.append(f"{label}: {problem}")
            ok = not problems
        previous = self.first.setdefault(label, token)
        if previous != token:
            self.problems.append(f"{label}: output differs between repeats")
            ok = False
        return ok

    def _document_problems(self, label, doc):
        data = doc["data"]
        problems = []
        if doc["command"] != "reduce" or doc["input_digest"] != self.input_digest[label]:
            problems.append("wrong command or input digest")
        failed_checks = [k for k, v in data["invariant_checks"].items() if not v]
        if failed_checks:
            problems.append(f"invariant checks failed: {failed_checks}")
        leaves = sum(1 for node in data["nodes"] if node["leaf_report"] is not None)
        if data["summary"]["leaf_count"] != leaves:
            problems.append(f"leaf_count {data['summary']['leaf_count']} != {leaves} leaf nodes")
        return problems

    def output_sha256(self):
        digest = hashlib.sha256()
        for label in sorted(self.first):
            digest.update(f"{label} {self.first[label]}\n".encode())
        return digest.hexdigest()


def run_op(cli, scene_path, out_path):
    """One closed-loop operation; returns (exit code, seconds)."""
    if out_path.exists():
        out_path.unlink()
    args = ["reduce", "--scene", str(scene_path), "--json", str(out_path)]
    sink = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(args)
    except Exception as exc:  # a crash is a failed operation, not a stopped run
        rc = type(exc).__name__
    return rc, perf_counter() - start


def tail(values):
    """Value with at least ten above it (the largest when there are fewer
    than eleven), and its percentile."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100 * (index + 1) / len(ordered)


def measure(cli, scene_paths, out_dir, seconds, tracer=None):
    """Closed loop in whole rounds over the scenes, the reference kernel
    timed between every two operations; returns the samples and the check
    state.  It stops after the round that ends nearest to ``seconds``, at
    least one round."""
    checker = Checker(scene_paths)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = {label: [] for label, _ in scene_paths}
    scaled = {label: [] for label, _ in scene_paths}
    traced = {label: [] for label, _ in scene_paths}
    attempted = failed = 0
    loop_start = round_start = perf_counter()
    before = reference.kernel_seconds()
    while True:
        for label, path in scene_paths:
            out_path = out_dir / f"{label}.json"
            rc, dt = run_op(cli, path, out_path)
            after = reference.kernel_seconds()
            samples[label].append(dt)
            scaled[label].append(reference.scaled(dt, before, after))
            before = after
            attempted += 1
            failed += not checker.check(label, rc, out_path)
            if tracer is not None:
                tracer.begin_op(attempted)
                with tracer.installed():
                    rc, dt = run_op(cli, path, out_path)
                after = reference.kernel_seconds()
                traced[label].append(reference.scaled(dt, before, after))
                before = after
                attempted += 1
                failed += not checker.check(label, rc, out_path)
        now = perf_counter()
        if now + (now - round_start) / 2 - loop_start >= seconds:
            break
        round_start = now
    return {
        "samples": samples,
        "scaled": scaled,
        "traced": traced if tracer is not None else None,
        "loop_s": perf_counter() - loop_start,
        "attempted": attempted,
        "failed": failed,
        "checker": checker,
    }


def run_workload(workload, seed, seconds, trace, work_dir):
    """Set up, measure and return (result dict, report lines, tracer)."""
    setup_s, scene_paths = set_up(workload, seed, work_dir / "scenes")
    sys.path.insert(0, str(SRC))
    import stabred.cli as cli

    _require_checkout_source(cli)
    tracer = tracing.Tracer() if trace else None
    measured = measure(cli, scene_paths, work_dir / "out", seconds, tracer)
    checker = measured["checker"]
    all_times = [t for times in measured["samples"].values() for t in times]
    typical = [statistics.median(times) for times in measured["scaled"].values()]
    lines = [
        f"workload {workload} seed {seed}: {len(scene_paths)} scenes",
        f"loop {len(all_times)} untraced operations in {measured['loop_s']:.3f} s, "
        f"{len(all_times) / measured['loop_s']:.6g} ops/s, raw median {statistics.median(all_times):.6g} s",
        f"output_sha256 {checker.output_sha256()}",
        f"failed_ratio {measured['failed'] / measured['attempted']:.6g} ratio "
        f"({measured['failed']} of {measured['attempted']} operations)",
    ]
    lines += [f"check failed: {p}" for p in dict.fromkeys(checker.problems)]

    if trace:
        ops = sum(len(times) for times in measured["traced"].values())
        metrics = tracing.layer_metrics(tracer.spans, ops)
        metrics["trace.overhead_ratio"] = sum(map(statistics.median, measured["traced"].values())) / sum(typical)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        lines.append(f"spans {len(tracer.spans)} over {ops} traced operations")
    else:
        tail_value, percentile = tail(typical)
        metrics = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(typical),
            "op_tail_s": tail_value,
            "ops_per_s": len(typical) / sum(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        lines.append(f"op_tail_s is p{percentile:.4g} of {len(typical)} per-scene median times "
                     f"({min(len(t) for t in measured['samples'].values())} or more runs per scene)")
    result = {
        "correct": not checker.problems,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    return result, lines, tracer


def _require_checkout_source(cli):
    """The package under test must be the one in this checkout's src/."""
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"stabred was imported from {cli.__file__}, not from {SRC}")


def run_all(args):
    """Each workload in its own process; the result merges theirs."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        for line in lines:
            print(f"[{workload}] {line}")
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stabred" / "__init__.py").is_file():
        print(f"no stabred sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, lines, tracer = run_workload(args.workload, args.seed, args.seconds, args.trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tracer is not None:
        tracer.write(ROOT / ".bench_work" / f"spans-{args.workload}.tsv")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
