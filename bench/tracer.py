"""Spans around the public functions of each ``stabred`` layer.

The tracer wraps functions from outside the program: for every traced
function it replaces each binding of that function object in every loaded
``stabred`` module (``torus`` and ``blowup`` bind ``saturate`` from
``ideal``, ``cli`` binds ``stabilizer_reduce``, ``buchberger`` looks up
``s_polynomial`` and ``normal_form`` as ``groebner`` globals), and every
class attribute for methods (``Polynomial.__rmul__`` is ``__mul__``).  The
wrappers are installed around one traced operation at a time, so untraced
operations run the unpatched code.

A span is ``[op, parent, name, start, end, value, flag]``; ``parent`` is
the index of the enclosing span in the same list, or -1.  ``value`` and
``flag`` carry the few outcomes the layer metrics need (basis length,
zero remainder, nonempty stratum, chart count, node depth, repeated
Groebner input).
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from time import perf_counter

OP = "cli.main"


def _len_result(result, args, kwargs):
    return len(result)


def _is_zero_result(result, args, kwargs):
    return int(result.is_zero())


def _truth_result(result, args, kwargs):
    return int(result)


def _depth_arg(result, args, kwargs):
    return args[2]


# (span name, module, attribute, method or None, outcome recorder)
TARGETS = (
    (OP, "stabred.cli", "main", None, None),
    ("scene.parse_scene_text", "stabred.scene", "parse_scene_text", None, None),
    ("cdga.validate_presentation", "stabred.cdga", "validate_presentation", None, None),
    ("torus.stabilizer_stratification", "stabred.torus", "stabilizer_stratification", None, None),
    ("torus._support_nonempty", "stabred.torus", "_support_nonempty", None, _truth_result),
    ("torus.saturation_ideal", "stabred.torus", "saturation_ideal", None, None),
    ("ideal.Ideal.groebner", "stabred.ideal", "Ideal", "groebner", None),
    ("ideal.saturate", "stabred.ideal", "saturate", None, None),
    ("ideal.eliminate", "stabred.ideal", "eliminate", None, None),
    ("ideal.intersect", "stabred.ideal", "intersect", None, None),
    ("groebner.buchberger", "stabred.groebner", "buchberger", None, _len_result),
    ("groebner.s_polynomial", "stabred.groebner", "s_polynomial", None, None),
    ("groebner.normal_form", "stabred.groebner", "normal_form", None, _is_zero_result),
    ("blowup.kirwan_charts", "stabred.blowup", "kirwan_charts", None, _len_result),
    ("blowup.blowup_charts", "stabred.blowup", "blowup_charts", None, None),
    ("blowup.crosscheck_truncation", "stabred.blowup", "crosscheck_truncation", None, None),
    ("reduce.stabilizer_reduce", "stabred.reduce", "stabilizer_reduce", None, None),
    ("reduce._reduce", "stabred.reduce", "_reduce", None, _depth_arg),
    ("reduce.obstruction_report", "stabred.reduce", "obstruction_report", None, None),
    ("report.reduction_document", "stabred.report", "reduction_document", None, None),
    ("report.canonical_json", "stabred.report", "canonical_json", None, None),
    ("poly.Polynomial.__mul__", "stabred.poly", "Polynomial", "__mul__", None),
)


def _groebner_input_key(args, kwargs):
    """Hashable (generators, order) of a ``buchberger`` call."""
    generators = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order")
    return order, tuple((g.variables, frozenset(g.terms.items())) for g in generators)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._seen_inputs = set()
        self.op = -1
        self.origin = perf_counter()

    def begin_op(self, op_id):
        self.op = op_id
        self._seen_inputs = set()

    def _wrap(self, name, fn, outcome):
        spans, stack = self.spans, self._stack
        repeat_check = name == "groebner.buchberger"

        def traced(*args, **kwargs):
            flag = 0
            if repeat_check:
                key = _groebner_input_key(args, kwargs)
                flag = int(key in self._seen_inputs)
                self._seen_inputs.add(key)
            span = [self.op, stack[-1] if stack else -1, name, 0.0, 0.0, None, flag]
            stack.append(len(spans))
            spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if outcome is not None:
                span[5] = outcome(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        saved = []
        try:
            for name, module_name, attr, method, outcome in TARGETS:
                home = importlib.import_module(module_name)
                if method is None:
                    original = getattr(home, attr)
                    holders = [m for n, m in list(sys.modules.items())
                               if m is not None and (n == "stabred" or n.startswith("stabred."))]
                else:
                    holders = [getattr(home, attr)]
                    original = holders[0].__dict__[method]
                wrapper = self._wrap(name, original, outcome)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, value))
                            setattr(holder, key, wrapper)
            yield
        finally:
            for holder, key, value in reversed(saved):
                setattr(holder, key, value)

    def write(self, path):
        """Write the spans as tab-separated lines, times from tracer creation."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("op\tspan\tparent\tname\tstart_s\tend_s\tvalue\tflag\n")
            for i, (op, parent, name, start, end, value, flag) in enumerate(self.spans):
                handle.write(
                    f"{op}\t{i}\t{parent}\t{name}\t{start - self.origin:.9f}\t"
                    f"{end - self.origin:.9f}\t{'' if value is None else value}\t{flag}\n"
                )


# name, unit, better
LAYER_METRICS = (
    ("groebner.buchberger_calls", "count/op", "lower"),
    ("groebner.buchberger_s", "s/op", "lower"),
    ("groebner.buchberger_self_s", "s/op", "lower"),
    ("groebner.spolys", "count/op", "lower"),
    ("groebner.zero_reduction_ratio", "ratio", "lower"),
    ("groebner.normal_form_s", "s/op", "lower"),
    ("groebner.basis_len_max", "count", "lower"),
    ("groebner.repeat_input_ratio", "ratio", "lower"),
    ("ideal.groebner_calls", "count/op", "lower"),
    ("ideal.basis_reuse_ratio", "ratio", "higher"),
    ("ideal.saturate_calls", "count/op", "lower"),
    ("ideal.saturate_s", "s/op", "lower"),
    ("ideal.eliminate_s", "s/op", "lower"),
    ("ideal.intersect_calls", "count/op", "lower"),
    ("ideal.intersect_s", "s/op", "lower"),
    ("torus.stratify_calls", "count/op", "lower"),
    ("torus.stratify_s", "s/op", "lower"),
    ("torus.stratum_tests", "count/op", "lower"),
    ("torus.supports_tested", "count/op", "lower"),
    ("torus.nonempty_ratio", "ratio", "higher"),
    ("torus.saturation_ideal_s", "s/op", "lower"),
    ("blowup.kirwan_charts_s", "s/op", "lower"),
    ("blowup.charts", "count/op", "lower"),
    ("blowup.crosscheck_calls", "count/op", "lower"),
    ("blowup.crosscheck_s", "s/op", "lower"),
    ("reduce.stabilizer_reduce_s", "s/op", "lower"),
    ("reduce.self_s", "s/op", "lower"),
    ("reduce.nodes", "count/op", "lower"),
    ("reduce.depth_max", "count", "lower"),
    ("reduce.obstruction_report_s", "s/op", "lower"),
    ("report.reduction_document_s", "s/op", "lower"),
    ("report.self_s", "s/op", "lower"),
    ("report.canonical_json_s", "s/op", "lower"),
    ("scene.parse_s", "s/op", "lower"),
    ("cdga.validate_s", "s/op", "lower"),
    ("poly.mul_calls", "count/op", "lower"),
    ("poly.mul_s", "s/op", "lower"),
    ("cli.self_s", "s/op", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans, ops):
    """Per-operation layer numbers from the spans of ``ops`` traced operations.

    Counts and times are totals divided by ``ops``; ``*_max`` are maxima;
    ratios are taken over the run's totals.  A layer's self time is its
    spans' durations minus the durations of their direct children (one
    thread, so children never overlap).
    """
    child_s = [0.0] * len(spans)
    spoly_nf_child_s = [0.0] * len(spans)
    for span in spans:
        parent = span[1]
        if parent >= 0:
            dur = span[4] - span[3]
            child_s[parent] += dur
            if span[2] in ("groebner.s_polynomial", "groebner.normal_form"):
                spoly_nf_child_s[parent] += dur

    calls, incl, self_s, values = {}, {}, {}, {}
    for i, (op, parent, name, start, end, value, flag) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_s[i])
        if value is not None:
            values.setdefault(name, []).append(value)

    def n(name):
        return calls.get(name, 0)

    def t(name):
        return incl.get(name, 0.0)

    def selft(name):
        return self_s.get(name, 0.0)

    names = [s[2] for s in spans]
    repeats = sum(s[6] for s in spans if s[2] == "groebner.buchberger")
    buchberger_self = sum(
        s[4] - s[3] - spoly_nf_child_s[i] for i, s in enumerate(spans) if s[2] == "groebner.buchberger"
    )
    zero_nf = sum(
        1 for s in spans
        if s[2] == "groebner.normal_form" and s[5] and s[1] >= 0 and names[s[1]] == "groebner.buchberger"
    )
    stratum_tests = sum(
        1 for s in spans
        if s[2] == "ideal.saturate" and _has_ancestor(spans, s, "torus.stabilizer_stratification")
    )
    # Supports found nonempty over supports tested; a support makes one
    # stratum test per witness and stops at its first nonempty one.
    nonempty = sum(values.get("torus._support_nonempty", ()))

    return {
        "groebner.buchberger_calls": n("groebner.buchberger") / ops,
        "groebner.buchberger_s": t("groebner.buchberger") / ops,
        "groebner.buchberger_self_s": buchberger_self / ops,
        "groebner.spolys": n("groebner.s_polynomial") / ops,
        "groebner.zero_reduction_ratio": _ratio(zero_nf, n("groebner.s_polynomial")),
        "groebner.normal_form_s": t("groebner.normal_form") / ops,
        "groebner.basis_len_max": max(values.get("groebner.buchberger", ()), default=0),
        "groebner.repeat_input_ratio": _ratio(repeats, n("groebner.buchberger")),
        "ideal.groebner_calls": n("ideal.Ideal.groebner") / ops,
        "ideal.basis_reuse_ratio": _ratio(n("ideal.Ideal.groebner") - n("groebner.buchberger"),
                                          n("ideal.Ideal.groebner")),
        "ideal.saturate_calls": n("ideal.saturate") / ops,
        "ideal.saturate_s": t("ideal.saturate") / ops,
        "ideal.eliminate_s": t("ideal.eliminate") / ops,
        "ideal.intersect_calls": n("ideal.intersect") / ops,
        "ideal.intersect_s": t("ideal.intersect") / ops,
        "torus.stratify_calls": n("torus.stabilizer_stratification") / ops,
        "torus.stratify_s": t("torus.stabilizer_stratification") / ops,
        "torus.stratum_tests": stratum_tests / ops,
        "torus.supports_tested": n("torus._support_nonempty") / ops,
        "torus.nonempty_ratio": _ratio(nonempty, n("torus._support_nonempty")),
        "torus.saturation_ideal_s": t("torus.saturation_ideal") / ops,
        "blowup.kirwan_charts_s": t("blowup.kirwan_charts") / ops,
        "blowup.charts": sum(values.get("blowup.kirwan_charts", ())) / ops,
        "blowup.crosscheck_calls": n("blowup.crosscheck_truncation") / ops,
        "blowup.crosscheck_s": t("blowup.crosscheck_truncation") / ops,
        "reduce.stabilizer_reduce_s": t("reduce.stabilizer_reduce") / ops,
        "reduce.self_s": (selft("reduce.stabilizer_reduce") + selft("reduce._reduce")) / ops,
        "reduce.nodes": n("reduce._reduce") / ops,
        "reduce.depth_max": max(values.get("reduce._reduce", ()), default=0),
        "reduce.obstruction_report_s": t("reduce.obstruction_report") / ops,
        "report.reduction_document_s": t("report.reduction_document") / ops,
        "report.self_s": selft("report.reduction_document") / ops,
        "report.canonical_json_s": t("report.canonical_json") / ops,
        "scene.parse_s": t("scene.parse_scene_text") / ops,
        "cdga.validate_s": t("cdga.validate_presentation") / ops,
        "poly.mul_calls": n("poly.Polynomial.__mul__") / ops,
        "poly.mul_s": t("poly.Polynomial.__mul__") / ops,
        "cli.self_s": selft(OP) / ops,
    }


def _has_ancestor(spans, span, name):
    parent = span[1]
    while parent >= 0:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False
