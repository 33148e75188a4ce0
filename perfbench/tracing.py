"""Span and count wrappers around the public functions of each module.

The wrappers live here, not in the program: ``install`` replaces every
binding of a traced function, in every ``kinkfactor`` namespace that holds
it (``kinkfactor.verify.residual_max``, ``kinkfactor.presets.residual_max``
and ``kinkfactor.residual_max`` are one function bound three times), and
``uninstall`` puts the originals back.

Hot functions (called thousands of times per operation) only add to
per-name counters.  Coarse functions also keep one span each, in memory,
with its operation, parent span, duration, self time and work; the spans are
written out once, when the run ends.  Self time is a call's duration minus
the part covered by traced calls beneath it.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from time import perf_counter

import kinkfactor
from kinkfactor import cli, factorizer, kinks, powerpoly, presets, susy, verify


def _residual_work(a):
    return {"work": a["grid"][2]}


def _rk4_work(a):
    lo, hi = a["xi_range"]
    return {"work": int(round((hi - lo) / a["step"]))}


def _ftcs_work(a):
    x_min, x_max, dx = a["grid"]
    steps = int(round(a["T"] / a["dt"]))
    return {"work": steps * (int(round((x_max - x_min) / dx)) + 1), "steps": steps}


# (metric prefix, owner, attribute, how it is traced, work from bound arguments)
HOT = "hot"          # counters only
GROUP = "group"      # counters; nested calls of the same group count once
SPAN = "span"        # counters and one kept span per call
TARGETS = (
    ("powerpoly.evaluate", powerpoly.PowerPoly, "evaluate", HOT, None),
    ("powerpoly.algebra", powerpoly, "mul", GROUP, None),
    ("powerpoly.algebra", powerpoly.PowerPoly, "__add__", GROUP, None),
    ("powerpoly.algebra", powerpoly.PowerPoly, "__sub__", GROUP, None),
    ("powerpoly.algebra", powerpoly.PowerPoly, "scale", GROUP, None),
    ("powerpoly.algebra", powerpoly.PowerPoly, "times_u", GROUP, None),
    ("powerpoly.algebra", powerpoly.PowerPoly, "u_deriv", GROUP, None),
    ("kinks.eval", kinks.KinkProfile, "eval", HOT, None),
    ("kinks.value", kinks.KinkProfile, "value", HOT, None),
    ("kinks.poly_along", kinks.KinkProfile, "poly_along", HOT, None),
    ("kinks.solve", kinks, "solve_binomial_flow", SPAN, None),
    ("factorizer.split", factorizer, "split_nonlinearity", SPAN, None),
    ("factorizer.scale", factorizer, "solve_scale_condition", SPAN, None),
    ("factorizer.expand", factorizer, "expand_grouping", SPAN, None),
    ("susy.reverse", susy, "reverse_partner", SPAN, None),
    ("verify.residual_scan", verify, "residual_max", SPAN, _residual_work),
    ("verify.rk4_flow", verify, "rk4_flow", SPAN, _rk4_work),
    ("verify.rk4_second_order", verify, "rk4_second_order", SPAN, _rk4_work),
    ("verify.simulate_front", verify, "simulate_front", SPAN, _ftcs_work),
    ("presets.run_pipeline", presets, "run_pipeline", SPAN, None),
    ("cli.main", cli, "main", SPAN, None),
    ("cli.emit_figures", cli, "emit_figures", SPAN, None),
)

PACKAGE_MODULES = (kinkfactor, cli, factorizer, kinks, powerpoly, presets, susy, verify)


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Per-name counters and kept spans for one benchmark run."""

    def __init__(self):
        self.stack: list[list] = []     # frames: [child_seconds] or [child_seconds, span_id]
        self.stats: dict[str, Stat] = {}
        self.group_total: dict[str, float] = {}
        self.group_depth: dict[str, int] = {}
        self.spans: list[dict] = []
        self.op_index: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _hot(self, fn, stat: Stat):
        stack = self.stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
        return wrapper

    def _group(self, fn, stat: Stat, group: str):
        inner = self._hot(fn, stat)
        depth = self.group_depth
        totals = self.group_total
        depth.setdefault(group, 0)
        totals.setdefault(group, 0.0)

        def wrapper(*args, **kwargs):
            depth[group] += 1
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                depth[group] -= 1
                if depth[group] == 0:
                    totals[group] += perf_counter() - t0
        return wrapper

    def _span(self, fn, stat: Stat, name: str, work):
        stack = self.stack
        spans = self.spans
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if len(f) > 1), None)
            span_id = len(spans)
            record = {"id": span_id, "parent": parent, "op": self.op_index, "name": name}
            spans.append(record)
            frame = [0.0, span_id]
            stack.append(frame)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                record.update(start=t0, seconds=dt, self_seconds=dt - frame[0], ok=ok)
                if work is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    record.update(work(bound.arguments))
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name, owner, attr, how, work in TARGETS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            stat = self.stats.setdefault(f"{name}.{attr}" if how == GROUP else name, Stat())
            if how == HOT:
                wrapped = self._hot(original, stat)
            elif how == GROUP:
                wrapped = self._group(original, stat, name)
            else:
                wrapped = self._span(original, stat, name, work)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in PACKAGE_MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- per-layer metrics -------------------------------------------------------------

#: (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("presets.run_pipeline_s", "s/op", "lower"),
    ("presets.run_pipeline_calls", "count/op", "lower"),
    ("cli.verify_self_s", "s/call", "lower"),
    ("cli.figures_s", "s/call", "lower"),
    ("verify.residual_scan_s", "s/op", "lower"),
    ("verify.residual_points_per_s", "1/s", "higher"),
    ("verify.residual_useful_share", "ratio", "higher"),
    ("kinks.eval_calls", "count/op", "lower"),
    ("kinks.eval_s", "s/op", "lower"),
    ("kinks.poly_along_calls", "count/op", "lower"),
    ("kinks.poly_along_s", "s/op", "lower"),
    ("kinks.value_calls", "count/op", "lower"),
    ("kinks.value_s", "s/op", "lower"),
    ("kinks.solve_s", "s/op", "lower"),
    ("powerpoly.evaluate_calls", "count/op", "lower"),
    ("powerpoly.evaluate_self_s", "s/op", "lower"),
    ("powerpoly.algebra_s", "s/op", "lower"),
    ("verify.rk4_flow_s", "s/op", "lower"),
    ("verify.rk4_flow_steps_per_s", "1/s", "higher"),
    ("verify.rk4_second_order_s", "s/op", "lower"),
    ("verify.rk4_second_order_steps_per_s", "1/s", "higher"),
    ("verify.simulate_front_s", "s/op", "lower"),
    ("verify.ftcs_step_us.pos_field", "us", "lower"),
    ("verify.ftcs_step_us.neg_field", "us", "lower"),
    ("factorizer.split_s", "s/op", "lower"),
    ("factorizer.scale_s", "s/op", "lower"),
    ("factorizer.expand_s", "s/op", "lower"),
    ("susy.reverse_s", "s/op", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, outcomes: list, untraced_pass_s: float,
                  traced_pass_s: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer values over the traced operations, and failed self-checks.

    ``outcomes[i]`` is the traced operation whose spans carry ``op == i``.
    Times and call counts are per operation, so runs of any length compare.
    """
    n = len(outcomes)
    stats = tracer.stats
    spans = tracer.spans
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def per_op(name, attr="total"):
        return _ratio(getattr(stats[name], attr), n)

    def without_pipeline(span):
        inner = sum(c["seconds"] for c in children.get(span["id"], ())
                    if c["name"] == "presets.run_pipeline")
        return span["seconds"] - inner

    def kind_of(span):
        return outcomes[span["op"]].op.kind

    verify_mains = [s for s in named("cli.main") if kind_of(s) == "verify"]
    figures = named("cli.emit_figures")
    residual = named("verify.residual_scan")
    residual_points = sum(s["work"] for s in residual)
    needed_points = sum(o.op.work for o in outcomes if o.op.kind in ("verify", "figures"))

    def steps_per_s(name):
        done = [s for s in named(name) if s["ok"]]
        return _ratio(sum(s["work"] for s in done), sum(s["seconds"] for s in done))

    def ftcs_step_us(negative):
        runs = [s for s in named("verify.simulate_front")
                if s["ok"] and outcomes[s["op"]].op.negative_field == negative]
        return 1e6 * _ratio(sum(s["seconds"] for s in runs), sum(s["steps"] for s in runs))

    algebra = tracer.group_total.get("powerpoly.algebra", 0.0)
    values = {
        "presets.run_pipeline_s": per_op("presets.run_pipeline"),
        "presets.run_pipeline_calls": per_op("presets.run_pipeline", "calls"),
        "cli.verify_self_s": _ratio(sum(map(without_pipeline, verify_mains)), len(verify_mains)),
        "cli.figures_s": _ratio(sum(map(without_pipeline, figures)), len(figures)),
        "verify.residual_scan_s": per_op("verify.residual_scan"),
        "verify.residual_points_per_s": _ratio(residual_points,
                                               stats["verify.residual_scan"].total),
        "verify.residual_useful_share": _ratio(needed_points, residual_points),
        "kinks.eval_calls": per_op("kinks.eval", "calls"),
        "kinks.eval_s": per_op("kinks.eval"),
        "kinks.poly_along_calls": per_op("kinks.poly_along", "calls"),
        "kinks.poly_along_s": per_op("kinks.poly_along"),
        "kinks.value_calls": per_op("kinks.value", "calls"),
        "kinks.value_s": per_op("kinks.value"),
        "kinks.solve_s": per_op("kinks.solve"),
        "powerpoly.evaluate_calls": per_op("powerpoly.evaluate", "calls"),
        "powerpoly.evaluate_self_s": per_op("powerpoly.evaluate", "self_time"),
        "powerpoly.algebra_s": _ratio(algebra, n),
        "verify.rk4_flow_s": per_op("verify.rk4_flow"),
        "verify.rk4_flow_steps_per_s": steps_per_s("verify.rk4_flow"),
        "verify.rk4_second_order_s": per_op("verify.rk4_second_order"),
        "verify.rk4_second_order_steps_per_s": steps_per_s("verify.rk4_second_order"),
        "verify.simulate_front_s": per_op("verify.simulate_front"),
        "verify.ftcs_step_us.pos_field": ftcs_step_us(False),
        "verify.ftcs_step_us.neg_field": ftcs_step_us(True),
        "factorizer.split_s": per_op("factorizer.split"),
        "factorizer.scale_s": per_op("factorizer.scale"),
        "factorizer.expand_s": per_op("factorizer.expand"),
        "susy.reverse_s": per_op("susy.reverse"),
        "trace.overhead_frac": _ratio(traced_pass_s, untraced_pass_s) - 1.0,
    }

    # The benchmark asks for every RK4 step and FTCS cell-update itself, so the
    # traced counts must equal the counts computed from the operation list.
    problems = []
    for kinds, names, label in (
        (("rk4_flow", "rk4_second_order"), ("verify.rk4_flow", "verify.rk4_second_order"),
         "RK4 steps"),
        (("front",), ("verify.simulate_front",), "FTCS cell-updates"),
    ):
        computed = sum(o.op.work for o in outcomes if o.op.kind in kinds and o.completed)
        traced = sum(s["work"] for name in names for s in named(name) if s["ok"])
        if computed != traced:
            problems.append(f"{label}: traced {traced} != computed {computed}")
    if residual_points < needed_points:
        problems.append(f"residual points: traced {residual_points} < needed {needed_points}")
    return values, problems
