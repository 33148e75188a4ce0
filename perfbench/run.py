#!/usr/bin/env python3
"""The kinkfactor benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics and the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and the metrics.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported, here and in
# the set-up probes this process starts: the benchmark is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

# A set-up probe's clock starts here, before the program is imported.
START = time.perf_counter()
try:
    import kinkfactor
except ImportError as exc:
    sys.exit(f"error: cannot import kinkfactor from {SRC}: {exc}")
if SRC.resolve() not in Path(kinkfactor.__file__).resolve().parents:
    sys.exit(f"error: kinkfactor was imported from {kinkfactor.__file__}, not {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5

#: The operations whose latency is op_ms_mean on each workload.
PRIMARY = {
    "catalogue": ("verify",),
    "oracles": ("rk4_flow", "rk4_second_order"),
    "fronts": ("front",),
}

#: (name, unit, better) of the end-to-end metrics, reported with --trace 0.
#: Their times are scaled to the reference machine speed (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_ms_mean", "ms", "lower"),
    ("pass_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: Per-layer metrics computed from the operation list and the outcomes rather
#: than from the wrappers; reported with --trace 1 after trace.LAYER_METRICS.
RUN_LEVEL = (
    ("work.residual_points", "count", "lower"),
    ("work.rk4_steps", "count", "lower"),
    ("work.ftcs_cell_updates", "count", "lower"),
    ("share.fractional_exp", "ratio", "lower"),
    ("share.negative_core", "ratio", "lower"),
    ("share.no_real_partner", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("known_defects", "count", "lower"),
    ("residual_max", "abs", "lower"),
    ("rk4_err_max", "abs", "lower"),
    ("speed_err_max", "ratio", "lower"),
)

WORK_KIND = {
    "work.residual_points": ("verify", "figures"),
    "work.rk4_steps": ("rk4_flow", "rk4_second_order"),
    "work.ftcs_cell_updates": ("front",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import the program and build the inputs.

    Prints the set-up time scaled by the reference measured right after it.
    """
    workloads.build_workload(workload, seed)
    seconds = time.perf_counter() - START
    reference = statistics.median(workloads.reference_seconds() for _ in range(5))
    print(repr(seconds * workloads.REFERENCE_S / reference))


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled set-up time of several fresh interpreters."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values, q: int) -> float:
    """The q-th percentile, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- the closed loop -------------------------------------------------------------


def run_passes(workload, seed, seconds, tracer):
    """Run whole passes until the time is up; with a tracer, every second pass is traced.

    A pass that has begun is finished, so every statistic covers whole passes
    and each operation of the list equally often.  The operations in a known
    defect class are left out of the passes and run once afterwards, untimed
    and untraced, so that every run still checks and names them.
    """
    all_ops, rng = workloads.build_workload(workload, seed)
    ops, known = workloads.split_known(all_ops)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    passes = []            # (traced, [Outcome])
    traced_outcomes = []
    deadline = time.perf_counter() + seconds
    min_passes = 2 if tracer else 1
    try:
        while time.perf_counter() < deadline or len(passes) < min_passes:
            traced = tracer is not None and len(passes) % 2 == 1
            outcomes = []
            if traced:
                tracer.install()
            try:
                for op in workloads.pass_order(ops, rng):
                    if traced:
                        tracer.op_index = len(traced_outcomes)
                    before = workloads.reference_seconds()
                    outcome = workloads.run_op(op, scratch)
                    outcome.reference = 0.5 * (before + workloads.reference_seconds())
                    outcomes.append(outcome)
                    if traced:
                        traced_outcomes.append(outcome)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((traced, outcomes))
        defects = [workloads.run_op(op, scratch) for op in known]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ops, passes, traced_outcomes, defects


def core_seconds(outcomes) -> float:
    """Scaled time of the core operations of one pass: the same for every seed."""
    return sum(workloads.scaled_seconds(o) for o in outcomes if o.op.core)


def end_to_end(workload, passes, setup_s):
    """Scaled timings over the core operations that passed; draws vary with the seed."""
    timed = [o for _, p in passes for o in p if o.ok and o.op.core]
    primary = [workloads.scaled_seconds(o) for o in timed if o.op.kind in PRIMARY[workload]]
    return {
        "setup_s": setup_s,
        "op_ms_mean": 1e3 * statistics.fmean(primary),
        "pass_s": statistics.fmean(core_seconds(p) for _, p in passes),
        "work_per_s": sum(o.op.work for o in timed)
        / sum(workloads.scaled_seconds(o) for o in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_level(ops, outcomes):
    """Work counts and property shares of one pass, failures and accuracy."""
    values = {name: sum(op.work for op in ops if op.kind in kinds)
              for name, kinds in WORK_KIND.items()}
    for prop in ("fractional_exp", "negative_core", "no_real_partner"):
        values[f"share.{prop}"] = sum(getattr(op, prop) for op in ops) / len(ops)
    values["fail_frac"] = sum(not o.ok for o in outcomes) / len(outcomes)

    def worst(kinds):
        return max((o.error for o in outcomes if o.op.kind in kinds and o.error is not None),
                   default=0.0)

    values["residual_max"] = worst(("verify",))
    values["rk4_err_max"] = worst(("rk4_flow", "rk4_second_order"))
    values["speed_err_max"] = worst(("front",))
    return values


def workload_figures(workload, passes):
    """The workload-specific figures printed for readers, in unscaled wall time."""
    outcomes = [o for _, p in passes for o in p]
    timed = [o for o in outcomes if o.ok and o.op.core]

    def ms(kinds):
        return [o.seconds * 1e3 for o in timed if o.op.kind in kinds]

    rows = []
    if workload == "catalogue":
        verify, figures = ms(("verify",)), ms(("figures",))
        rows += [("verify_ms_p50", statistics.median(verify), "ms", len(verify)),
                 ("verify_ms_p90", percentile(verify, 90), "ms", len(verify)),
                 ("figures_ms_p50", statistics.median(figures), "ms", len(figures))]
    elif workload == "oracles":
        rows.append(("rk4_steps_per_s", sum(o.op.work for o in timed)
                     / sum(o.seconds for o in timed), "1/s", len(timed)))
    else:
        fronts = [o.seconds for o in outcomes]
        sets = [sum(o.seconds for o in p) for _, p in passes]
        rows += [("front_s_p50", statistics.median(fronts), "s", len(fronts)),
                 ("front_set_s", statistics.median(sets), "s", len(sets))]
    draws = [o.seconds * 1e3 for o in outcomes if o.ok and not o.op.core]
    if draws:
        rows.append(("draws_ms_p50", statistics.median(draws), "ms", len(draws)))
    speed = statistics.median(o.reference for o in outcomes) / workloads.REFERENCE_S
    rows.append(("reference_slowdown", speed, "ratio", len(outcomes)))
    return rows


def report_failures(outcomes, defects) -> None:
    """Print each failing timed operation once, then every known-defect operation."""
    seen = {}
    for o in outcomes:
        if not o.ok:
            seen.setdefault(o.op.key, [o, 0])[1] += 1
    for key, (o, count) in sorted(seen.items()):
        print(f"  FAIL {key}: {o.detail} (x{count})")
    for o in defects:
        cls = workloads.known_failure(o.op)
        verdict = f"still fails: {o.detail}" if not o.ok else "now passes"
        print(f"  KNOWN DEFECT [class {cls}] {o.op.key}: {verdict}")


def run_workload(workload, seed, seconds, trace) -> int:
    setup_s = None if trace else measure_setup(workload, seed)
    tracer = tracing.Tracer() if trace else None
    ops, passes, traced_outcomes, defects = run_passes(workload, seed, seconds, tracer)
    outcomes = [o for _, p in passes for o in p]
    failed = sum(not o.ok for o in outcomes)

    print(f"workload {workload} seed {seed}: {len(passes)} passes of {len(ops)} "
          f"operations, {len(outcomes)} attempted, {failed} failed; "
          f"{len(defects)} known-defect operations checked once, untimed")
    report_failures(outcomes, defects)
    correct = failed == 0
    extra = run_level(ops, outcomes)
    extra["known_defects"] = sum(not o.ok for o in defects)

    if trace:
        untraced = statistics.median(core_seconds(p) for t, p in passes if not t)
        traced = statistics.median(core_seconds(p) for t, p in passes if t)
        values, problems = tracing.layer_metrics(tracer, traced_outcomes, untraced, traced)
        for problem in problems:
            print(f"  SELF-CHECK FAILED: {problem}")
        correct &= not problems
        values.update(extra)
        spec = tracing.LAYER_METRICS + RUN_LEVEL
        tracer.write_spans(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        values = end_to_end(workload, passes, setup_s)
        spec = END_TO_END
        for name, value, unit, count in workload_figures(workload, passes):
            print(f"  {name:36s} {value:14.6g} {unit:8s} (n={count})")
        units = {name: unit for name, unit, _ in RUN_LEVEL}
        for name in ("fail_frac", "known_defects", "residual_max", "rk4_err_max",
                     "speed_err_max"):
            print(f"  {name:36s} {extra[name]:14.6g} {units[name]}")
    metrics = {}
    for name, unit, _ in spec:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:36s} {values[name]:14.6g} {unit}")
    print(json.dumps({"correct": bool(correct), "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
