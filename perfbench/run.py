"""sp4eis benchmark runner (stdlib only, one process, one thread).

    python3 perfbench/run.py --workload grids|sweep|numeric --seed N
                             --seconds S --trace 0|1
    python3 perfbench/run.py --regenerate-references

With ``--trace 0`` the run measures the workload for about S seconds
(always ending on a whole pass) and reports the end-to-end metrics.
With ``--trace 1`` it runs one fixed pass with every layer wrapped and
reports the per-layer metrics.  Every operation's output is compared
with the stored reference; a mismatch or an untyped exception is a
failed operation and makes the run exit with code 1.

Human-readable lines come first on stdout; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads
from calibrate import REF_KERNEL_S, Gauge
from workloads import EngineMissing

SETUP_REPEATS = 25

# the end-to-end metrics reported with --trace 0, and their units
END_TO_END = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
sys.path.insert(0, {src!r})
from workloads import setup_engine
t0 = time.perf_counter()
import sp4eis
setup_engine()
t1 = time.perf_counter()
from calibrate import kernel_seconds
kernel_seconds(3)
print(t1 - t0, kernel_seconds(5))
"""


def run_seconds() -> int:
    """The length of one run, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"]


def host_facts() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Set-up seconds in fresh interpreters, from ``import sp4eis`` to filled
    caches: wall, and at reference speed (see ``calibrate``)."""
    code = SETUP_CODE.format(src=str(workloads.SRC), here=str(workloads.HERE))
    wall, ref = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, kernel = map(float, proc.stdout.split())
        wall.append(seconds)
        ref.append(seconds * REF_KERNEL_S / kernel)
    return wall, ref


class Tally:
    """Latencies and outcome counts of the operations of one run."""

    def __init__(self):
        self.gauge = Gauge()
        self.attempted = 0
        self.failed = 0
        self.typed_errors = 0
        self.problems: list[str] = []

    def fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(text)

    def run_op(self, wl, key, rules=None) -> None:
        expected = wl.expected(key)
        start = time.perf_counter_ns()
        try:
            result = wl.call(key, rules)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.gauge.add(time.perf_counter_ns() - start)
            self.attempted += 1
            if not workloads.is_typed_error(exc):
                self.fail(f"{key}: untyped {type(exc).__name__}: {exc}")
                return
            self.typed_errors += 1
            got = "error:" + type(exc).__name__
        else:
            self.gauge.add(time.perf_counter_ns() - start)
            self.attempted += 1
            got = wl.outcome(result)
        if got != expected:
            self.fail(f"{key}: got {got!r}, expected {expected!r}")

    def run_cli_check(self, argv: list[str], expected: str, span=None) -> None:
        """One whole-output check through the CLI, counted as an operation."""
        run = workloads.run_cli
        code, out = span(run, argv) if span else run(argv)
        self.attempted += 1
        got = workloads.sha256_text(out)
        if code != 0 or got != expected:
            self.fail(f"sp4eis {' '.join(argv)}: exit {code}, stdout sha256 {got}")


def run_timed(wl, seed: int, seconds: float, rules=None) -> Tally:
    """Whole passes in a closed loop until ``seconds`` have passed."""
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for keys in wl.passes(seed):
        for key in keys:
            tally.run_op(wl, key, rules)
        if time.perf_counter() >= deadline:
            tally.gauge.flush()
            return tally


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, normal approximation.

    A weighted mean of the order statistics, with the weights the Beta
    law of the sample p-quantile's rank puts on them; for n >= 200 that
    law is close to normal.  Unlike a single order statistic it does not
    jump when the quantile falls between two clusters of latencies (as
    the grid rows' median does, between 10 and 13 ms).
    """
    xs = sorted(values)
    n = len(xs)
    rank = statistics.NormalDist(p, (p * (1 - p) / (n + 2)) ** 0.5)
    cdf = [rank.cdf(i / n) for i in range(n + 1)]
    return sum(x * (cdf[i + 1] - cdf[i]) for i, x in enumerate(xs)) / (cdf[n] - cdf[0])


def latency_metrics(ms: list[float]) -> dict[str, float]:
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms_p50": quantile(ms, 0.5),
        "op_ms_p95": quantile(ms, 0.95),
    }


def end_to_end(tally: Tally, setup: list[float]) -> dict[str, float]:
    """The end-to-end metrics, with times at reference speed."""
    return {
        **latency_metrics(tally.gauge.ref_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(wl, seed: int, trace_file) -> tuple[Tally, dict[str, float]]:
    """One fixed pass with spans, then the same pass untraced."""
    from layertrace import Tracer

    tracer = Tracer()
    tally = Tally()
    tracer.install()
    try:
        workloads.setup_engine()
        unit = wl.unit(seed)
        for i, key in enumerate(unit):
            tracer.op = i
            tally.run_op(wl, key)
        tally.gauge.flush()
        tracer.op = len(unit)
        for span, argv, expected in wl.cli_checks():
            if span:
                tally.run_cli_check(argv, expected, functools.partial(tracer.span, span))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    tracer.write(trace_file)
    tracer.spans.clear()      # a large live list would slow the untraced pass's GC
    for span, argv, expected in wl.cli_checks():
        if not span:
            tally.run_cli_check(argv, expected)
    # the same pass untraced, for the overhead ratio; it runs second, so a
    # cache filled by the traced pass would raise the ratio
    plain = Tally()
    for key in unit:
        plain.run_op(wl, key)
    plain.gauge.flush()
    metrics = layer_metrics(summary, tracer.counters, tally.typed_errors,
                            sum(tally.gauge.ref_ms) / sum(plain.gauge.ref_ms))
    return tally, metrics


# (span name, field) pairs reported as per-layer metrics
PER_LAYER_SPANS = (
    ("germs.germ_at", "calls"), ("germs.germ_at", "s"),
    ("germs.order_at", "calls"), ("germs.order_at", "s"),
    ("germs.symbol_series", "calls"), ("germs.symbol_series", "s"),
    ("germs.known_part_series", "calls"), ("germs.known_part_series", "s"),
    ("germs.sum_series", "calls"), ("germs.sum_series", "s"),
    ("constant_term.eisenstein_order", "calls"), ("constant_term.eisenstein_order", "s"),
    ("constant_term.evaluate_group", "calls"), ("constant_term.evaluate_group", "self_s"),
    ("constant_term.describe_image", "s"),
    ("localrules.local_pole", "calls"), ("localrules.local_pole", "s"),
    ("localrules.action_rule", "calls"), ("localrules.action_rule", "s"),
    ("localrules.load_rules", "s"),
    ("roots.coset_reps", "calls"), ("roots.coset_reps", "s"),
    ("characters.weyl_act", "calls"), ("characters.weyl_act", "s"),
    ("normfactor.canonicalize", "calls"), ("normfactor.canonicalize", "s"),
    ("normfactor.inverse_norm_factor", "s"),
    ("numerics.completed_zeta", "calls"), ("numerics.completed_zeta", "s"),
    ("numerics.completed_dirichlet", "calls"), ("numerics.completed_dirichlet", "s"),
    ("numerics.eval_expression", "s"),
    ("numerics.estimate_order", "calls"), ("numerics.estimate_order", "s"),
    ("checks.check_order_oracle", "s"), ("checks.check_zeta_closed_forms", "s"),
    ("cli.poles_scenario", "s"), ("scenario.load_scenario", "s"),
)


def layer_metrics(spans: dict, c: dict, typed_errors: int,
                  overhead: float) -> dict[str, float]:
    """Per-layer metrics from a span summary and the tracer's counters."""

    def get(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name, field in PER_LAYER_SPANS:
        key = f"{name}.{field}"
        out[key] = get(name, field)
    for name in ("germs.series_mul", "germs.series_inverse", "germs.scalar_new",
                 "germs.series_depth_max", "constant_term.groups_multi",
                 "constant_term.groups_cancelled"):
        out[name] = c[name]
    computed = c["germs.coeffs_computed"]
    out["germs.coeffs_used_ratio"] = c["germs.coeffs_consulted"] / computed if computed else 0.0
    lookups = get("constant_term.factor_expression", "calls")
    out["constant_term.factor_cache_hit_ratio"] = (
        c["constant_term.factor_cache_hits"] / lookups if lookups else 0.0)
    out["constant_term.typed_errors"] = typed_errors
    out["trace_overhead_ratio"] = overhead
    return out


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regenerate-references", action="store_true",
                    help="recompute refs/ from the current engine and exit")
    args = ap.parse_args(argv)
    try:
        workloads.import_engine()
    except EngineMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.regenerate_references:
        for cls in workloads.WORKLOADS.values():
            cls().regenerate()
            print(f"regenerated refs/{cls.ref_file}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    start_host = host_facts()
    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.reference()
    except FileNotFoundError as exc:
        print(f"perfbench: missing reference {exc.filename}", file=sys.stderr)
        return 2

    if args.trace:
        trace_file = workloads.HERE / "out" / f"trace-{args.workload}-{args.seed}.jsonl.gz"
        tally, metrics = run_traced(wl, args.seed, trace_file)
        units = {name: layer_unit(name) for name in metrics}
    else:
        setup_wall, setup = measure_setup()
        workloads.setup_engine()
        tally = run_timed(wl, args.seed, args.seconds)
        metrics = end_to_end(tally, setup)
        wall = {**latency_metrics(tally.gauge.wall_ms),
                "setup_s": statistics.median(setup_wall)}
        for _, argv, expected in wl.cli_checks():
            tally.run_cli_check(argv, expected)
        units = END_TO_END

    host = {"start": start_host, "end": host_facts(),
            "kernel_ms": [1e3 * q for q in statistics.quantiles(tally.gauge.kernel_s, n=4)]}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"operations {len(tally.gauge.wall_ms)}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    if not args.trace:
        for name, value in wall.items():
            print(f"wall {name} {value:.6g} {units[name]} (not scaled to reference speed)")
    print(f"metric failed_ratio {tally.failed / max(tally.attempted, 1):.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    if tally.typed_errors:
        print(f"typed errors (expected outputs): {tally.typed_errors}")
    for p in tally.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }, sort_keys=True))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
