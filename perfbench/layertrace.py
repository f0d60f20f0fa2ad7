"""Spans and counters around the sp4eis layers, recorded from outside.

The tracer wraps public functions and methods of the package at run
time; the package itself is not changed.  A function is replaced in
every ``sp4eis`` module that bound it by name (``constant_term`` imports
``order_at``, ``sum_series`` and ``known_part_series``; ``checks``
imports ``completed_zeta``), and methods are replaced on their class.

Each call of a spanned function records ``(name, start_ns, end_ns,
parent, op)`` in memory; ``parent`` is the index of the enclosing span
(-1 at top level) and ``op`` the operation id the harness set.  Counters
are plain integers kept at the same boundaries.  ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from pathlib import Path

# (module, qualified name) pairs recorded as spans.  Methods are
# "Class.method".  The metric prefix is the last module component.
SPANNED = (
    ("sp4eis.germs", "germ_at"),
    ("sp4eis.germs", "order_at"),
    ("sp4eis.germs", "symbol_series"),
    ("sp4eis.germs", "sum_series"),
    ("sp4eis.germs", "known_part_series"),
    ("sp4eis.constant_term", "eisenstein_order"),
    ("sp4eis.constant_term", "evaluate_group"),
    ("sp4eis.constant_term", "describe_image"),
    ("sp4eis.constant_term", "factor_expression"),
    ("sp4eis.localrules", "RuleTable.local_pole"),
    ("sp4eis.localrules", "RuleTable.action_rule"),
    ("sp4eis.localrules", "load_rules"),
    ("sp4eis.roots", "CRootSystem.coset_reps"),
    ("sp4eis.characters", "weyl_act"),
    ("sp4eis.normfactor", "canonicalize"),
    ("sp4eis.normfactor", "inverse_norm_factor"),
    ("sp4eis.numerics", "completed_zeta"),
    ("sp4eis.numerics", "completed_dirichlet"),
    ("sp4eis.numerics", "eval_expression"),
    ("sp4eis.numerics", "estimate_order"),
    ("sp4eis.checks", "check_zeta_closed_forms"),
    ("sp4eis.checks", "check_reflection"),
    ("sp4eis.checks", "check_residues"),
    ("sp4eis.checks", "check_cancellation_limits"),
    ("sp4eis.checks", "check_functional_equation"),
    ("sp4eis.checks", "check_quadratic_derivative"),
    ("sp4eis.checks", "check_parity_cancellation"),
    ("sp4eis.checks", "check_order_oracle"),
    ("sp4eis.scenario", "load_scenario"),
)

# counters that are not spans
COUNTERS = (
    "germs.series_mul", "germs.series_inverse", "germs.scalar_new",
    "germs.series_depth_max", "germs.coeffs_consulted", "germs.coeffs_computed",
    "constant_term.groups_multi", "constant_term.groups_cancelled",
    "constant_term.factor_cache_hits",
)


def _resolve(owner, qualname: str):
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, qualname.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.nested: list[bool] = []      # span lies inside a span of its own name
        self.counters = {name: 0 for name in COUNTERS}
        self.ncalls: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0, 0, parent, self.op))
        self.ncalls[name] = self.ncalls.get(name, 0) + 1
        depth = self._active.get(name, 0)
        self.nested.append(depth > 0)
        self._active[name] = depth + 1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._active[name] = depth
            self.spans[idx] = (name, start, end, parent, self.op)

    # -- installing -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_everywhere(self, original, new) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "sp4eis" and not modname.startswith("sp4eis."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attr, new)

    def install(self) -> None:
        """Wrap every traced function and method of the loaded package."""
        for modname, qualname in SPANNED:
            owner, attr = _resolve(sys.modules[modname], qualname)
            name = f"{modname.rsplit('.', 1)[-1]}.{qualname.rsplit('.', 1)[-1]}"
            original = owner.__dict__[attr]
            wrapper = self._span_wrapper(name, original)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        self._install_counters()

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _install_counters(self) -> None:
        from sp4eis import constant_term, germs

        tracer = self
        series, scalar = germs.Series, germs.FormalScalar
        mul, inverse, leading = series.__mul__, series.inverse, series.leading
        series_init, scalar_init = series.__init__, scalar.__init__

        def counted_mul(a, b):
            tracer.counters["germs.series_mul"] += 1
            return mul(a, b)

        def counted_inverse(a):
            tracer.counters["germs.series_inverse"] += 1
            return inverse(a)

        def counted_series_init(s, *args, **kwargs):
            series_init(s, *args, **kwargs)
            depth = len(s.coeffs)
            if depth > tracer.counters["germs.series_depth_max"]:
                tracer.counters["germs.series_depth_max"] = depth

        def counted_scalar_init(x, *args, **kwargs):
            tracer.counters["germs.scalar_new"] += 1
            scalar_init(x, *args, **kwargs)

        def counted_leading(s):
            got = leading(s)
            # coefficients consulted: up to and including the leading one
            used = len(s.coeffs) if got is None else got[0] - s.ord + 1
            tracer.counters["germs.coeffs_consulted"] += used
            tracer.counters["germs.coeffs_computed"] += len(s.coeffs)
            return got

        self._replace(series, "__mul__", counted_mul)
        self._replace(series, "inverse", counted_inverse)
        self._replace(series, "__init__", counted_series_init)
        self._replace(series, "leading", counted_leading)
        self._replace(scalar, "__init__", counted_scalar_init)

        # group and cache counters ride on the spanned wrappers
        evaluate_group = constant_term.evaluate_group
        factor_expression = constant_term.factor_expression
        canon_name = "normfactor.canonicalize"

        def counted_evaluate_group(*args, **kwargs):
            report = evaluate_group(*args, **kwargs)
            if len(report.members) > 1:
                tracer.counters["constant_term.groups_multi"] += 1
                if report.cancelled:
                    tracer.counters["constant_term.groups_cancelled"] += 1
            return report

        def counted_factor_expression(*args, **kwargs):
            # a hit is a call that canonicalizes nothing
            before = tracer.ncalls.get(canon_name, 0)
            out = factor_expression(*args, **kwargs)
            if tracer.ncalls.get(canon_name, 0) == before:
                tracer.counters["constant_term.factor_cache_hits"] += 1
            return out

        self._replace_everywhere(evaluate_group, counted_evaluate_group)
        self._replace_everywhere(factor_expression, counted_factor_expression)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that calls itself is not counted twice.  Self time is
        the span's duration less the time its direct children cover.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if not self.nested[i]:
                row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        """Write spans and counters as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"counters": self.counters}, sort_keys=True) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
