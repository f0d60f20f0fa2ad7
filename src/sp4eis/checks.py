"""Numeric verification battery: every symbolic assertion with a numeric
counterpart is cross-checked here.

The battery covers closed-form and independent-summation checks for the
completed zeta implementation, functional-equation and epsilon-pair
identities for small quadratic characters, residue and cancellation
limits backing the germ knowledge base, and an order oracle comparing the
slope-fitted order of every canonical factor against the exact symbolic
order at more than thirty points.

Each family call evaluates each completed value once: the families take
their values through memos made for that call (``functools.cache`` of a
value function, passed on to ``eval_expression`` where a check evaluates
expressions), and nothing outlives the call.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from functools import cache, partial
from typing import NamedTuple

from .characters import CharClass
from .constant_term import factor_expression
from .germs import order_at
from .normfactor import Canonical
from .numerics import (
    completed_dirichlet, completed_zeta, estimate_order, eval_expression, gamma,
    table_for_modulus, zeta_direct, zeta_em,
)
from .roots import SP4

TR = CharClass.TRIVIAL
QU = CharClass.QUADRATIC


class CheckResult(NamedTuple):
    name: str
    ok: bool
    measured: str
    bound: str

    def render(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.measured} (bound {self.bound})"

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "measured": self.measured, "bound": self.bound}


def _res(name: str, value: float, bound: float, larger_is_better: bool = False) -> CheckResult:
    ok = value > bound if larger_is_better else value < bound
    cmp = ">" if larger_is_better else "<"
    return CheckResult(name, ok, f"{value:.3e}", f"{cmp} {bound:.1e}")


# ---------------------------------------------------------------------------
# completed zeta checks
# ---------------------------------------------------------------------------

def check_zeta_closed_forms() -> list[CheckResult]:
    zeta = cache(zeta_em)
    out = [
        _res("completed-zeta-at-2-pi-over-6", abs(completed_zeta(2.0) - math.pi / 6), 1e-9),
        _res("zeta-2-closed-form", abs(zeta(2.0) - math.pi ** 2 / 6), 1e-12),
        _res("zeta-4-closed-form", abs(zeta(4.0) - math.pi ** 4 / 90), 1e-12),
        _res("zeta-6-closed-form", abs(zeta(6.0) - math.pi ** 6 / 945), 1e-12),
    ]
    worst = 0.0
    for s in (2.5, 3.0, 3.5 + 1.0j, 4.0):
        worst = max(worst, abs(zeta_direct(s) - zeta(s)))
    out.append(_res("direct-series-vs-euler-maclaurin", worst, 1e-10))
    return out


def check_reflection() -> list[CheckResult]:
    """Lam(s) = Lam(1 - s) with both sides computed, not reflected.

    ``completed_zeta`` reflects Re s < 1/2 to 1 - s itself, so the left
    point is evaluated here from pi^(-s/2) Gamma(s/2) zeta(s) directly
    (``zeta_em`` is valid down to Re s = -2).  On Re s = 1/2 the left
    point is 1 - s, the complex conjugate of s.  Grid points with equal
    left points (0.4 + it and 0.6 - it) are compared once.
    """
    lam = cache(completed_zeta)
    lefts = dict.fromkeys(s if s.real < 0.5 else 1 - s
                          for s in (re10 / 10 + 1j * im for re10 in range(1, 10)
                                    for im in (0.0, 2.5, -2.5, 5.0, -5.0)))
    worst = 0.0
    for left in lefts:
        a = math.pi ** (-left / 2) * gamma(left / 2) * zeta_em(left)
        b = lam(1 - left)
        worst = max(worst, abs(a - b) / max(abs(a), 1e-30))
    return [_res("completed-zeta-reflection-grid", worst, 1e-9)]


def check_residues() -> list[CheckResult]:
    lam = cache(completed_zeta)
    t = 1e-6
    r1 = abs((t) * lam(1.0 + t) - 1.0)
    r0 = abs((t) * lam(0.0 + t) + 1.0)
    c0 = abs(lam(1 + t) + lam(1 - t)) / 2
    return [
        _res("residue-at-one-is-plus-one", r1, 1e-4),
        _res("residue-at-zero-is-minus-one", r0, 1e-4),
        _res("zeta-constant-coefficient-nonzero", c0, 0.25, larger_is_better=True),
    ]


def check_cancellation_limits() -> list[CheckResult]:
    lam = cache(completed_zeta)
    out = []
    # Lam(t) + Lam(-t): the simple poles cancel, the limit is nonzero
    t = 1e-6
    limit = lam(t) + lam(-t)
    out.append(_res("pole-cancellation-limit-nonzero", abs(limit), 0.5, larger_is_better=True))
    # the same limit equals twice the constant coefficient
    c0 = (lam(1 + t) + lam(1 - t)) / 2
    out.append(_res("pole-cancellation-limit-value", abs(limit - 2 * c0), 1e-4))
    # the short-element pair at the Heisenberg origin: [Lam(s+1)+Lam(s)]/Lam(s+2)
    d = 1e-6
    val = (lam(1 + d) + lam(d)) / lam(2 + d)
    expect = 2 * c0 / lam(2.0)
    out.append(_res("heisenberg-origin-pair-limit", abs(val - expect), 1e-4))
    # the identity-plus-reflection pair at s=-1: 1 + Lam(s+1)/Lam(s+2) -> 0
    val = 1 + lam(d) / lam(1 + d)
    out.append(_res("vanishing-at-minus-one-limit", abs(val), 1e-4))
    return out


# ---------------------------------------------------------------------------
# quadratic character checks
# ---------------------------------------------------------------------------

def check_functional_equation(modulus: int) -> list[CheckResult]:
    lam = cache(partial(completed_dirichlet, table_for_modulus(modulus)))
    ratios = [lam(1 - s) / lam(s) for s in (0.3, 1.7, 2.4)]
    spread = max(abs(r - ratios[0]) for r in ratios)
    out = [_res(f"fe-ratio-constant-mod-{modulus}", spread, 1e-6)]
    worst = 0.0
    for t in (0.3, 0.7, 1.3, 1e-4):
        eps_t = lam(1 - t) / lam(t)
        eps_t1 = lam(-t) / lam(1 + t)
        worst = max(worst, abs(eps_t * eps_t1 - 1.0))
    out.append(_res(f"eps-pair-identity-mod-{modulus}", worst, 1e-8))
    return out


def check_quadratic_derivative(modulus: int) -> list[CheckResult]:
    tbl = table_for_modulus(modulus)
    h = 1e-4
    d = abs(completed_dirichlet(tbl, h) - completed_dirichlet(tbl, -h)) / (2 * h)
    return [_res(f"quadratic-derivative-at-zero-nonzero-mod-{modulus}", d, 1e-2,
                 larger_is_better=True)]


def check_parity_cancellation(modulus: int) -> list[CheckResult]:
    """The grouped pair at the Siegel half-point, both parities.

    With the even-parity sign the grouped factor keeps a first-order pole;
    with the odd-parity sign the pole cancels exactly and the limit is
    nonzero.  Epsilon factors are 1 for a real primitive character in the
    completed normalization (checked independently above), so the plain
    expression values are faithful.  The two factors share completed
    values, each computed once.
    """
    zeta = cache(completed_zeta)
    lval = cache(partial(completed_dirichlet, table_for_modulus(modulus)))
    sc2 = _expression_for("siegel", "sc2", QU)
    c2sc2 = _expression_for("siegel", "c2sc2", QU)
    vals = {}
    for d in (1e-3, 1e-4, 1e-5):
        a = eval_expression(sc2, 0.5 + d, zeta, lval)
        b = eval_expression(c2sc2, 0.5 + d, zeta, lval)
        vals[d] = (a + b, a - b)
    even_slope = math.log(abs(vals[1e-3][0]) / abs(vals[1e-5][0])) / math.log(1e2)
    odd_small = abs(vals[1e-5][1])
    odd_drift = abs(vals[1e-4][1] - vals[1e-5][1])
    return [
        _res(f"siegel-even-parity-pole-slope-mod-{modulus}", abs(even_slope + 1.0), 0.05),
        _res(f"siegel-odd-parity-finite-mod-{modulus}", odd_small, 1e-2, larger_is_better=True),
        _res(f"siegel-odd-parity-converges-mod-{modulus}", odd_drift / max(odd_small, 1e-30), 1e-1),
    ]


# ---------------------------------------------------------------------------
# order oracle
# ---------------------------------------------------------------------------

def oracle_grid() -> list[tuple[str, str, CharClass, int | None, Q, int]]:
    """(case, element, class, modulus, point, expected order), all exact."""
    rows: list[tuple[str, str, CharClass, int | None, Q, int]] = []
    heis = [
        ("sc2s", TR, None, Q(2), -1), ("sc2s", TR, None, Q(1), -1),
        ("sc2s", TR, None, Q(3), 0), ("sc2s", TR, None, Q(-1), 1),
        ("sc2s", TR, None, Q(5, 2), 0),
        ("s", TR, None, Q(0), -1), ("s", TR, None, Q(-1), 0),
        ("s", TR, None, Q(1), 0), ("s", TR, None, Q(3), 0),
        ("c2s", TR, None, Q(0), -1), ("c2s", TR, None, Q(1), -1),
        ("c2s", TR, None, Q(-2), 1), ("c2s", TR, None, Q(4), 0),
        ("sc2s", QU, 5, Q(0), 0), ("sc2s", QU, 4, Q(2), 0),
        ("s", QU, 4, Q(0), 0), ("c2s", QU, 4, Q(1), 0),
    ]
    rows.extend(("heisenberg",) + r for r in heis)
    sieg = [
        ("c2", TR, None, Q(1, 2), -1), ("c2", TR, None, Q(3, 2), 0),
        ("c2", TR, None, Q(-3, 2), 1), ("c2", TR, None, Q(5, 2), 0),
        ("sc2", TR, None, Q(1, 2), -2), ("sc2", TR, None, Q(-1, 2), 1),
        ("sc2", TR, None, Q(1), 0), ("sc2", TR, None, Q(2), 0),
        ("c2sc2", TR, None, Q(1, 2), -2), ("c2sc2", TR, None, Q(3, 2), -1),
        ("c2sc2", TR, None, Q(-1, 2), 2), ("c2sc2", TR, None, Q(-3, 2), 1),
        ("c2sc2", TR, None, Q(3), 0),
        ("c2", QU, 4, Q(1, 2), 0), ("sc2", QU, 4, Q(1, 2), -1),
        ("c2sc2", QU, 4, Q(1, 2), -1),
    ]
    rows.extend(("siegel",) + r for r in sieg)
    return rows


def _expression_for(case: str, element: str, cls: CharClass) -> Canonical:
    """The engine's memoized canonical factor of the named element."""
    return factor_expression(case, SP4.element_by_name(element), cls)


def check_order_oracle() -> list[CheckResult]:
    """Slope-fitted against symbolic order on every row of ``oracle_grid``.

    Rows near the same point share completed values, each computed once
    per call: one memo of completed zeta, one per conductor of the grid.
    """
    out = []
    grid = oracle_grid()
    zeta = cache(completed_zeta)
    lvals = {m: cache(partial(completed_dirichlet, table_for_modulus(m)))
             for m in {row[3] for row in grid} - {None}}
    for case, element, cls, modulus, s0, expected in grid:
        expr = _expression_for(case, element, cls)
        symbolic = order_at(expr, s0)
        est = estimate_order(expr, s0, zeta, lvals.get(modulus))
        ok = (symbolic.is_known and symbolic.base == expected
              and est.fitted == expected and est.residual < 0.05)
        name = f"order-{case[:4]}-{element}-{cls[:4]}-at-{s0}"
        out.append(CheckResult(
            name, ok,
            f"symbolic={symbolic.render()} fitted={est.fitted} residual={est.residual:.4f}",
            f"expected {expected}, residual < 0.05"))
    return out


def run_numeric_checks(modulus: int) -> list[CheckResult]:
    """The full battery, deterministic order."""
    out: list[CheckResult] = []
    out += check_zeta_closed_forms()
    out += check_reflection()
    out += check_residues()
    out += check_cancellation_limits()
    out += check_functional_equation(modulus)
    if modulus != 5:
        out += check_functional_equation(5)
    out += check_quadratic_derivative(modulus)
    out += check_parity_cancellation(modulus)
    out += check_order_oracle()
    return out
