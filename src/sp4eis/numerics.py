"""Floating-point companion to the symbolic layer.

Completed zeta and the completed Dirichlet L-functions of the seven
built-in real primitive characters (conductors 3, 4, 5, 7, 8, 11 and 12,
each the Kronecker symbol of its fundamental discriminant) are evaluated
with Euler-Maclaurin summation (plain and Hurwitz) and a Lanczos gamma;
pole orders of canonical L-expressions are estimated from the slope
of log|f| against log(delta) on a fixed ladder.  Everything the germ layer
asserts symbolically (residues, cancellation limits, the epsilon-pair
identity, nonzero atoms) is cross-checked here.

Accuracy domain: |Im s| <= 20 and -2 <= Re s <= 12 for the
Euler-Maclaurin sums (``hurwitz_zeta``, ``zeta_em``, ``dirichlet_l`` and
so ``completed_dirichlet``), with the fixed term counts ``ZETA_N = 40``
(partial sum) and ``ZETA_M = 22`` (Bernoulli tail).  Outside it they
raise :class:`NumericsError`: below Re s = -2 the partial sum and the
x^(1-s) tail term grow together and cancel, so digits are lost fast
(a relative error near 1e-6 at Re s = -3.5 for the built-in conductors).
``completed_zeta`` reflects Re s < 1/2 to 1 - s, so it covers
-11 <= Re s <= 12.  In the domain completed zeta is good to at
least 10 significant digits, completed Dirichlet values for moduli up to
12 to at least 8.

Within one check, ``eval_expression`` and ``estimate_order`` can share a
caller-owned mapping of the completed values already computed, so each
(class, table, point) is evaluated once; nothing is cached across calls.

Epsilon symbols are never evaluated standalone: they are entire and
nonvanishing, so for order estimation they are replaced by 1, and epsilon
identities are checked only through ratios of completed L-values coming
from the functional equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cache

from .characters import CharClass, power_class
from .normfactor import EPS, LExpression

IM_LIMIT = 20.0
RE_MIN = -2.0
RE_LIMIT = 12.0
POLE_TOL = 1e-8
GAMMA_POLE_TOL = 1e-6
DELTA_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
ZETA_N = 40  # Euler-Maclaurin partial-sum terms
ZETA_M = 22  # Euler-Maclaurin tail terms
DIRECT_TERMS = 4000  # partial-sum terms of the independent ``zeta_direct``


class NumericsError(Exception):
    pass


class PoleProximity(NumericsError):
    """Requested point is too close to a pole (or a forced 0*inf point)."""


class NotEvaluable(NumericsError):
    """Expression contains a class with no numeric stand-in."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and Lanczos gamma
# ---------------------------------------------------------------------------

def bernoulli_numbers(count: int) -> list[Q]:
    """B_0 .. B_{count-1} as exact rationals (B_1 = -1/2 convention)."""
    out: list[Q] = []
    for m in range(count):
        if m == 0:
            out.append(Q(1))
            continue
        acc = Q(0)
        for j in range(m):
            acc += Q(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return out


_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(z: complex) -> complex:
    """Lanczos approximation, with reflection for Re(z) < 1/2."""
    z = complex(z)
    if z.real < 0.5:
        if abs(z.imag) < GAMMA_POLE_TOL and abs(z.real - round(z.real)) < GAMMA_POLE_TOL \
                and round(z.real) <= 0:
            raise PoleProximity(f"gamma pole at z={z}")
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    z -= 1.0
    x = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        x += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * x


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta and Hurwitz zeta
# ---------------------------------------------------------------------------

@cache
def _em_coefficients() -> tuple[float, ...]:
    """float(B_2k) / (2k)! for k = 1..ZETA_M: the Euler-Maclaurin tail weights."""
    bern = bernoulli_numbers(2 * ZETA_M + 1)
    return tuple(float(bern[2 * k]) / math.factorial(2 * k) for k in range(1, ZETA_M + 1))


def _phi_expm1(w: complex) -> complex:
    """(exp(w) - 1) / w, stable near w = 0."""
    if abs(w) < 0.5:
        term = complex(1.0)
        total = complex(1.0)
        for k in range(2, 20):
            term *= w / k
            total += term
        return total
    return (cmath.exp(w) - 1.0) / w


def _tail_weights(s: complex) -> tuple[complex, ...]:
    """b_k (s)_(2k-1) for k = 1..ZETA_M: the Euler-Maclaurin tail at s.

    They depend on s alone, so one tuple serves every shift at s.  Raises
    :class:`NumericsError` outside the accuracy domain.
    """
    if abs(s.imag) > IM_LIMIT or not RE_MIN <= s.real <= RE_LIMIT:
        raise NumericsError(f"s={s} outside the documented accuracy domain")
    out = []
    rising = s  # (s)_(2k-1) built incrementally
    for k, b in enumerate(_em_coefficients(), start=1):
        out.append(b * rising)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return tuple(out)


def _hurwitz_regular(s: complex, a: float, tail: tuple[complex, ...]) -> complex:
    """Hurwitz zeta at s less its pole term 1/(s-1), by Euler-Maclaurin.

    The integral term x^(1-s)/(s-1) is rewritten as
    1/(s-1) - log(x)*phi(w) with w = (1-s) log(x), and only
    -log(x)*phi(w) is kept.  ``tail`` is ``_tail_weights(s)``.
    """
    if a <= 0:
        raise ValueError("shift must be positive")
    total = complex(0.0)
    for n in range(ZETA_N):
        total += (n + a) ** (-s)
    x = ZETA_N + a
    lx = math.log(x)
    total += -lx * _phi_expm1((1.0 - s) * lx)  # x^(1-s)/(s-1) - 1/(s-1)
    total += 0.5 * x ** (-s)
    power = x ** (-s - 1.0)
    for w in tail:
        total += w * power
        power /= x * x
    return total


def hurwitz_zeta(s: complex, a: float) -> complex:
    """Hurwitz zeta via Euler-Maclaurin; analytic continuation in s.

    Valid away from s = 1; shift a must be positive.
    """
    s = complex(s)
    if abs(s - 1.0) < POLE_TOL:
        raise PoleProximity("zeta pole at s=1")
    return _hurwitz_regular(s, a, _tail_weights(s)) + 1.0 / (s - 1.0)


def zeta_em(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin."""
    return hurwitz_zeta(s, 1.0)


def zeta_direct(s: complex) -> complex:
    """Independent cross-check: partial sum with integral and half-term tail.

    No Bernoulli corrections; accurate to ~|s| * N^(-Re(s)-1) / 12, i.e.
    well below 1e-10 for Re(s) >= 3 with N = DIRECT_TERMS.
    """
    s = complex(s)
    if s.real <= 1.5:
        raise NumericsError("direct summation needs Re(s) well above 1")
    total = complex(0.0)
    for n in range(1, DIRECT_TERMS):
        total += n ** (-s)
    total += DIRECT_TERMS ** (1.0 - s) / (s - 1.0)
    total += 0.5 * DIRECT_TERMS ** (-s)
    return total


def completed_zeta(s: complex) -> complex:
    """pi^(-s/2) Gamma(s/2) zeta(s); reflected for Re(s) < 1/2.

    The completed function satisfies Lam(s) = Lam(1-s) exactly; building
    the reflection in keeps gamma arguments in the Lanczos sweet spot and
    makes the symmetry exact by construction.  Simple poles at 0 and 1.
    """
    s = complex(s)
    if abs(s) < POLE_TOL or abs(s - 1.0) < POLE_TOL:
        raise PoleProximity(f"completed zeta pole at s={s}")
    if s.real < 0.5:
        s = 1.0 - s
    return cmath.exp(-s / 2.0 * math.log(math.pi)) * gamma(s / 2.0) * zeta_em(s)


# ---------------------------------------------------------------------------
# Dirichlet characters of small modulus
# ---------------------------------------------------------------------------

def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for arbitrary integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    k = 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


@dataclass(frozen=True)
class DirichletTable:
    """Value table on 0..q-1 of a built-in real primitive character.

    Only :func:`table_for_modulus` builds one: chi is the Kronecker symbol
    (d|.) of a fundamental discriminant d, so every table is real,
    primitive and nontrivial by construction.  ``parity`` is 0 (even) for
    d > 0 and 1 (odd) for d < 0.
    """

    modulus: int
    values: tuple[int, ...]
    parity: int


# fundamental discriminant of the real primitive character of each built-in conductor
QUADRATIC_DISCRIMINANTS = {3: -3, 4: -4, 5: 5, 7: -7, 8: 8, 11: -11, 12: 12}


@cache
def table_for_modulus(q: int) -> DirichletTable:
    """The real primitive quadratic character of conductor q (small q)."""
    if q not in QUADRATIC_DISCRIMINANTS:
        raise ValueError(f"no built-in quadratic character of conductor {q}")
    d = QUADRATIC_DISCRIMINANTS[q]
    return DirichletTable(q, tuple(kronecker_symbol(d, n) for n in range(q)), 0 if d > 0 else 1)


def dirichlet_l(tbl: DirichletTable, s: complex) -> complex:
    """L(s, chi) by Hurwitz-zeta expansion over residues.

    chi is nontrivial, so the per-residue zeta poles at s = 1 cancel (the
    character values sum to zero): only the regular Euler-Maclaurin parts
    are summed and the value is finite on the whole domain.  The tail
    weights depend on s alone and are built once for all residues.
    """
    q = tbl.modulus
    s = complex(s)
    tail = _tail_weights(s)
    scale = cmath.exp(-s * math.log(q))
    total = complex(0.0)
    for a, chi in enumerate(tbl.values):
        if chi:
            total += chi * _hurwitz_regular(s, a / q, tail)
    return scale * total


def completed_dirichlet(tbl: DirichletTable, s: complex) -> complex:
    """(q/pi)^((s+delta)/2) Gamma((s+delta)/2) L(s,chi), delta the parity.

    Computed directly (no reflection), so the functional-equation checks
    against this function are genuine.  At a pole of the gamma factor
    (compensated by a trivial zero of L) ``gamma`` raises
    :class:`PoleProximity` before L is evaluated.
    """
    s = complex(s)
    z = (s + tbl.parity) / 2.0
    return (tbl.modulus / math.pi) ** z * gamma(z) * dirichlet_l(tbl, s)


# ---------------------------------------------------------------------------
# numeric evaluation of canonical expressions and order estimation
# ---------------------------------------------------------------------------

def eval_expression(expr: LExpression, cls: CharClass, s: complex,
                    table: DirichletTable | None = None,
                    known: dict | None = None) -> complex:
    """Numeric value of a canonical L-expression at a complex point.

    chi is realized as the trivial character or through ``table``; epsilon
    symbols evaluate to 1 (entire and nonvanishing, so pole orders are
    unaffected; identities involving epsilon are checked via functional-
    equation ratios, never through this path).

    ``known`` maps (effective class, Dirichlet table or None, argument) to
    a completed value already computed.  It is read and filled in place,
    so a caller evaluating many expressions near the same points computes
    each completed value once; the caller decides how long it lives.
    """
    if known is None:
        known = {}
    out = complex(float(expr.scalar))
    for sym, e in expr.factors:
        if sym.kind == EPS:
            continue
        eff = power_class(cls, sym.power)
        if eff is CharClass.TRIVIAL:
            tbl = None
        elif eff is CharClass.QUADRATIC:
            if table is None:
                raise NotEvaluable("a Dirichlet table is needed for quadratic classes")
            tbl = table
        else:
            raise NotEvaluable(f"no numeric stand-in for class {eff.value}")
        arg = float(sym.arg.a) * s + float(sym.arg.b)
        key = (eff, tbl, arg)
        if key not in known:
            known[key] = completed_zeta(arg) if tbl is None else completed_dirichlet(tbl, arg)
        out *= known[key] ** e
    return out


@dataclass
class OrderEstimate:
    slope: float
    fitted: int
    residual: float


def estimate_order(expr: LExpression, cls: CharClass, s0: Q,
                   table: DirichletTable | None = None,
                   known: dict | None = None) -> OrderEstimate:
    """Least-squares slope of log|f| against log(delta) at s0 + DELTA_LADDER.

    The fitted integer is the nearest integer to the slope; the residual
    (distance to it) must stay below 0.05 for an estimate to count as
    unambiguous at double precision.  ``known`` is passed on to
    :func:`eval_expression`.
    """
    xs, ys = [], []
    for d in DELTA_LADDER:
        v = eval_expression(expr, cls, float(s0) + d, table, known)
        m = abs(v)
        if not (1e-280 < m < 1e280):
            raise NumericsError(f"magnitude {m} out of range at delta={d}")
        xs.append(math.log(d))
        ys.append(math.log(m))
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / \
        sum((x - xbar) ** 2 for x in xs)
    fitted = round(slope)
    return OrderEstimate(slope, int(fitted), abs(slope - fitted))

