"""Floating-point companion to the symbolic layer.

Completed zeta and the completed Dirichlet L-functions of the seven
built-in real primitive characters (conductors 3, 4, 5, 7, 8, 11 and 12,
each the Kronecker symbol of its fundamental discriminant) are evaluated
with Euler-Maclaurin summation (plain and Hurwitz) and a gamma that is
``math.gamma`` on the real axis and a Lanczos sum off it;
pole orders of canonical L-expressions are estimated from the slope
of log|f| against log(delta) on a fixed ladder.  Everything the germ layer
asserts symbolically (residues, cancellation limits, the epsilon-pair
identity, nonzero atoms) is cross-checked here.

Accuracy domain: |Im s| <= 20 and -2 <= Re s <= 12 for the
Euler-Maclaurin sums (``hurwitz_zeta``, ``zeta_em``, ``dirichlet_l`` and
so ``completed_dirichlet``), with 40 partial-sum terms (``ZETA_N``), at
most 22 tail terms (``ZETA_M``); the tail stops at the first term that
cannot change the result (``_hurwitz_regular``).  Outside it they
raise :class:`NumericsError`: below Re s = -2 the partial sum and the
x^(1-s) tail term grow together and cancel, so digits are lost fast
(a relative error near 1e-6 at Re s = -3.5 for the built-in conductors).
``completed_zeta`` reflects Re s < 1/2 to 1 - s, so it covers
-11 <= Re s <= 12.  In the domain completed zeta is good to at
least 10 significant digits, completed Dirichlet values for moduli up to
12 to at least 8.  The independent ``zeta_direct`` covers Re s > 3/2 and
|Im s| <= 20, where it is good to 1e-14 relative (its truncation error
stays below 2^-53 there; the rest is rounding).

A real point is evaluated in float arithmetic, any other in complex
arithmetic (``_point``).  The Euler-Maclaurin and Borwein sums are one
code for both; only exp picks ``math`` or ``cmath``.  Two kernels take
another formula on a float: ``gamma`` returns ``math.gamma`` (good to a
few ulp, where the Lanczos sum reflected near a pole loses up to 4e-12),
and (exp(w) - 1)/w at |w| < 1/2 is ``math.expm1(w) / w`` in place of an
18-term Taylor series (``_phi_expm1``).  So a value on the axis is close
to, not bit-equal with, the complex branch's value at the same point.

Each family of the battery (``checks``) evaluates each completed value
once per call: ``eval_expression`` and ``estimate_order`` take their
completed values through the caller's functions, which ``checks`` makes
``functools.cache`` memos for the call; nothing outlives the call.  What
is built once are constants: the tail weights,
the partial-sum bases n + a with x = ZETA_N + a and log x, for zeta and
for each table's residues, and the weights of ``zeta_direct``.

Epsilon symbols are never evaluated standalone: they are entire and
nonvanishing, so for order estimation they are replaced by 1, and epsilon
identities are checked only through ratios of completed L-values coming
from the functional equation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction as Q
from functools import cache
from typing import Callable, NamedTuple

from .characters import CharClass
from .normfactor import EPS, Canonical

IM_LIMIT = 20.0
RE_MIN = -2.0
RE_LIMIT = 12.0
POLE_TOL = 1e-8
GAMMA_POLE_TOL = 1e-6
DELTA_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)
ZETA_N = 40  # Euler-Maclaurin partial-sum terms
ZETA_M = 22  # Euler-Maclaurin tail terms
ETA_TERMS = 40  # terms of the alternating series of the independent ``zeta_direct``


class NumericsError(Exception):
    pass


class PoleProximity(NumericsError):
    """Requested point is too close to a pole (or a forced 0*inf point)."""


class NotEvaluable(NumericsError):
    """Expression contains a class with no numeric stand-in."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and gamma
# ---------------------------------------------------------------------------

def bernoulli_numbers(count: int) -> list[Q]:
    """B_0 .. B_{count-1} as exact rationals (B_1 = -1/2 convention).

    The even ones come from the integer tangent numbers T_k, by
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)); T_1 .. T_n are built in
    place from (k-1)! (R. P. Brent and D. Harvey, *Fast computation of
    Bernoulli, tangent and secant numbers*, 2011, Algorithm TangentNumbers).
    The odd ones past B_1 are 0.
    """
    n = max(count - 1, 0) // 2  # the largest k with 2k < count
    tangent = [0] + [math.factorial(k - 1) for k in range(1, n + 1)]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    out = [Q(1), Q(-1, 2)][:count] + [Q(0)] * max(count - 2, 0)
    for k in range(1, n + 1):
        out[2 * k] = Q((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
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
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _point(s: complex) -> float | complex:
    """s as a float when its imaginary part is zero, else as a complex."""
    if isinstance(s, float):
        return s
    s = complex(s)
    return s.real if s.imag == 0 else s


def _exp(w: complex) -> complex:
    return cmath.exp(w) if isinstance(w, complex) else math.exp(w)


def gamma(z: complex) -> float | complex:
    """Gamma of z; a float for a real z, by ``math.gamma``.

    A complex z takes the Lanczos approximation, reflected for Re(z) < 1/2:
    the sum is taken once, at z or at the reflected point 1 - z (whose
    real part is at least 1/2), with its terms written out in index order.
    Within ``GAMMA_POLE_TOL`` of a pole either branch raises
    :class:`PoleProximity`.
    """
    z = _point(z)
    reflect = z.real < 0.5
    if reflect and abs(z.imag) < GAMMA_POLE_TOL and abs(z.real - round(z.real)) < GAMMA_POLE_TOL \
            and round(z.real) <= 0:
        raise PoleProximity(f"gamma pole at z={z}")
    if isinstance(z, float):
        return math.gamma(z)
    if reflect:
        w = 1.0 - z - 1.0  # (1 - z) - 1 rounds twice, as the sum at 1 - z did; not -z
    else:
        w = z - 1.0
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _LANCZOS_C
    x = (c0 + c1 / (w + 1) + c2 / (w + 2) + c3 / (w + 3) + c4 / (w + 4)
         + c5 / (w + 5) + c6 / (w + 6) + c7 / (w + 7) + c8 / (w + 8))
    t = w + _LANCZOS_G + 0.5
    g = _SQRT_2PI * t ** (w + 0.5) * cmath.exp(-t) * x
    return math.pi / (cmath.sin(math.pi * z) * g) if reflect else g


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta and Hurwitz zeta
# ---------------------------------------------------------------------------

@cache
def _em_coefficients() -> tuple[float, ...]:
    """float(B_2k) / (2k)! for k = 1..ZETA_M: the Euler-Maclaurin tail weights."""
    bern = bernoulli_numbers(2 * ZETA_M + 1)
    return tuple(float(bern[2 * k]) / math.factorial(2 * k) for k in range(1, ZETA_M + 1))


def _phi_expm1(w: complex) -> complex:
    """(exp(w) - 1) / w, stable near w = 0: for |w| < 0.5 by ``math.expm1``
    on a float w and by the Taylor series on a complex one."""
    if abs(w) < 0.5:
        if isinstance(w, float):
            return math.expm1(w) / w if w else 1.0
        term = 1.0
        total = 1.0
        for k in range(2, 20):
            term *= w / k
            total += term
        return total
    return (_exp(w) - 1.0) / w


# (head, x, log x): the partial-sum bases n + a, then x = ZETA_N + a and log x
_Bases = tuple[tuple[float, ...], float, float]


def _bases(a: float) -> _Bases:
    """(head, x, log x) of shift a: head holds the partial-sum bases n + a
    for n = 0..ZETA_N-1, and x = ZETA_N + a starts the tail."""
    x = ZETA_N + a
    return tuple(n + a for n in range(ZETA_N)), x, math.log(x)


_ZETA_BASES = _bases(1.0)


def _hurwitz_regular(s: complex, bases: _Bases) -> complex:
    """Hurwitz zeta at s less its pole term 1/(s-1), by Euler-Maclaurin.

    ``bases`` is ``_bases(a)``: the partial-sum bases, x = ZETA_N + a and
    log x.  The integral term x^(1-s)/(s-1) is rewritten as
    1/(s-1) - log(x)*phi(w) with w = (1-s) log(x), and only -log(x)*phi(w)
    is kept.

    The tail adds t_k = b_k (s)_(2k-1) x^(-s-2k+1) for k = 1..ZETA_M and
    stops at the first t_k of modulus m for which total + m and total - m
    leave every part of the total unchanged.  The stop changes no bit: on
    the accuracy domain x >= ZETA_N = 40, so the ratio of consecutive terms,
    |b_(k+1)/b_k| |s+2k-1| |s+2k| / x^2, is at most 0.052 (reached at
    s = 12 +- 20i, k = 21); every later term is smaller than m, and as
    rounding is monotone none of them can move a bit either.  Raises
    :class:`NumericsError` outside the accuracy domain.
    """
    if abs(s.imag) > IM_LIMIT or not RE_MIN <= s.real <= RE_LIMIT:
        raise NumericsError(f"s={s} outside the documented accuracy domain")
    head, x, lx = bases
    ms = -s
    total = 0.0
    for b in head:
        total += b ** ms
    total += -lx * _phi_expm1((1.0 - s) * lx)  # x^(1-s)/(s-1) - 1/(s-1)
    total += 0.5 * x ** ms
    power = x ** (ms - 1.0)
    rising = s  # (s)_(2k-1) built incrementally
    unit = 1.0 if isinstance(s, float) else 1.0 + 1.0j  # m * unit moves every part by m
    x2 = x * x
    for k, b in enumerate(_em_coefficients(), start=1):
        t = b * rising * power
        step = abs(t) * unit
        if total + step == total and total - step == total:
            break
        total += t
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= x2
    return total


def hurwitz_zeta(s: complex, a: float) -> float | complex:
    """Hurwitz zeta via Euler-Maclaurin; analytic continuation in s.

    Valid away from s = 1; shift a must be positive.  A float for a real
    s, a complex otherwise.
    """
    s = _point(s)
    if abs(s - 1.0) < POLE_TOL:
        raise PoleProximity("zeta pole at s=1")
    if a <= 0:
        raise ValueError("shift must be positive")
    return _hurwitz_regular(s, _ZETA_BASES if a == 1 else _bases(a)) + 1.0 / (s - 1.0)


def zeta_em(s: complex) -> float | complex:
    """Riemann zeta by Euler-Maclaurin."""
    return hurwitz_zeta(s, 1.0)


@cache
def _eta_weights() -> tuple[float, ...]:
    """w_k = (-1)^k (d_n - d_k) / d_n for k = 0..n-1, n = ETA_TERMS: the
    weights of Borwein's series for eta(s) = sum w_k (k+1)^(-s).

    d_k = n sum_(i<=k) (n+i-1)! 4^i / ((n-i)! (2i)!) is an integer, so each
    weight is an exact ratio rounded once to a float.
    """
    n = ETA_TERMS
    d, acc = [], 0
    for i in range(n + 1):
        acc += (n * math.factorial(n + i - 1) * 4 ** i
                // (math.factorial(n - i) * math.factorial(2 * i)))
        d.append(acc)
    return tuple(float(Q((-1) ** k * (d[n] - d[k]), d[n])) for k in range(n))


def zeta_direct(s: complex) -> float | complex:
    """Independent cross-check: Riemann zeta as eta(s) / (1 - 2^(1-s)).

    eta is summed by Borwein's accelerated alternating series over
    n = ETA_TERMS terms (P. Borwein, *An efficient algorithm for the
    Riemann zeta function*, CMS Conf. Proc. 27, 2000, Algorithm 2; see
    also Cohen, Rodriguez Villegas and Zagier, *Convergence acceleration
    of alternating series*, Exp. Math. 9, 2000).  No Bernoulli numbers
    and nothing of the Euler-Maclaurin kernel: only the weights of
    ``_eta_weights`` and float powers.  For s = sigma + it with
    sigma >= 1/2 the truncation error is at most
    3 (1 + 2|t|) / ((3 + sqrt 8)^n |Gamma(s)| |1 - 2^(1-s)|), which stays
    below 2^-53 for Re s > 3/2 and |t| <= IM_LIMIT.  Outside that domain
    raises :class:`NumericsError`.  A float for a real s, a complex
    otherwise.
    """
    s = _point(s)
    if s.real <= 1.5:
        raise NumericsError("direct summation needs Re(s) well above 1")
    if abs(s.imag) > IM_LIMIT:
        raise NumericsError(f"s={s} outside the documented accuracy domain")
    ms = -s
    total = 0.0
    for k, w in enumerate(_eta_weights(), start=1):
        total += w * k ** ms
    return total / (1.0 - 2.0 ** (1.0 - s))


def completed_zeta(s: complex) -> float | complex:
    """pi^(-s/2) Gamma(s/2) zeta(s); reflected for Re(s) < 1/2.

    The completed function satisfies Lam(s) = Lam(1-s) exactly; building
    the reflection in keeps gamma arguments at real part >= 1/4, away from
    its poles, and makes the symmetry exact by construction.  Simple poles
    at 0 and 1.  A float for a real s, a complex otherwise.
    """
    s = _point(s)
    if abs(s) < POLE_TOL or abs(s - 1.0) < POLE_TOL:
        raise PoleProximity(f"completed zeta pole at s={s}")
    if s.real < 0.5:
        s = 1.0 - s
    zeta = _hurwitz_regular(s, _ZETA_BASES) + 1.0 / (s - 1.0)  # zeta_em(s), s normalized
    return _exp(-s / 2.0 * _LOG_PI) * gamma(s / 2.0) * zeta


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


class DirichletTable(NamedTuple):
    """Value table on 0..q-1 of a built-in real primitive character.

    Only :func:`table_for_modulus` builds one: chi is the Kronecker symbol
    (d|.) of a fundamental discriminant d, so every table is real,
    primitive and nontrivial by construction.  ``parity`` is 0 (even) for
    d > 0 and 1 (odd) for d < 0.  ``residues`` pairs chi(a) with
    ``_bases(a / q)`` for each residue a with chi(a) != 0.
    """

    modulus: int
    values: tuple[int, ...]
    parity: int
    residues: tuple[tuple[int, _Bases], ...]


# fundamental discriminant of the real primitive character of each built-in conductor
QUADRATIC_DISCRIMINANTS = {3: -3, 4: -4, 5: 5, 7: -7, 8: 8, 11: -11, 12: 12}


@cache
def table_for_modulus(q: int) -> DirichletTable:
    """The real primitive quadratic character of conductor q (small q)."""
    if q not in QUADRATIC_DISCRIMINANTS:
        raise ValueError(f"no built-in quadratic character of conductor {q}")
    d = QUADRATIC_DISCRIMINANTS[q]
    values = tuple(kronecker_symbol(d, n) for n in range(q))
    residues = tuple((chi, _bases(a / q)) for a, chi in enumerate(values) if chi)
    return DirichletTable(q, values, 0 if d > 0 else 1, residues)


def dirichlet_l(tbl: DirichletTable, s: complex) -> float | complex:
    """L(s, chi) by Hurwitz-zeta expansion over residues.

    chi is nontrivial, so the per-residue zeta poles at s = 1 cancel (the
    character values sum to zero): only the regular Euler-Maclaurin parts
    are summed and the value is finite on the whole domain.
    """
    s = _point(s)
    total = 0.0
    for chi, bases in tbl.residues:
        total += chi * _hurwitz_regular(s, bases)
    return _exp(-s * math.log(tbl.modulus)) * total


def completed_dirichlet(tbl: DirichletTable, s: complex) -> float | complex:
    """(q/pi)^((s+delta)/2) Gamma((s+delta)/2) L(s,chi), delta the parity.

    Computed directly (no reflection), so the functional-equation checks
    against this function are genuine.  At a pole of the gamma factor
    (compensated by a trivial zero of L) ``gamma`` raises
    :class:`PoleProximity` before L is evaluated.  A float for a real s,
    a complex otherwise.
    """
    s = _point(s)
    z = (s + tbl.parity) / 2.0
    return (tbl.modulus / math.pi) ** z * gamma(z) * dirichlet_l(tbl, s)


# ---------------------------------------------------------------------------
# numeric evaluation of canonical expressions and order estimation
# ---------------------------------------------------------------------------

Completed = Callable[[float | complex], float | complex]


def eval_expression(expr: Canonical, s: complex, zeta: Completed,
                    lval: Completed | None = None) -> complex:
    """Numeric value of a compiled L-expression at a complex point.

    A symbol of class None (a trivial power of chi) is read through
    ``zeta`` at its argument reflected to Re >= 1/2, where
    ``completed_zeta`` evaluates it, so s and 1 - s share one value; a
    quadratic one through ``lval``, the completed L-function of chi, and
    any other raises :class:`NotEvaluable`.  Epsilon symbols evaluate to
    1 (entire and nonvanishing, so pole orders are unaffected; identities
    involving epsilon are checked via functional-equation ratios, never
    through this path).  A caller that passes memos evaluates each
    completed value once, and decides how long they live.
    """
    out = 1 + 0j
    for kind, _, A, B, D, e, c, _ in expr.symbols:
        if kind == EPS:
            continue
        arg = A / D * s + B / D  # A / D rounds once, to float(Fraction(A, D))
        if c is None:
            value = zeta(1.0 - arg if arg.real < 0.5 else arg)  # as completed_zeta reflects
        elif c is CharClass.QUADRATIC and lval is not None:
            value = lval(arg)
        else:
            raise NotEvaluable(f"no completed L-function given for class {c}")
        out *= value ** e
    return out


# log(delta) over DELTA_LADDER, its deviations from their mean and the sum
# of their squares: the x side of every slope fit
_LOG_DELTAS = tuple(math.log(d) for d in DELTA_LADDER)
_LOG_DELTA_DEVIATIONS = tuple(x - sum(_LOG_DELTAS) / len(_LOG_DELTAS) for x in _LOG_DELTAS)
_LOG_DELTA_SXX = sum(dx ** 2 for dx in _LOG_DELTA_DEVIATIONS)


class OrderEstimate(NamedTuple):
    slope: float
    fitted: int
    residual: float


def estimate_order(expr: Canonical, s0: Q, zeta: Completed,
                   lval: Completed | None = None) -> OrderEstimate:
    """Least-squares slope of log|f| against log(delta) at s0 + DELTA_LADDER.

    The fitted integer is the nearest integer to the slope; the residual
    (distance to it) must stay below 0.05 for an estimate to count as
    unambiguous at double precision.  ``zeta`` and ``lval`` are passed on
    to :func:`eval_expression`.
    """
    s = float(s0)
    ys = []
    for d in DELTA_LADDER:
        try:
            m = abs(eval_expression(expr, s + d, zeta, lval))
        except OverflowError:  # a float power past the range raises, not inf
            m = math.inf
        if not (1e-280 < m < 1e280):
            raise NumericsError(f"magnitude {m} out of range at delta={d}")
        ys.append(math.log(m))
    ybar = sum(ys) / len(ys)
    slope = sum(dx * (y - ybar) for dx, y in zip(_LOG_DELTA_DEVIATIONS, ys)) / _LOG_DELTA_SXX
    fitted = round(slope)
    return OrderEstimate(slope, int(fitted), abs(slope - fitted))

