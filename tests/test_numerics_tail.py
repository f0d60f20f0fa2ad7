"""The Euler-Maclaurin tail that stops early gives the bits of the full tail.

``numerics._hurwitz_regular`` stops its Bernoulli tail at the first term
that cannot change a bit of the total.  The reference here is the full
``ZETA_M``-term tail, written out as the kernels computed it before the
stop: the same operations in the same order.  Values are compared by
``repr``, so a sign flip of a zero shows too.

The stop is exact only while consecutive tail terms shrink fast enough on
the whole accuracy domain; a test pins that ratio bound, so a change of
``ZETA_N``, ``IM_LIMIT``, ``RE_MIN`` or ``RE_LIMIT`` that breaks the proof
fails here.  The last test pins the truncation bound of ``zeta_direct``'s
alternating series in the same way, for ``ETA_TERMS`` and ``IM_LIMIT``.
"""

import math
import random
from fractions import Fraction as Q

from sp4eis import numerics
from sp4eis.numerics import (
    ETA_TERMS, IM_LIMIT, POLE_TOL, QUADRATIC_DISCRIMINANTS, RE_LIMIT, RE_MIN, ZETA_M, ZETA_N,
    _em_coefficients, dirichlet_l, gamma, hurwitz_zeta, table_for_modulus,
)

SEED = 20150601


def _reference_regular(s, a):
    """Hurwitz zeta less 1/(s-1) with all ZETA_M tail terms."""
    total = 0.0
    for n in range(ZETA_N):
        total += (n + a) ** (-s)
    x = ZETA_N + a
    lx = math.log(x)
    total += -lx * numerics._phi_expm1((1.0 - s) * lx)
    total += 0.5 * x ** (-s)
    power = x ** (-s - 1.0)
    rising = s
    for k, b in enumerate(_em_coefficients(), start=1):
        total += b * rising * power
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        power /= x * x
    return total


def _reference_hurwitz(s, a):
    s = numerics._point(s)
    if abs(s - 1.0) < POLE_TOL:
        raise numerics.PoleProximity("zeta pole at s=1")
    return _reference_regular(s, a) + 1.0 / (s - 1.0)


def _reference_dirichlet_l(tbl, s):
    q = tbl.modulus
    s = numerics._point(s)
    total = 0.0
    for a, chi in enumerate(tbl.values):
        if chi:
            total += chi * _reference_regular(s, a / q)
    return numerics._exp(-s * math.log(q)) * total


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except numerics.PoleProximity as exc:
        return type(exc).__name__


def _points(rng, count):
    """Corners and edges of the domain, then random real, (1/8)Z and complex points."""
    out = [complex(re, im) for re in (RE_MIN, RE_LIMIT) for im in (-IM_LIMIT, IM_LIMIT)]
    out += [RE_MIN, RE_LIMIT, complex(RE_MIN, 1e-3), complex(0.5, IM_LIMIT)]
    for _ in range(count):
        out.append(rng.uniform(RE_MIN, RE_LIMIT))
        out.append(Q(rng.randint(int(8 * RE_MIN), int(8 * RE_LIMIT)), 8))
        out.append(complex(rng.uniform(RE_MIN, RE_LIMIT), rng.uniform(-IM_LIMIT, IM_LIMIT)))
    return out


def _shifts():
    """Every residue shift a/q of the built-in tables, and a = 1 for zeta."""
    out = {1.0}
    for q in QUADRATIC_DISCRIMINANTS:
        out.update(a / q for a, chi in enumerate(table_for_modulus(q).values) if chi)
    return sorted(out)


def test_early_stop_matches_full_tail_bit_for_bit():
    rng = random.Random(SEED)
    tables = [table_for_modulus(q) for q in sorted(QUADRATIC_DISCRIMINANTS)]
    shifts = _shifts()
    mismatches = []
    for s in _points(rng, 100):
        for a in shifts:
            want, got = _outcome(_reference_hurwitz, s, a), _outcome(hurwitz_zeta, s, a)
            if want != got:
                mismatches.append(("hurwitz_zeta", s, a, want, got))
        for tbl in tables:
            want, got = _reference_dirichlet_l(tbl, s), dirichlet_l(tbl, s)
            if repr(want) != repr(got):
                mismatches.append(("dirichlet_l", s, tbl.modulus, want, got))
    assert not mismatches, mismatches[:10]


def test_tail_terms_shrink_by_a_tenth_on_the_domain():
    # |t_(k+1) / t_k| = |b_(k+1) / b_k| |s + 2k - 1| |s + 2k| / x^2 with
    # x = ZETA_N + a > ZETA_N.  Each |s + c| is convex in s, so its largest
    # value on the rectangle sits at a corner; the product of the two corner
    # maxima bounds the ratio everywhere in the domain.
    b = _em_coefficients()
    corners = [complex(re, im) for re in (RE_MIN, RE_LIMIT) for im in (-IM_LIMIT, IM_LIMIT)]
    worst = 0.0
    for k in range(1, ZETA_M):
        growth = max(abs(s + 2 * k - 1) for s in corners) * max(abs(s + 2 * k) for s in corners)
        worst = max(worst, abs(b[k] / b[k - 1]) * growth / ZETA_N ** 2)
    assert worst < 0.1, worst


def test_eta_series_truncation_stays_below_rounding_on_the_domain():
    # Borwein (2000, Algorithm 2) bounds the error of zeta_direct's n-term
    # series at s = sigma + it, sigma >= 1/2, by
    # 3 (1 + 2|t|) / ((3 + sqrt 8)^n |Gamma(s)| |1 - 2^(1-s)|).  Relaxed to
    # |1 - 2^(1-s)| >= 1 - 2^(1-sigma), it grows with |t| (|Gamma| falls as
    # |t| grows) and falls as sigma grows past 3/2 (Re digamma > 0 there),
    # so on Re s > 3/2, |t| <= IM_LIMIT its largest value sits on the edges
    # Re s = 3/2 and |Im s| = IM_LIMIT, at their corner.
    def bound(s):
        t = abs(s.imag)
        return 3 * (1 + 2 * t) / ((3 + math.sqrt(8)) ** ETA_TERMS * abs(gamma(s))
                                  * (1 - 2 ** (1 - s.real)))
    edges = [complex(1.5, IM_LIMIT * k / 100) for k in range(-100, 101)]
    edges += [complex(1.5 + k / 8, im) for k in range(8 * 11) for im in (-IM_LIMIT, IM_LIMIT)]
    worst = max(bound(s) for s in edges)
    assert worst < 2 ** -53, worst
