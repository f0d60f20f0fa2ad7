"""Kernel values replay pinned bits, on the real axis and off it.

``data/numerics_pins.tsv`` holds ``float.hex`` of the real and imaginary
parts of ``gamma``, ``zeta_em``, ``completed_zeta``, ``hurwitz_zeta`` at
the shifts in ``SHIFTS`` and ``completed_dirichlet`` for every built-in
conductor, at the points of ``points()``: (1/8)Z in [-2, 12], the points
``estimate_order`` reads for each ``oracle_grid`` row (s0 plus each
``DELTA_LADDER`` offset), and a few complex points of the mpmath grid.  A
point where a function meets a pole is not pinned: there it raises
:class:`PoleProximity`, the one exception ``evaluate`` lets through.

A real point is evaluated in float arithmetic and any other point in
complex arithmetic.  The float branch takes ``math.gamma``, and
``math.expm1`` for (exp(w) - 1)/w at |w| < 1/2, where the complex branch
takes the Lanczos sum and a Taylor series; the last two tests hold the
branches to one function.  Every value must match its pin exactly, except
at an integer real point: there a complex power ``x ** n`` with integral
|n| <= 100 is computed by repeated multiplication, while the float power
calls libm ``pow``, so the two may differ in the last bits.  At integer
points each part may therefore differ from its pin by at most 4 ulp, and
such a pin is kept (``holds``).  ``pins.py`` replays the store and
regenerates it when values change on purpose.
"""

import math
from fractions import Fraction as Q

import pins
from sp4eis.checks import oracle_grid
from sp4eis.numerics import (
    DELTA_LADDER, QUADRATIC_DISCRIMINANTS, PoleProximity, completed_dirichlet, completed_zeta,
    _phi_expm1, dirichlet_l, gamma, hurwitz_zeta, table_for_modulus,
    zeta_direct, zeta_em,
)

SHIFTS = (Q(1, 12), Q(1, 3), Q(1, 2), Q(3, 4), Q(1))
# points of the GRID in test_numerics_mpmath.py, off the real axis
COMPLEX_POINTS = (complex(-2.0, 20.0), complex(-1.25, -6.0), complex(0.3, 1.5),
                  complex(0.5, 13.0), complex(2.0, -6.0), complex(4.75, 20.0),
                  complex(12.0, 1.5))
ULPS_AT_INTEGERS = 4


def functions() -> dict:
    """Name -> one-argument kernel, in file order."""
    out = {"gamma": gamma, "zeta_em": zeta_em, "completed_zeta": completed_zeta}
    for a in SHIFTS:
        out[f"hurwitz_zeta[a={a}]"] = lambda s, a=float(a): hurwitz_zeta(s, a)
    for q in sorted(QUADRATIC_DISCRIMINANTS):
        out[f"completed_dirichlet[q={q}]"] = lambda s, t=table_for_modulus(q): \
            completed_dirichlet(t, s)
    return out


def points() -> list[complex]:
    """The pinned points, in file order, without repeats."""
    out = [complex(k / 8) for k in range(-16, 97)]
    for s0 in dict.fromkeys(row[4] for row in oracle_grid()):
        out += [complex(float(s0) + d) for d in DELTA_LADDER]
    out += COMPLEX_POINTS
    return list(dict.fromkeys(out))


def evaluate() -> dict:
    """Key -> kernel value at every point that is not a pole."""
    out = {}
    for name, f in functions().items():
        for s in points():
            try:
                out[name, repr(s.real), repr(s.imag)] = complex(f(s))
            except PoleProximity:
                pass
    return out


def holds(old: pins.Row, new: pins.Row) -> bool:
    """Whether a pinned row still holds for a new value at its key: each
    part equal, or within ``ULPS_AT_INTEGERS`` ulp at an integer real point."""
    ulps = ULPS_AT_INTEGERS if float(old[2]) == 0 and float(old[1]).is_integer() else 0
    pairs = [(float.fromhex(got), float.fromhex(pin)) for got, pin in zip(new[3:], old[3:])]
    return all(got == pin or abs(got - pin) <= ulps * math.ulp(pin) for got, pin in pairs)


STORE = pins.Store(pins.DATA / "numerics_pins.tsv",
                   "function\tRe s\tIm s\tfloat.hex(Re value)\tfloat.hex(Im value)", 3,
                   lambda: [k + (v.real.hex(), v.imag.hex()) for k, v in evaluate().items()],
                   holds)


def test_kernel_values_replay_pins():
    pins.replay(STORE)


def test_real_points_pin_a_positive_zero_imaginary_part():
    """A real point gives a float, whose imaginary part the store writes as
    ``0x0.0p+0``; ``holds`` would keep any other zero there, so this
    holds the file to what the engine gives."""
    odd = [row for row in pins.read(STORE.path) if row[2] == "0.0" and row[4] != "0x0.0p+0"]
    assert not odd, odd[:5]


def test_real_points_give_floats_and_complex_points_complex():
    tbl = table_for_modulus(5)
    kernels = (gamma, zeta_em, completed_zeta, zeta_direct, lambda s: hurwitz_zeta(s, 0.25),
               lambda s: dirichlet_l(tbl, s), lambda s: completed_dirichlet(tbl, s))
    for f in kernels:
        for s in (2.5, 3, Q(7, 2), complex(2.5, 0.0)):
            assert type(f(s)) is float, (f, s)
        assert type(f(complex(2.5, 1e-3))) is complex, f


def test_real_gamma_is_the_complex_branch_on_the_axis():
    """``math.gamma`` on a float against the Lanczos branch just above the
    axis.  Left of 1/2 the Lanczos branch reflects through sin(pi z), and
    the rounding of pi z costs it |pi z cot(pi z)| ulp near a pole (about
    4e-12 at z = -0.99999), so that condition number widens the bound."""
    for s in points():
        x = s.real
        if s.imag:
            continue
        try:
            real = gamma(x)
        except PoleProximity:
            continue
        cond = abs(math.pi * x / math.tan(math.pi * x)) if x < 0.5 else 0.0
        bound = (1e-13 + cond * 2 ** -52) * abs(real)
        assert abs(gamma(complex(x, 1e-300)).real - real) <= bound, x


def test_real_phi_expm1_is_the_complex_branch_on_the_axis():
    # math.expm1 on a float, the Taylor series on a complex |w| < 0.5, and
    # exp(w) - 1 on either past it
    for w in (0.0, 1e-300, -1e-12, 1e-8, 0.1, -0.3, 0.4999999, -0.49999, 0.5, -0.5,
              0.5000001, -0.75, 2.0, -7.4, 7.4, 30.0):
        real = _phi_expm1(w)
        on_axis = _phi_expm1(complex(w, 0.0))
        assert type(real) is float and on_axis.imag == 0, w
        assert abs(on_axis.real - real) <= 2e-15 * abs(real), w
