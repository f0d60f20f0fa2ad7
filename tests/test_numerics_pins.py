"""Kernel values replay pinned bits, on the real axis and off it.

``data/numerics_pins.tsv`` holds ``float.hex`` of the real and imaginary
parts of ``gamma``, ``zeta_em``, ``completed_zeta``, ``hurwitz_zeta`` at
the shifts in ``SHIFTS`` and ``completed_dirichlet`` for every built-in
conductor, at the points of ``points()``: (1/8)Z in [-2, 12], the points
``estimate_order`` reads for each ``oracle_grid`` row (s0 plus each
``DELTA_LADDER`` offset), and a few complex points of the mpmath grid.  A
point where a function meets a pole is not pinned; there it must raise
:class:`PoleProximity`.

A real point is evaluated in float arithmetic and any other point in
complex arithmetic.  With zero imaginary parts both perform the same IEEE
operations, so every value must match its pin exactly, except at an
integer real point: there a complex power ``x ** n`` with integral
|n| <= 100 is computed by repeated multiplication, while the float power
calls libm ``pow``, so the two may differ in the last bits.  At integer
points each part may therefore differ from its pin by at most 4 ulp.

Regenerate the file only when values change on purpose:

    PYTHONPATH=src python tests/test_numerics_pins.py
"""

import math
from fractions import Fraction as Q
from pathlib import Path

from sp4eis.checks import oracle_grid
from sp4eis.numerics import (
    DELTA_LADDER, QUADRATIC_DISCRIMINANTS, PoleProximity, completed_dirichlet, completed_zeta,
    dirichlet_l, gamma, hurwitz_zeta, table_for_modulus, zeta_direct, zeta_em,
)

PINS = Path(__file__).resolve().parent / "data" / "numerics_pins.tsv"
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


def key(name: str, s: complex) -> tuple[str, str, str]:
    return name, repr(s.real), repr(s.imag)


def evaluate() -> dict:
    """Key -> kernel value at every point that is not a pole."""
    out = {}
    for name, f in functions().items():
        for s in points():
            try:
                out[key(name, s)] = complex(f(s))
            except PoleProximity:
                pass
    return out


def _agrees(got: float, pinned: float, integer_point: bool) -> bool:
    if got == pinned:
        return True
    return integer_point and abs(got - pinned) <= ULPS_AT_INTEGERS * math.ulp(pinned)


def test_kernel_values_replay_pins():
    pinned = {}
    for line in PINS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            *k, re_hex, im_hex = line.split("\t")
            pinned[tuple(k)] = complex(float.fromhex(re_hex), float.fromhex(im_hex))
    got = evaluate()
    assert list(got) == list(pinned)
    fs = functions()
    for s in points():
        for name in fs:
            if key(name, s) not in got:
                try:
                    fs[name](s)
                except PoleProximity:
                    continue
                raise AssertionError(f"{name} at {s} is neither pinned nor a pole")
    mismatches = []
    for k, value in got.items():
        s = complex(float(k[1]), float(k[2]))
        integer_point = s.imag == 0 and s.real == int(s.real)
        if not (_agrees(value.real, pinned[k].real, integer_point)
                and _agrees(value.imag, pinned[k].imag, integer_point)):
            mismatches.append((k, pinned[k], value))
    assert not mismatches, mismatches[:10]


def test_real_points_pin_a_positive_zero_imaginary_part():
    """A real point gives a float, whose imaginary part the regenerator
    writes as ``0x0.0p+0``; a pin with any other text there would be
    rewritten at an unchanged engine."""
    odd = [line for line in PINS.read_text(encoding="utf-8").splitlines()
           if not line.startswith("#") and line.split("\t")[2] == "0.0"
           and line.split("\t")[4] != "0x0.0p+0"]
    assert not odd, odd[:5]


def test_real_points_give_floats_and_complex_points_complex():
    tbl = table_for_modulus(5)
    kernels = (gamma, zeta_em, completed_zeta, zeta_direct, lambda s: hurwitz_zeta(s, 0.25),
               lambda s: dirichlet_l(tbl, s), lambda s: completed_dirichlet(tbl, s))
    for f in kernels:
        for s in (2.5, 3, Q(7, 2), complex(2.5, 0.0)):
            assert type(f(s)) is float, (f, s)
        assert type(f(complex(2.5, 1e-3))) is complex, f


if __name__ == "__main__":
    lines = ["# function\tRe s\tIm s\tfloat.hex(Re value)\tfloat.hex(Im value)"]
    lines += ["\t".join(k + (v.real.hex(), v.imag.hex())) for k, v in evaluate().items()]
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text("\n".join(lines) + "\n", encoding="utf-8")
