"""The numeric layer against mpmath at 30 digits, an independent reference.

The grid covers the documented accuracy domain -2 <= Re s <= 12,
|Im s| <= 20, stepping around the gamma poles on the real axis.  The
tolerances are the module docstring's: 1e-10 relative for completed zeta
and for Hurwitz zeta right of Re s = 1/2, 1e-8 for completed Dirichlet
values.  ``gamma`` is held to 1e-12: off the real axis it is a Lanczos
sum, whose worst error on this grid is about 1.5e-13, and on it
``math.gamma``.  ``zeta_direct``, the
independent check, is held to 1e-14 on its own domain Re s > 3/2,
|Im s| <= 20: its corners and edges, (1/8)Z, and seeded points.

Left of Re s = 1/2 the Dirichlet reference is mpmath's value at 1 - s:
a real primitive character has root number 1, so its completed L-function
satisfies Lam(s) = Lam(1 - s).  The package computes that side directly,
without reflecting, and mpmath's Hurwitz zeta is slow at negative real
part.
"""

import math
import random

import pytest

from sp4eis.numerics import (
    IM_LIMIT, QUADRATIC_DISCRIMINANTS, RE_LIMIT, completed_dirichlet, completed_zeta, gamma,
    hurwitz_zeta, table_for_modulus, zeta_direct,
)

mp = pytest.importorskip("mpmath")

RE = (-2.0, -1.25, -0.5, 0.3, 0.5, 0.8, 1.5, 2.0, 4.75, 8.0, 12.0)
IM = (0.0, 1.5, -6.0, 13.0, 20.0)
GRID = [complex(x, y) for x in RE for y in IM]


def _on_gamma_pole(z: complex) -> bool:
    return z.imag == 0 and z.real <= 0 and z.real == int(z.real)


def _rel(value: complex, ref) -> float:
    return float(abs(mp.mpc(value) - ref) / abs(ref))


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mp.workdps(30):
        yield


def test_gamma_matches_mpmath():
    for s in GRID:
        if not _on_gamma_pole(s):
            assert _rel(gamma(s), mp.gamma(mp.mpc(s))) < 1e-12, s


def test_completed_zeta_matches_mpmath():
    for s in GRID:
        if _on_gamma_pole(s / 2):
            continue
        z = mp.mpc(s)
        ref = mp.pi ** (-z / 2) * mp.gamma(z / 2) * mp.zeta(z)
        assert _rel(completed_zeta(s), ref) < 1e-10, s


@pytest.mark.parametrize("q", sorted(QUADRATIC_DISCRIMINANTS))
def test_completed_dirichlet_matches_mpmath(q):
    tbl = table_for_modulus(q)
    for s in GRID:
        if _on_gamma_pole((s + tbl.parity) / 2):
            continue
        u = mp.mpc(s) if s.real >= 0.5 else 1 - mp.mpc(s)
        z = (u + tbl.parity) / 2
        ref = (mp.mpf(q) / mp.pi) ** z * mp.gamma(z) * mp.dirichlet(u, list(tbl.values))
        assert _rel(completed_dirichlet(tbl, s), ref) < 1e-8, (q, s)


@pytest.mark.parametrize("a", [1 / 12, 1 / 3, 1 / 2, 3 / 4, 1.0])
def test_hurwitz_zeta_matches_mpmath(a):
    # the shifts a/q of the built-in conductors' residues lie in (0, 1]
    for s in GRID:
        if s.real >= 0.5:
            assert _rel(hurwitz_zeta(s, a), mp.zeta(mp.mpc(s), mp.mpf(a))) < 1e-10, (a, s)


def test_zeta_direct_matches_mpmath():
    low = math.nextafter(1.5, 2.0)  # the domain is open at Re s = 3/2
    points = [complex(re, im) for re in (low, RE_LIMIT) for im in (-IM_LIMIT, IM_LIMIT)]
    points += [complex(low, IM_LIMIT * k / 20) for k in range(-20, 21)]
    points += [complex(low + k / 8, im) for k in range(1, 84) for im in (-IM_LIMIT, IM_LIMIT)]
    points += [k / 8 for k in range(13, 97)]  # real points, in float arithmetic
    rng = random.Random(20000101)
    points += [complex(rng.uniform(low, RE_LIMIT), rng.uniform(-IM_LIMIT, IM_LIMIT))
               for _ in range(100)]
    for s in points:
        assert _rel(zeta_direct(s), mp.zeta(mp.mpc(s))) <= 1e-14, s
