"""Symbolic torus characters chi^k nu^(a*s+b) and the Weyl action on them.

A torus character assigns to each coordinate a pair (character power,
affine exponent).  The inducing characters of the two degenerate series
are provided as constructors: ``heisenberg_lambda`` is chi nu^s (x) nu^-1
and ``siegel_lambda`` is chi nu^(s-1/2) (x) chi nu^(s+1/2).

A character class (``CharClass``) is a ``StrEnum`` member, equal to its
name: it hashes, compares and formats as that string, so rule rows, atom
data, JSON and messages take it as it is.  A plain string is no member:
``reduce_power`` and ``power_class`` test members with ``is``, so where a
profile or a report is built a class must be a member.  Which class a
place may carry is stated once, in ``localrules.LOCAL_CLASSES``.

``COSET_REPS`` holds the four Weyl elements of each case's constant term
and ``TARGETS`` the character each one carries the inducing character
to.  Neither depends on s, so both are built once at import; a target
is compiled per class by ``TorusCharacter.reduced``.  Points are read as
integers: at s0 = p/q in lowest terms (q > 0) an ``AffineForm`` a*s + b,
which carries (A, B, D) with a = A/D and b = B/D, is the integer
n = A*p + B*q over m = D*q > 0, not reduced, and ``ratio_str`` prints n/m
as ``str(Fraction)`` does.  ``value_key`` evaluates a compiled target
once per point into the tuple that groups the summands and renders
(``render_value``).
"""

from __future__ import annotations

import enum
from fractions import Fraction as Q
from math import gcd, lcm
from typing import NamedTuple

from .roots import SP4, RootVector, WeylElement


class CharClass(enum.StrEnum):
    """Coarse class of the unitary character chi (global or local).

    ``SGN`` is the nontrivial quadratic class of a real place and is only
    meaningful for local data.
    """

    TRIVIAL = "trivial"
    QUADRATIC = "quadratic"  # quadratic and nontrivial
    OTHER = "other"
    SGN = "sgn"

    @property
    def is_real(self) -> bool:
        """True when chi equals its own inverse (so L-duals coincide)."""
        return self in (CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.SGN)


def reduce_power(cls: CharClass, k: int) -> int:
    """Canonical exponent of chi^k once the class of chi is known.

    The trivial class absorbs every power; quadratic classes reduce mod 2;
    for an infinite-order class only chi^0 collapses.
    """
    if cls is CharClass.TRIVIAL:
        return 0
    if cls in (CharClass.QUADRATIC, CharClass.SGN):
        return k % 2
    return k


def power_class(cls: CharClass, k: int) -> CharClass:
    """Class of chi^k given the class of chi."""
    return cls if reduce_power(cls, k) else CharClass.TRIVIAL


def parse_class(text: str) -> CharClass:
    try:
        return CharClass(text.strip().lower())
    except ValueError:
        raise ValueError(f"unknown character class {text!r}") from None


def ratio_str(n: int, m: int) -> str:
    """``str(Fraction(n, m))`` for m > 0, without building the ``Fraction``."""
    g = gcd(n, m)
    return str(n // g) if g == m else f"{n // g}/{m // g}"


class _AffineFields(NamedTuple):
    a: Q
    b: Q
    ints: tuple[int, int, int]


class AffineForm(_AffineFields):
    """Exact affine form a*s + b.

    ``ints`` is (A, B, D) with a = A/D, b = B/D and D > 0 the least common
    denominator, computed when the form is built.  It follows from (a, b),
    so equality and hashing over all three fields are equality and hashing
    on (a, b).
    """

    __slots__ = ()

    def __new__(cls, a: Q, b: Q) -> "AffineForm":
        d = lcm(a.denominator, b.denominator)
        return tuple.__new__(cls, (a, b, (a.numerator * (d // a.denominator),
                                          b.numerator * (d // b.denominator), d)))

    @staticmethod
    def of(a: int | str | Q, b: int | str | Q) -> "AffineForm":
        return AffineForm(Q(a), Q(b))

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.a, -self.b)

    def shift(self, c: int | Q) -> "AffineForm":
        return AffineForm(self.a, self.b + c)

    def render(self) -> str:
        if self.a == 0:
            return str(self.b)
        if self.a == 1:
            head = "s"
        elif self.a == -1:
            head = "-s"
        else:
            head = f"{self.a}s"
        if self.b == 0:
            return head
        return f"{head}+{self.b}" if self.b > 0 else f"{head}{self.b}"

    def sort_key(self) -> tuple:
        return (self.a, self.b)


class TorusCharacter(NamedTuple):
    """Per-coordinate (chi power, affine exponent) data."""

    coords: tuple[tuple[int, AffineForm], ...]

    def render(self) -> str:
        parts = []
        for k, form in self.coords:
            chi = {0: "", 1: "chi*"}.get(k, f"chi^{k}*")
            parts.append(f"{chi}nu^({form.render()})")
        return "(" + ", ".join(parts) + ")"

    def reduced(self, cls: CharClass) -> tuple[tuple[int, int, int, int], ...]:
        """Per coordinate the chi power reduced in the class ``cls`` and the
        exponent's integers (A, B, D): what ``value_key`` reads at a point."""
        return tuple((reduce_power(cls, k), *form.ints) for k, form in self.coords)


def value_key(coords: tuple[tuple[int, int, int, int], ...], s0: Q) -> tuple:
    """Value at s = s0 of a character's ``reduced`` coordinates: one (chi
    power, n, m) per coordinate, n/m in lowest terms, m > 0.  Two characters
    are equal at s0 exactly when these keys agree."""
    p, q = s0.numerator, s0.denominator
    out = []
    for k, A, B, D in coords:
        n, m = A * p + B * q, D * q
        g = gcd(n, m)
        out.append((k, n // g, m // g))
    return tuple(out)


def render_value(key: tuple) -> str:
    """A ``value_key`` rendered as the character at its point."""
    parts = []
    for k, n, m in key:
        chi = {0: "", 1: "chi*"}.get(k, f"chi^{k}*")
        parts.append(f"{chi}nu^{ratio_str(n, m)}")
    return "(" + ", ".join(parts) + ")"


def heisenberg_lambda() -> TorusCharacter:
    """Inducing character of the Heisenberg degenerate series."""
    return TorusCharacter((
        (1, AffineForm.of(1, 0)),   # chi nu^s
        (0, AffineForm.of(0, -1)),  # nu^-1
    ))


def siegel_lambda() -> TorusCharacter:
    """Inducing character of the Siegel degenerate series."""
    return TorusCharacter((
        (1, AffineForm.of(1, Q(-1, 2))),  # chi nu^(s-1/2)
        (1, AffineForm.of(1, Q(1, 2))),   # chi nu^(s+1/2)
    ))


def compose_coroot(lam: TorusCharacter, coroot: RootVector) -> tuple[int, AffineForm]:
    """Character of GL(1) obtained by composing with an integral coroot.

    Returns (chi power, affine exponent).
    """
    power, a, b = 0, Q(0), Q(0)
    for c, (k, f) in zip(coroot, lam.coords):
        power += c * k
        a += c * f.a
        b += c * f.b
    return power, AffineForm(a, b)


def weyl_act(w: WeylElement, lam: TorusCharacter) -> TorusCharacter:
    """Weyl action on torus characters.

    Defined so that (w.lam) o (w.coroot) = lam o coroot: coordinate i is
    carried to coordinate w(i), with a sign flip inverting the character.
    """
    out: list[tuple[int, AffineForm]] = [None] * len(lam.coords)  # type: ignore[list-item]
    for i, (k, f) in enumerate(lam.coords):
        j = w.perm[i]
        if w.signs[i] == 1:
            out[j] = (k, f)
        else:
            out[j] = (-k, -f)
    return TorusCharacter(tuple(out))


_ALPHA1, _ALPHA2 = SP4.simple_roots()

# Per case: the inducing character and the simple root kept positive.  The
# Heisenberg summation runs over w with w(2 e2) > 0, the Siegel one over w
# with w(e1 - e2) > 0.
_CASES = {
    "heisenberg": (heisenberg_lambda(), _ALPHA2),
    "siegel": (siegel_lambda(), _ALPHA1),
}

# the four Weyl elements of each case's constant term, by length
COSET_REPS = {case: tuple(SP4.coset_reps([keep])) for case, (_, keep) in _CASES.items()}

# the target of each summand, w applied to the inducing character; it does
# not depend on s, so the eight are built here once, and reduced per class
TARGETS = {case: {w: weyl_act(w, lam) for w in COSET_REPS[case]}
           for case, (lam, _) in _CASES.items()}


def _unknown_case(case: str) -> ValueError:
    return ValueError(f"unknown case {case!r} (expected 'heisenberg' or 'siegel')")


def lambda_for_case(case: str) -> TorusCharacter:
    """Inducing character of the case."""
    try:
        return _CASES[case][0]
    except KeyError:
        raise _unknown_case(case) from None


def coset_representatives(case: str) -> tuple[WeylElement, ...]:
    """The four Weyl elements appearing in the constant term of the case."""
    try:
        return COSET_REPS[case]
    except KeyError:
        raise _unknown_case(case) from None
