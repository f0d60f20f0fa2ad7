"""Symbolic torus characters chi^k nu^(a*s+b) and the Weyl action on them.

A torus character assigns to each coordinate a pair (character power,
affine exponent).  The inducing characters of the two degenerate series
are provided as constructors: ``heisenberg_lambda`` is chi nu^s (x) nu^-1
and ``siegel_lambda`` is chi nu^(s-1/2) (x) chi nu^(s+1/2).

``COSET_REPS`` holds the four Weyl elements of each case's constant term
and ``TARGETS`` the character each one carries the inducing character
to.  Neither depends on s, so both are built once at import; at a point,
``value_key`` evaluates a target once, and that one tuple both groups the
summands and renders (``render_value``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction as Q

from .roots import SP4, RootVector, WeylElement


class CharClass(enum.Enum):
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
    k = reduce_power(cls, k)
    if k == 0:
        return CharClass.TRIVIAL
    return cls


def parse_class(text: str) -> CharClass:
    try:
        return CharClass(text.strip().lower())
    except ValueError:
        raise ValueError(f"unknown character class {text!r}") from None


@dataclass(frozen=True)
class AffineForm:
    """Exact affine form a*s + b."""

    a: Q
    b: Q

    @staticmethod
    def of(a: int | str | Q, b: int | str | Q) -> "AffineForm":
        return AffineForm(Q(a), Q(b))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "AffineForm":
        return AffineForm(-self.a, -self.b)

    def scale(self, c: Q) -> "AffineForm":
        return AffineForm(self.a * c, self.b * c)

    def shift(self, c: int | Q) -> "AffineForm":
        return AffineForm(self.a, self.b + c)

    def reflect(self) -> "AffineForm":
        """The form 1 - (a*s + b)."""
        return AffineForm(-self.a, 1 - self.b)

    def at(self, s0: Q) -> Q:
        """The value a*s0 + b, built as one ``Fraction``."""
        a, b = self.a, self.b
        if not a:
            return b
        bd = b.denominator
        return Q(a.numerator * s0.numerator * bd + b.numerator * a.denominator * s0.denominator,
                 a.denominator * s0.denominator * bd)

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


@dataclass(frozen=True)
class TorusCharacter:
    """Per-coordinate (chi power, affine exponent) data."""

    coords: tuple[tuple[int, AffineForm], ...]

    @property
    def rank(self) -> int:
        return len(self.coords)

    def render(self) -> str:
        parts = []
        for k, form in self.coords:
            chi = {0: "", 1: "chi*"}.get(k, f"chi^{k}*")
            parts.append(f"{chi}nu^({form.render()})")
        return "(" + ", ".join(parts) + ")"

    def value_key(self, s0: Q, cls: CharClass) -> tuple:
        """Hashable value of the character at s = s0 up to class reduction.

        Two characters are equal at s0 exactly when these keys agree; used
        for same-target grouping of constant-term summands, and rendered
        by ``render_value``.
        """
        return tuple((reduce_power(cls, k), form.at(s0)) for k, form in self.coords)


def render_value(key: tuple) -> str:
    """A ``value_key`` rendered as the character at its point."""
    parts = []
    for k, v in key:
        chi = {0: "", 1: "chi*"}.get(k, f"chi^{k}*")
        parts.append(f"{chi}nu^{v}")
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
    """Character of GL(1) obtained by composing with a coroot.

    The coroot must have integer coordinates (true for all type-C coroots).
    Returns (chi power, affine exponent).
    """
    power = 0
    form = AffineForm.of(0, 0)
    for c, (k, f) in zip(coroot, lam.coords):
        if c.denominator != 1:
            raise ValueError(f"coroot has non-integer coordinate: {coroot}")
        ci = int(c)
        power += ci * k
        form = form + f.scale(Q(ci))
    return power, form


def weyl_act(w: WeylElement, lam: TorusCharacter) -> TorusCharacter:
    """Weyl action on torus characters.

    Defined so that (w.lam) o (w.coroot) = lam o coroot: coordinate i is
    carried to coordinate w(i), with a sign flip inverting the character.
    """
    out: list[tuple[int, AffineForm]] = [None] * lam.rank  # type: ignore[list-item]
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
# not depend on s, so the eight are built here once
TARGETS = {case: {w: weyl_act(w, lam) for w in COSET_REPS[case]}
           for case, (lam, _) in _CASES.items()}


def _unknown_case(case: str) -> ValueError:
    return ValueError(f"unknown case {case!r} (expected 'heisenberg' or 'siegel')")


def lambda_for_case(case: str) -> tuple[TorusCharacter, RootVector]:
    """Inducing character and the simple root kept positive, per case."""
    try:
        return _CASES[case]
    except KeyError:
        raise _unknown_case(case) from None


def coset_representatives(case: str) -> tuple[WeylElement, ...]:
    """The four Weyl elements appearing in the constant term of the case."""
    try:
        return COSET_REPS[case]
    except KeyError:
        raise _unknown_case(case) from None
