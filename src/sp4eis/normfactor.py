"""Canonical L/epsilon products: the inverse normalizing factors r^-1.

The inverse normalizing factor attached to a Weyl element w is the product
over the positive roots sent negative by w of

    L(e, chi^k) / ( L(e+1, chi^k) * eps(e+1, chi^k) )

where (k, e) is the composition of the inducing character with the coroot.
Expressions are kept in a canonical form: a rational scalar together with
a symbol -> exponent mapping, sorted deterministically for rendering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .characters import AffineForm, CharClass, TorusCharacter, compose_coroot, reduce_power
from .roots import SP4, WeylElement

L = "L"
EPS = "eps"


@dataclass(frozen=True)
class LSymbol:
    """One L- or epsilon-symbol with affine argument and chi power."""

    kind: str  # "L" or "eps"
    arg: AffineForm
    power: int

    def render(self) -> str:
        chi = {0: "1", 1: "chi"}.get(self.power, f"chi^{self.power}")
        return f"{self.kind}({self.arg.render()},{chi})"

    def sort_key(self) -> tuple:
        return (0 if self.kind == L else 1, self.power, self.arg.sort_key())


@dataclass(frozen=True)
class LExpression:
    """Formal product of L/eps symbols with integer exponents and a scalar."""

    scalar: Q
    factors: tuple[tuple[LSymbol, int], ...]

    @staticmethod
    def one() -> "LExpression":
        return LExpression(Q(1), ())

    @staticmethod
    def build(scalar: Q, factors: dict[LSymbol, int]) -> "LExpression":
        if scalar == 0:
            raise ValueError("expression scalar must be nonzero")
        items = tuple(sorted(
            ((sym, e) for sym, e in factors.items() if e != 0),
            key=lambda it: it[0].sort_key(),
        ))
        return LExpression(scalar, items)

    def as_dict(self) -> dict[LSymbol, int]:
        return dict(self.factors)

    def __mul__(self, other: "LExpression") -> "LExpression":
        d = self.as_dict()
        for sym, e in other.factors:
            d[sym] = d.get(sym, 0) + e
        return LExpression.build(self.scalar * other.scalar, d)

    def inverse(self) -> "LExpression":
        return LExpression.build(1 / self.scalar, {s: -e for s, e in self.factors})

    def render(self) -> str:
        num = [(s, e) for s, e in self.factors if e > 0]
        den = [(s, -e) for s, e in self.factors if e < 0]

        def side(items: list[tuple[LSymbol, int]]) -> str:
            parts = []
            for sym, e in items:
                parts.append(sym.render() + (f"^{e}" if e > 1 else ""))
            return "*".join(parts)

        head = "" if self.scalar == 1 else f"{self.scalar}*"
        if not num and not den:
            return f"{self.scalar}"
        num_s = side(num) if num else "1"
        if not den:
            return head + num_s
        den_s = side(den)
        if len(den) > 1:
            den_s = f"({den_s})"
        return f"{head}{num_s} / {den_s}"


def quotient_factor(power: int, form: AffineForm) -> LExpression:
    """The single factor L(e,chi^k) / (L(e+1,chi^k) eps(e+1,chi^k))."""
    return LExpression.build(Q(1), {
        LSymbol(L, form, power): 1,
        LSymbol(L, form.shift(1), power): -1,
        LSymbol(EPS, form.shift(1), power): -1,
    })


def inverse_norm_factor(lam: TorusCharacter, w: WeylElement) -> LExpression:
    """Inverse normalizing factor r^-1 for the element w, canonicalized.

    Identical L-symbols occurring in both numerator and denominator cancel
    automatically through the exponent bookkeeping.
    """
    expr = LExpression.one()
    for factor in raw_quotient_factors(lam, w):
        expr = expr * factor
    return expr


def raw_quotient_factors(lam: TorusCharacter, w: WeylElement) -> list[LExpression]:
    """Per-root factors before any cancellation (one per negative root)."""
    return [quotient_factor(*compose_coroot(lam, SP4.coroot(alpha)))
            for alpha in SP4.negative_set(w)]


def canonicalize(expr: LExpression, cls: CharClass) -> LExpression:
    """Class-aware canonical form.

    Chi powers are reduced (chi^2 collapses for quadratic classes) and
    epsilon symbols of the resulting trivial character are dropped, since
    the completed epsilon of the trivial character is identically 1.  An
    expression is already sorted and cancelled by ``LExpression.build``.
    """
    d: dict[LSymbol, int] = {}
    for sym, e in expr.factors:
        k = reduce_power(cls, sym.power)
        if sym.kind == EPS and k == 0:
            continue
        key = LSymbol(sym.kind, sym.arg, k)
        d[key] = d.get(key, 0) + e
    return LExpression.build(expr.scalar, d)
