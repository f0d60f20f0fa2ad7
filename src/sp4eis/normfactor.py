"""Canonical L/epsilon products: the inverse normalizing factors r^-1.

The inverse normalizing factor attached to a Weyl element w is the product
over the positive roots sent negative by w of

    L(e, chi^k) / ( L(e+1, chi^k) * eps(e+1, chi^k) )

where (k, e) is the composition of the inducing character with the coroot.
``inverse_norm_factor`` sums their exponents in one symbol -> exponent
map and builds the expression once: the nonzero exponents, sorted
deterministically for rendering.  The product has no constant, so an
expression is its exponent map and nothing more.  ``canonicalize``
puts one in the canonical form of a class and compiles it for the point
engine (``germs``) into a ``Canonical``, fixed once per class.
"""

from __future__ import annotations

from typing import NamedTuple

from .characters import AffineForm, CharClass, TorusCharacter, compose_coroot, reduce_power
from .roots import SP4, WeylElement

L = "L"
EPS = "eps"


class LSymbol(NamedTuple):
    """One L- or epsilon-symbol with affine argument and chi power."""

    kind: str  # "L" or "eps"
    arg: AffineForm
    power: int

    def render(self) -> str:
        chi = {0: "1", 1: "chi"}.get(self.power, f"chi^{self.power}")
        return f"{self.kind}({self.arg.render()},{chi})"

    def sort_key(self) -> tuple:
        return (0 if self.kind == L else 1, self.power, self.arg.sort_key())


class LExpression(NamedTuple):
    """Formal product of L/eps symbols: its nonzero integer exponents, sorted."""

    factors: tuple[tuple[LSymbol, int], ...]

    @staticmethod
    def build(factors: dict[LSymbol, int]) -> "LExpression":
        return LExpression(tuple(sorted(
            ((sym, e) for sym, e in factors.items() if e != 0),
            key=lambda it: it[0].sort_key(),
        )))

    def render(self) -> str:
        num = [(s, e) for s, e in self.factors if e > 0]
        den = [(s, -e) for s, e in self.factors if e < 0]

        def side(items: list[tuple[LSymbol, int]]) -> str:
            return "*".join(sym.render() + (f"^{e}" if e > 1 else "") for sym, e in items)

        num_s = side(num) if num else "1"
        if not den:
            return num_s
        den_s = side(den)
        if len(den) > 1:
            den_s = f"({den_s})"
        return f"{num_s} / {den_s}"


def inverse_norm_factor(lam: TorusCharacter, w: WeylElement) -> LExpression:
    """Inverse normalizing factor r^-1 for the element w, sorted and cancelled.

    Each root that w makes negative adds L(e,chi^k) with exponent +1 and
    L(e+1,chi^k), eps(e+1,chi^k) with exponent -1 to one exponent map,
    (k, e) being lam composed with the root's coroot.
    """
    d: dict[LSymbol, int] = {}
    for alpha in SP4.negative_set(w):
        k, e = compose_coroot(lam, SP4.coroot(alpha))
        e1 = e.shift(1)
        for sym, n in ((LSymbol(L, e, k), 1), (LSymbol(L, e1, k), -1), (LSymbol(EPS, e1, k), -1)):
            d[sym] = d.get(sym, 0) + n
    return LExpression.build(d)


# (kind, chi power, A, B, D, exponent, class or None, rendered symbol): the
# argument is (A*s + B)/D, and the class None for chi power 0 (trivial)
SymbolRecord = tuple[str, int, int, int, int, int, "CharClass | None", str]


class Canonical(NamedTuple):
    """An expression compiled for one class: its factors, a ``SymbolRecord``
    each and whether the class is self-dual."""

    factors: tuple[tuple[LSymbol, int], ...]
    symbols: tuple[SymbolRecord, ...]
    real: bool

    @staticmethod
    def of(expr: LExpression, cls: CharClass) -> "Canonical":
        """Compile the expression as it stands, for the class ``cls``; its
        chi powers must already be reduced for the class (``canonicalize``)."""
        for sym, _ in expr.factors:
            if reduce_power(cls, sym.power) != sym.power:
                raise ValueError(f"{sym.render()} has a chi power not reduced for class {cls}")
        return Canonical(expr.factors, tuple(
            (sym.kind, sym.power, *sym.arg.ints, e, cls if sym.power else None, sym.render())
            for sym, e in expr.factors), cls.is_real)

    def part(self, exps: dict[LSymbol, int]) -> "Canonical":
        """The product of the symbols of ``exps``, some of this expression's,
        to its exponents (0 drops a symbol), compiled for the same class."""
        kept = [(sym, rec[:5] + (exps[sym],) + rec[6:])
                for (sym, _), rec in zip(self.factors, self.symbols) if exps.get(sym)]
        return Canonical(tuple((sym, rec[5]) for sym, rec in kept),
                         tuple(rec for _, rec in kept), self.real)

    def render(self) -> str:
        return LExpression(self.factors).render()


def canonicalize(expr: LExpression, cls: CharClass) -> Canonical:
    """Class-aware canonical form, compiled for the class.

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
    return Canonical.of(LExpression.build(d), cls)
