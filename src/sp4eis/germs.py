"""Meromorphic-germ calculus for canonical L/epsilon products.

Orders of vanishing are computed exactly from a few completed-L facts,
stated once as ``ZETA_POLE_RESIDUES`` and ``OPEN_STRIP``.  Only
``_classify`` tests a point against them: it places one symbol in the
strip, at a zeta pole, or at a nonzero value.  It decides in integers: at
s0 = p/q in lowest terms a symbol's argument (A*s + B)/D is the integer
n = A*p + B*q over m = D*q > 0, so the strip is 0 < n < m, a pole has
n/m among the residue table's keys, and a value is oriented left of 1/2
when 2n < m.  The facts are:

* the completed zeta function has simple poles at arguments 0 and 1 with
  residues -1 and +1, no zeros outside the open strip (0,1), and unknown
  nonnegative vanishing order inside it;
* completed L-functions of nontrivial primitive characters are entire and
  nonvanishing outside the open strip, including its edges;
* epsilon factors are entire and nonvanishing, identically 1 for the
  trivial character, and satisfy eps(u)*eps(1-u) = 1 for self-dual
  characters (a consequence of applying the functional equation twice).

The engine walks expressions compiled for their class
(``normfactor.Canonical``): one integer record per symbol, its class None
exactly when its chi power is 0, and the class's self-duality, read once
per expression.  ``germ_at`` walks the records once, each symbol
``_classify``-ed once, to the order and, for a strip-free expression, a
``Leading`` whose atoms are built only when a report reads it;
``order_at`` is its order.  A ``Fraction`` is built only for a value a
report keeps: a ``StripDep`` point and a zeta residue over the slope.

Leading coefficients are rational combinations of products of atoms.  An
atom is its name, a (kind, data) tuple of the strings its render shows,
so atoms hash, compare and sort as plain tuples.  ``_value_atoms`` is the
one orientation table for a nonzero value: zeta reflected to u >= 1/2,
self-dual L and epsilon left of 1/2 sent through the functional
equation.  Two atoms that are not plainly nonzero carry a nonzeroness
assertion that the numeric layer cross-checks: the shared constant
Laurent coefficient of completed zeta at its poles, and the derivative
of a quadratic completed L at 0.

Series serve signed sums only.  A ``Series`` is a first-order jet: an
order and exactly two coefficients, which its constructor enforces.
``symbol_series`` expands one symbol record (refusing strip symbols):
coefficient 0 is the head ``germ_at`` multiplies, coefficient 1 the zeta
constant at a pole and otherwise the slope times the derivative of the
value in the orientation ``_value_atoms`` gives it.  ``known_part_series``
multiplies one expression's jets and ``sum_series`` adds signed jets,
exactly to first order.  Every group sum the engine meets has a formally
nonzero leading term within two coefficients; a sum that cancels through
both is a floor past them.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Iterable, NamedTuple, Sequence

from .characters import CharClass, ratio_str
from .normfactor import EPS, Canonical, SymbolRecord

ZETA_POLE_RESIDUES = {0: -1, 1: 1}
OPEN_STRIP = (0, 1)


class GermError(Exception):
    """Base class for germ-calculus failures."""


class StripOrderUnknown(GermError):
    """Raised when an exact germ is requested but a strip order is unknown."""


class IndeterminateLeading(GermError):
    """Raised when cancellation reaches opaque atoms without a resolution."""


class DegenerateSymbol(GermError):
    """Raised for a constant symbol pinned at a pole of the completed L."""


# ---------------------------------------------------------------------------
# formal scalars: rational combinations of monomials in named atoms
# ---------------------------------------------------------------------------

Atom = tuple[str, tuple[str, ...]]  # (kind, data): a class value, an argument

# Lam^(1)(u), Lhat[c]^(1)(u) and eps[c]^(1)(u) are first Taylor
# coefficients, f'(u), of the completed zeta, L or epsilon at u; Lam_c is
# the constant coefficient of completed zeta at 1.
_ATOM_FORMATS = {
    "zconst": "Lam_c",
    "zval": "Lam({0})",
    "zder": "Lam^(1)({0})",
    "lval": "Lhat[{0}]({1})",
    "lder": "Lhat[{0}]^(1)({1})",
    "epsv": "eps[{0}]({1})",
    "epsder": "eps[{0}]^(1)({1})",
}


def _known_nonzero(atom: Atom) -> bool:
    kind, data = atom
    if kind in ("zconst", "zval", "lval", "epsv"):
        return True
    # forced by the source's "holomorphic and non-zero" cancellation
    # statements; verified numerically for the modulus-4 character
    return kind == "lder" and data[0] == CharClass.QUADRATIC and data[1] in ("0", "1")


def _mod2(atom: Atom) -> bool:
    """eps(1/2) of a self-dual class: its square is 1, so its exponent reduces mod 2."""
    kind, data = atom
    return kind == "epsv" and data[1] == "1/2" and data[0] != CharClass.OTHER


# A monomial is canonical when its atoms are distinct and sorted, no
# exponent is 0 and every ``_mod2`` exponent is 1.
Monomial = tuple[tuple[Atom, int], ...]

_RATIONAL_ONE = Q(1)  # the residue product of no pole, built once for ``Leading``


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for a, e in m2:
        d[a] = d.get(a, 0) + e
    return _mono_normalize(d)


def _mono_normalize(d: dict[Atom, int]) -> Monomial:
    """Canonical monomial of an atom -> exponent mapping."""
    out = []
    for a, e in d.items():
        if _mod2(a):
            e %= 2
        if e:
            out.append((a, e))
    out.sort()
    return tuple(out)


def _mono_inv(m: Monomial) -> Monomial:
    # inverting keeps the order; a mod2 exponent 1 stays 1
    return tuple((a, e if _mod2(a) else -e) for a, e in m)


class FormalScalar:
    """Rational linear combination of atom monomials.

    ``terms`` is canonical: canonical monomials, no zero coefficient.  The
    constructor trusts that; ``monomial`` and ``atom`` canonicalize, and
    every ring operation keeps it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Q] | None = None):
        self.terms: dict[Monomial, Q] = terms if terms is not None else {}

    # -- constructors --

    @staticmethod
    def monomial(m: Monomial, c: Q | int = 1) -> "FormalScalar":
        c = Q(c)
        return FormalScalar({_mono_normalize(dict(m)): c} if c else None)

    @staticmethod
    def atom(a: Atom, c: Q | int = 1) -> "FormalScalar":
        return FormalScalar.monomial(((a, 1),), c)

    # -- ring operations --

    def __add__(self, other: "FormalScalar") -> "FormalScalar":
        if not other.terms:
            return self
        if not self.terms:
            return other
        d = dict(self.terms)
        for m, c in other.terms.items():
            old = d.get(m)
            total = c if old is None else old + c
            if total:
                d[m] = total
            else:
                del d[m]
        return FormalScalar(d)

    def __neg__(self) -> "FormalScalar":
        return FormalScalar({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "FormalScalar") -> "FormalScalar":
        d: dict[Monomial, Q] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                old = d.get(m)
                d[m] = c1 * c2 if old is None else old + c1 * c2
        return FormalScalar({m: c for m, c in d.items() if c})

    def is_zero(self) -> bool:
        return not self.terms

    def single_monomial(self) -> tuple[Q, Monomial] | None:
        if len(self.terms) != 1:
            return None
        ((m, c),) = self.terms.items()
        return c, m

    def inverse(self) -> "FormalScalar":
        got = self.single_monomial()
        if got is None:
            raise IndeterminateLeading(f"cannot invert non-monomial scalar {self.render()}")
        c, m = got
        return FormalScalar({_mono_inv(m): 1 / c})

    def certified_nonzero(self) -> bool:
        """True when the scalar is plainly a nonzero number.

        Only single monomials whose atoms are all marked nonzero qualify;
        sums of distinct monomials are never certified.
        """
        got = self.single_monomial()
        if got is None:
            return False
        c, m = got
        return c != 0 and all(_known_nonzero(a) for a, _ in m)

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            factors = [_ATOM_FORMATS[kind].format(*data) + (f"^{e}" if e != 1 else "")
                       for (kind, data), e in m]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return parts[0] + "".join(p if p.startswith("-") else "+" + p for p in parts[1:])


# ---------------------------------------------------------------------------
# first-order jets: Laurent series of exactly two coefficients
# ---------------------------------------------------------------------------

class Series:
    """First-order jet c0 * delta^ord + c1 * delta^(ord+1) + O(delta^(ord+2)),
    its two coefficients kept in a tuple so that a cached jet cannot change."""

    __slots__ = ("ord", "coeffs")

    def __init__(self, ord: int, coeffs: Sequence[FormalScalar]):
        coeffs = tuple(coeffs)
        if len(coeffs) != 2:
            raise ValueError(f"a first-order jet has two coefficients, got {len(coeffs)}")
        self.ord = ord
        self.coeffs = coeffs

    def __mul__(self, other: "Series") -> "Series":
        """The product rule: c0 = a0*b0, c1 = a0*b1 + a1*b0."""
        (a0, a1), (b0, b1) = self.coeffs, other.coeffs
        return Series(self.ord + other.ord, (a0 * b0, a0 * b1 + a1 * b0))

    def inverse(self) -> "Series":
        """The inverse rule: (a0 + a1*delta)^-1 = a0^-1 - a0^-1*a1*a0^-1*delta."""
        a0, a1 = self.coeffs
        if a0.is_zero():
            raise IndeterminateLeading("cannot invert series with vanishing leading term")
        a0_inv = a0.inverse()
        return Series(-self.ord, (a0_inv, -(a0_inv * a1 * a0_inv)))

    def power(self, e: int) -> "Series":
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def leading(self) -> tuple[int, FormalScalar] | None:
        """Exponent and coefficient of the first formally nonzero term."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return self.ord + i, c
        return None


# ---------------------------------------------------------------------------
# order values
# ---------------------------------------------------------------------------

class StripDep(NamedTuple):
    """Unknown vanishing order of one L-value in the open critical strip."""

    symbol: str
    point: Q
    coeff: int

    def render(self) -> str:
        sign = "+" if self.coeff > 0 else "-"
        mag = abs(self.coeff)
        head = f"{sign}{mag if mag != 1 else ''}"
        return f"{head}ord[{self.symbol} at {self.point}]"

    def to_json(self) -> dict:
        return {"symbol": self.symbol, "at": str(self.point), "coeff": self.coeff}


class OrderValue(NamedTuple):
    """Order of vanishing at a point: exact, floor-only, or strip-conditional.

    ``known(n)`` is an exact order (negative for poles).  ``conditional``
    adds signed multiples of unknown nonnegative strip orders to the base.
    ``at_least(n)`` records only a lower bound (cancellations that run into
    opaque Laurent coefficients).
    """

    kind: str  # "known" | "conditional" | "at-least"
    base: int
    deps: tuple[StripDep, ...] = ()

    @staticmethod
    def known(n: int) -> "OrderValue":
        return _KNOWN.get(n) or OrderValue("known", n)

    @staticmethod
    def at_least(n: int) -> "OrderValue":
        return OrderValue("at-least", n)

    @staticmethod
    def conditional(base: int, deps: Iterable[StripDep]) -> "OrderValue":
        deps = tuple(deps)
        if not deps:
            return OrderValue.known(base)
        return OrderValue("conditional", base, deps)

    @property
    def is_known(self) -> bool:
        return self.kind == "known"

    def definitely_positive(self) -> bool:
        if self.kind == "conditional":
            return self.base > 0 and all(d.coeff > 0 for d in self.deps)
        return self.base > 0

    def shifted(self, n: int) -> "OrderValue":
        return OrderValue(self.kind, self.base + n, self.deps) if n else self

    def __add__(self, other: "OrderValue") -> "OrderValue":
        base = self.base + other.base
        if self.kind == "known" and other.kind == "known":
            return OrderValue.known(base)
        if "at-least" in (self.kind, other.kind):
            neg = [d for d in self.deps + other.deps if d.coeff < 0]
            if neg:
                raise GermError("cannot combine a floor-only order with a possible pole")
            return OrderValue.at_least(base)
        return OrderValue.conditional(base, self.deps + other.deps)

    def render(self) -> str:
        if self.kind == "known":
            return str(self.base)
        if self.kind == "at-least":
            return f">= {self.base}"
        tail = " ".join(d.render() for d in self.deps)
        return f"{self.base} {tail}"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind, "base": self.base}
        if self.deps:
            out["deps"] = [d.to_json() for d in self.deps]
        return out


_KNOWN = {n: OrderValue("known", n) for n in range(-6, 7)}  # the orders a report meets, built once


# ---------------------------------------------------------------------------
# symbol germs from the knowledge base
# ---------------------------------------------------------------------------

def _classify(kind: str, power: int, A: int, n: int, m: int) -> str:
    """Site of one canonical symbol whose argument, of slope numerator A,
    is n/m (m > 0, not reduced) at the point.

    The site is "strip" for an L-symbol in the open strip (order unknown),
    "pole" for completed zeta (chi-power 0) at one of its poles and
    "value" for every other symbol, epsilon symbols included.  A constant
    symbol at a pole raises ``DegenerateSymbol``.
    """
    if kind == EPS:
        return "value"
    lo, hi = OPEN_STRIP
    if lo * m < n < hi * m:
        return "strip"
    if not power and not n % m and n // m in ZETA_POLE_RESIDUES:
        if not A:
            raise DegenerateSymbol(f"symbol L({ratio_str(n, m)},1) is constant "
                                   "at a completed-zeta pole")
        return "pole"
    return "value"


def _value_atoms(exps: dict[Atom, int], kind: str, c: CharClass | None, real: bool,
                 n: int, m: int, e: int) -> None:
    """Add to ``exps`` e times the atoms of a symbol's value at u = n/m
    (m > 0), of class ``c`` (``None``: trivial), self-dual when ``real``.

    A zeta value reflects to u >= 1/2 and a trivial epsilon is 1.  Left of
    1/2 a self-dual class rewrites L(u) = eps(1-u) L(1-u) and
    eps(u) = eps(1-u)^-1; every other value is one atom at u.
    """
    if c is None:
        if kind == EPS:
            return
        atom = ("zval", (ratio_str(max(n, m - n), m),))
    elif real and 2 * n < m:
        v = (c, ratio_str(m - n, m))
        atom = ("epsv", v)
        if kind == EPS:
            e = -e
        else:
            lval = ("lval", v)
            exps[lval] = exps.get(lval, 0) + e
    else:
        atom = ("epsv" if kind == EPS else "lval", (c, ratio_str(n, m)))
    exps[atom] = exps.get(atom, 0) + e


class Leading(NamedTuple):
    """A strip-free expression's leading coefficient as its walk left it: the
    residues over their slopes, num/den, and each value's (kind, c, n, m, e)."""

    num: int
    den: int
    real: bool
    values: tuple[tuple[str, CharClass | None, int, int, int], ...]

    def scalar(self) -> FormalScalar:
        """The coefficient: the atom exponents add, normalized once at the end."""
        exps: dict[Atom, int] = {}
        for kind, c, n, m, e in self.values:
            _value_atoms(exps, kind, c, self.real, n, m, e)
        coeff = _RATIONAL_ONE if self.num == self.den == 1 else Q(self.num, self.den)
        return FormalScalar({_mono_normalize(exps): coeff})

    def render(self) -> str:
        return self.scalar().render()


def symbol_series(sym: SymbolRecord, real: bool, s0: Q) -> Series:
    """First-order Laurent jet of one compiled symbol around s0 (non-strip
    only), for a class that is self-dual when ``real``.

    Coefficient 0 is the head ``germ_at`` multiplies.  At a zeta pole the
    jet is the residue over the slope a, then the constant ``Lam_c``: the
    expansion at 1 is 1/x + c + O(x), and by the exact reflection the one
    at 0 is -1/x + c + O(x) with the same c.  Any other value has its
    ``_value_atoms``, then a times the derivative of that orientation.
    """
    kind, power, A, B, D, _, c, name = sym
    n, m = A * s0.numerator + B * s0.denominator, D * s0.denominator
    site = _classify(kind, power, A, n, m)
    if site == "strip":
        raise StripOrderUnknown(f"symbol {name} has strip argument {ratio_str(n, m)}")
    if site == "pole":
        return Series(-1, (FormalScalar.monomial((), Q(ZETA_POLE_RESIDUES[n // m] * D, A)),
                           FormalScalar.atom(("zconst", ()))))
    a, u, v = Q(A, D), ratio_str(n, m), ratio_str(m - n, m)
    if c is None:
        # a trivial epsilon is 1; the zeta derivative reflects to u >= 1/2 with a sign
        if kind == EPS:
            der = FormalScalar()
        elif 2 * n < m:
            der = FormalScalar.atom(("zder", (v,)), -a)
        else:
            der = FormalScalar.atom(("zder", (u,)), a)
    elif not (real and 2 * n > m):
        der = FormalScalar.atom(("epsder" if kind == EPS else "lder", (c, u)), a)
    else:
        # right of 1/2 a self-dual class differentiates eps(u) = eps(1-u)^-1
        # and L(u) = eps(1-u) L(1-u), where eps(1-u) = e^-1 and L(1-u) = e L(u)
        # for e = eps(u)
        e, epsder = ("epsv", (c, u)), ("epsder", (c, v))
        if kind == EPS:
            der = FormalScalar.monomial(((e, 2), (epsder, 1)), a)
        else:
            lder, lval = ("lder", (c, v)), ("lval", (c, u))
            der = (FormalScalar.monomial(((e, -1), (lder, 1)), -a)
                   + FormalScalar.monomial(((e, 1), (lval, 1), (epsder, 1)), -a))
    return Series(0, (Leading(1, 1, real, ((kind, c, n, m, 1),)).scalar(), der))


def germ_at(expr: Canonical, s0: Q) -> tuple[OrderValue, Leading | None]:
    """Order of vanishing (negative for poles) and leading coefficient of
    the compiled expression at s = s0.

    A strip symbol contributes an unknown order (a ``StripDep``), completed
    zeta at one of its poles -1 and its residue over the slope, and every
    other symbol (epsilon factors included) is finite and nonzero.  The
    leading coefficient, the product of the symbols' heads (coefficient 0
    of their ``symbol_series``), is ``None`` when the order is conditional.
    """
    p, q = s0.numerator, s0.denominator
    base, num, den = 0, 1, 1
    deps: list[StripDep] = []
    values = []
    for kind, power, A, B, D, e, c, name in expr.symbols:
        n, m = A * p + B * q, D * q
        site = _classify(kind, power, A, n, m)
        if site == "value":
            values.append((kind, c, n, m, e))
        elif site == "pole":
            base -= e
            r = ZETA_POLE_RESIDUES[n // m] * D  # residue over the slope A/D: r/A
            num, den = (num * r ** e, den * A ** e) if e > 0 else (num * A ** -e, den * r ** -e)
        else:
            deps.append(StripDep(name, Q(n, m), e))
    if deps:
        return OrderValue.conditional(base, deps), None
    return OrderValue.known(base), Leading(num, den, expr.real, tuple(values))


def order_at(expr: Canonical, s0: Q) -> OrderValue:
    """Order of vanishing of the compiled expression at s = s0: ``germ_at``'s."""
    return germ_at(expr, s0)[0]


def known_part_series(expr: Canonical, s0: Q) -> Series:
    """First-order jet of the compiled expression: the product of its symbols' jets."""
    out = Series(0, (FormalScalar.monomial(()), FormalScalar()))
    for sym in expr.symbols:
        out = out * symbol_series(sym, expr.real, s0).power(sym[5])
    return out


def sum_series(terms: list[tuple[Series, int]]) -> tuple[OrderValue, FormalScalar | None]:
    """Order and leading coefficient of a signed sum of jets, each jet with
    its sign +1 or -1, to first order past the lowest order of the jets: the
    order is exact when the leading term is certified nonzero, else a floor."""
    ord0 = min(s.ord for s, _ in terms)
    out = [FormalScalar(), FormalScalar()]
    for s, sign in terms:
        for i, c in enumerate(s.coeffs, s.ord - ord0):
            if i < 2:
                out[i] = out[i] + (c if sign > 0 else -c)
    got = Series(ord0, out).leading()
    if got is None:
        return OrderValue.at_least(ord0 + 2), None
    order, lead = got
    if lead.certified_nonzero():
        return OrderValue.known(order), lead
    return OrderValue.at_least(order), lead
