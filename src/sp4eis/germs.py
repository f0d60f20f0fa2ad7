"""Meromorphic-germ calculus for canonical L/epsilon products.

Orders of vanishing are computed exactly from a few completed-L facts,
stated once as ``ZETA_POLE_RESIDUES`` and ``OPEN_STRIP``.  Only
``_classify`` tests a point against them: it places one symbol in the
strip, at a zeta pole, or at a nonzero value.  It decides in integers: at
s0 = p/q in lowest terms a symbol's argument is the integer n over
m = D*q > 0 (``AffineForm.ratio``), so the strip is 0 < n < m, a pole
has n/m among the residue table's keys, and a value is oriented left of
1/2 when 2n < m.  The facts are:

* the completed zeta function has simple poles at arguments 0 and 1 with
  residues -1 and +1, no zeros outside the open strip (0,1), and unknown
  nonnegative vanishing order inside it;
* completed L-functions of nontrivial primitive characters are entire and
  nonvanishing outside the open strip, including its edges;
* epsilon factors are entire and nonvanishing, identically 1 for the
  trivial character, and satisfy eps(u)*eps(1-u) = 1 for self-dual
  characters (a consequence of applying the functional equation twice).

Leading coefficients are tracked as formal products of named atoms with
rational coefficients.  An atom is its name: a (kind, data) tuple whose
data are the strings the rendered term shows, so atoms hash, compare and
sort as plain tuples.  ``_value_atoms`` is the one orientation table for
a nonzero value: zeta reflected to u >= 1/2, self-dual L and epsilon left
of 1/2 sent through the functional equation; its argument strings come
from ``ratio_str``, which prints n/m as ``str(Fraction)`` does.  A
``Fraction`` is built only for a value a report keeps: a ``StripDep``
point, a zeta residue over the slope, and the arguments of
``symbol_series``, which serves group sums.  Truncated Laurent series
over this scalar ring drive cancellation detection in sums of germs.  Two
atoms that are not plainly nonzero carry a nonzeroness assertion that the
numeric layer cross-checks: the shared constant Laurent coefficient of
completed zeta at its poles, and the derivative of a quadratic completed
L at 0.

A single expression needs only its leading term.  ``germ_at`` gives its
order and leading coefficient from one walk over the symbols, each
``_classify``-ed once, with no ``Series`` and no ``FormalScalar`` but the
result; ``order_at`` is the same walk for the order alone (a group's
common factor), with no ``FormalScalar`` at all.

Series serve sums only.  ``symbol_series`` expands one symbol to exactly
the requested number of coefficients (refusing strip symbols), its
coefficient 0 taken from the same orientation table, and
``known_part_series`` one expression; ``sum_germs`` expands weighted
expressions from one coefficient, adding one at a time until a formally
nonzero leading term survives, up to the ``SERIES_DEPTH`` cap; a sum that
cancels through it is a floor at the truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

from .characters import AffineForm, CharClass, power_class, ratio_str
from .normfactor import EPS, L, LExpression, LSymbol

SERIES_DEPTH = 5  # most coefficients a germ sum examines before giving a floor

# The completed-L facts: completed zeta's simple poles (integer arguments)
# with their residues, and the open strip of unknown orders.  Only
# ``_classify`` tests a point against them.
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

# An atom is its name: (kind, data), each datum the string its render
# shows -- a class value, an argument, a derivative order.  Atoms sort as
# plain tuples.
Atom = tuple[str, tuple[str, ...]]

# A derivative-order datum k names a Taylor coefficient, not a derivative:
# ``_value_series`` scales the k-th atom by a^k with no 1/k!, so
# Lam^(k)(u), Lhat[c]^(k)(u) and eps[c]^(k)(u) are f^(k)(u)/k!.  Lam_c is
# the constant coefficient of completed zeta at 1 and Lam_c{k} the
# coefficient of x^(k-1) in its expansion at 1 + x.
_ATOM_FORMATS = {
    "zconst": "Lam_c",
    "zcoef": "Lam_c{0}",
    "zval": "Lam({0})",
    "zder": "Lam^({1})({0})",
    "lval": "Lhat[{0}]({1})",
    "lder": "Lhat[{0}]^({2})({1})",
    "epsv": "eps[{0}]({1})",
    "epsder": "eps[{0}]^({2})({1})",
}


def _render_atom(atom: Atom) -> str:
    kind, data = atom
    return _ATOM_FORMATS[kind].format(*data)


def _known_nonzero(atom: Atom) -> bool:
    kind, data = atom
    if kind in ("zconst", "zval", "lval", "epsv"):
        return True
    # forced by the source's "holomorphic and non-zero" cancellation
    # statements; verified numerically for the modulus-4 character
    return kind == "lder" and data[0] == CharClass.QUADRATIC.value and data[2] == "1" \
        and data[1] in ("0", "1")


def _mod2(atom: Atom) -> bool:
    """eps(1/2) of a self-dual class: its square is 1, so its exponent reduces mod 2."""
    kind, data = atom
    return kind == "epsv" and data[1] == "1/2" and data[0] != CharClass.OTHER.value


# A monomial is canonical when its atoms are distinct and sorted, no
# exponent is 0 and every ``_mod2`` exponent is 1.
Monomial = tuple[tuple[Atom, int], ...]

_ONE: Monomial = ()


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
    constructor trusts that; ``rational``, ``monomial`` and ``atom``
    canonicalize, and every ring operation keeps it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Q] | None = None):
        self.terms: dict[Monomial, Q] = terms if terms is not None else {}

    # -- constructors --

    @staticmethod
    def zero() -> "FormalScalar":
        return FormalScalar()

    @staticmethod
    def rational(c: Q | int) -> "FormalScalar":
        c = Q(c)
        return FormalScalar({_ONE: c} if c else None)

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

    def __sub__(self, other: "FormalScalar") -> "FormalScalar":
        return self + (-other)

    def __mul__(self, other: "FormalScalar") -> "FormalScalar":
        d: dict[Monomial, Q] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                old = d.get(m)
                d[m] = c1 * c2 if old is None else old + c1 * c2
        return FormalScalar({m: c for m, c in d.items() if c})

    def scale(self, c: Q | int) -> "FormalScalar":
        if c == 1:
            return self
        if not c:
            return FormalScalar()
        c = Q(c)
        return FormalScalar({m: cc * c for m, cc in self.terms.items()})

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
            factors = [_render_atom(a) + (f"^{e}" if e != 1 else "") for a, e in m]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FormalScalar({self.render()})"


# ---------------------------------------------------------------------------
# truncated Laurent series over formal scalars
# ---------------------------------------------------------------------------

class Series:
    """Truncated Laurent series sum_i coeffs[i] * delta^(ord+i) + O(delta^(ord+len(coeffs)))."""

    __slots__ = ("ord", "coeffs")

    def __init__(self, ord: int, coeffs: Sequence[FormalScalar]):
        self.ord = ord
        self.coeffs = list(coeffs)

    @staticmethod
    def exact_one(depth: int) -> "Series":
        return Series(0, [FormalScalar.rational(1)] + [FormalScalar.zero()] * (depth - 1))

    def __mul__(self, other: "Series") -> "Series":
        n = min(len(self.coeffs), len(other.coeffs))
        out = [FormalScalar.zero() for _ in range(n)]
        for i in range(n):
            if self.coeffs[i].is_zero():
                continue
            for j in range(n - i):
                if other.coeffs[j].is_zero():
                    continue
                out[i + j] = out[i + j] + self.coeffs[i] * other.coeffs[j]
        return Series(self.ord + other.ord, out)

    def inverse(self) -> "Series":
        if not self.coeffs or self.coeffs[0].is_zero():
            raise IndeterminateLeading("cannot invert series with vanishing leading term")
        a0_inv = self.coeffs[0].inverse()
        n = len(self.coeffs)
        out = [FormalScalar.zero() for _ in range(n)]
        out[0] = a0_inv
        for k in range(1, n):
            acc = FormalScalar.zero()
            for j in range(1, k + 1):
                if j < n and not self.coeffs[j].is_zero():
                    acc = acc + self.coeffs[j] * out[k - j]
            out[k] = -(a0_inv * acc)
        return Series(-self.ord, out)

    def power(self, e: int) -> "Series":
        base = self if e > 0 else self.inverse()
        out = base
        for _ in range(abs(e) - 1):
            out = out * base
        return out

    def scale(self, c: Q | int) -> "Series":
        return Series(self.ord, [x.scale(c) for x in self.coeffs])

    @staticmethod
    def add(series: Iterable["Series"]) -> "Series":
        items = list(series)
        ord0 = min(s.ord for s in items)
        n = min(s.ord + len(s.coeffs) for s in items) - ord0
        out = [FormalScalar.zero() for _ in range(max(n, 0))]
        for s in items:
            off = s.ord - ord0
            for i, c in enumerate(s.coeffs):
                if off + i < n:
                    out[off + i] = out[off + i] + c
        return Series(ord0, out)

    def leading(self) -> tuple[int, FormalScalar] | None:
        """Exponent and coefficient of the first formally nonzero term."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return self.ord + i, c
        return None


# ---------------------------------------------------------------------------
# order values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StripDep:
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


@dataclass(frozen=True)
class OrderValue:
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
        return OrderValue("known", n)

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
        return OrderValue(self.kind, self.base + n, self.deps)

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


# ---------------------------------------------------------------------------
# symbol germs from the knowledge base
# ---------------------------------------------------------------------------

_HALF = Q(1, 2)


def _classify(sym: LSymbol, cls: CharClass, p: int, q: int) -> tuple[CharClass, int, int, str]:
    """Effective class, argument n/m (m > 0, not reduced) and site of one
    symbol at s0 = p/q (lowest terms, q > 0).

    The site is "strip" for an L-symbol in the open strip (order unknown),
    "pole" for completed zeta at one of its poles and "value" for every
    other symbol, epsilon symbols included.  A constant symbol at a pole
    raises ``DegenerateSymbol``.
    """
    eff = power_class(cls, sym.power)
    n, m = sym.arg.ratio(p, q)
    if sym.kind == EPS:
        return eff, n, m, "value"
    lo, hi = OPEN_STRIP
    if lo * m < n < hi * m:
        return eff, n, m, "strip"
    if eff is CharClass.TRIVIAL and not n % m and n // m in ZETA_POLE_RESIDUES:
        if sym.arg.a == 0:
            raise DegenerateSymbol(f"symbol {sym.render()} is constant at a completed-zeta pole")
        return eff, n, m, "pole"
    return eff, n, m, "value"


def _value_atoms(kind: str, eff: CharClass, n: int, m: int) -> Monomial:
    """Monomial of a symbol's nonzero value at u = n/m (m > 0), oriented by
    the functional equation.

    A zeta value reflects to u >= 1/2 and a trivial epsilon is 1.  Left of
    1/2 a self-dual class rewrites L(u) = eps(1-u) L(1-u) and
    eps(u) = eps(1-u)^-1; every other value is one atom at u.
    """
    if eff is CharClass.TRIVIAL:
        return () if kind == EPS else ((("zval", (ratio_str(max(n, m - n), m),)), 1),)
    if eff.is_real and 2 * n < m:
        v = (eff.value, ratio_str(m - n, m))
        if kind == EPS:
            return ((("epsv", v), -1),)
        return ((("epsv", v), 1), (("lval", v), 1))
    return ((("epsv" if kind == EPS else "lval", (eff.value, ratio_str(n, m))), 1),)


def _value_series(kind: str, eff: CharClass, u0: Q, der: str, data: tuple[str, ...], a: Q,
                  depth: int) -> Series:
    """Taylor series of a value: its oriented atoms, then the k-th derivative
    atom ``der`` at ``data`` times a^k."""
    head = FormalScalar.monomial(_value_atoms(kind, eff, u0.numerator, u0.denominator))
    return Series(0, [head] + [FormalScalar.atom((der, data + (str(k),)), a ** k)
                               for k in range(1, depth)])


def _zeta_pole_series(u0: int, a: Q, depth: int) -> Series:
    """Laurent series of completed zeta at argument u0 + a*delta, u0 in {0,1},
    ``depth`` coefficients deep.

    The expansion at 1 is 1/x + c + c2*x + ...; by the exact reflection the
    expansion at 0 is -1/x + c - c2*x + ... with the same coefficients.
    """
    sign = Q(1) if u0 == 1 else Q(-1)
    coeffs = [FormalScalar.rational(ZETA_POLE_RESIDUES[u0] / a),
              FormalScalar.atom(("zconst", ()))]
    for k in range(2, depth):
        coeffs.append(FormalScalar.atom(("zcoef", (str(k),)), sign ** k * a ** (k - 1)))
    return Series(-1, coeffs[:depth])


def _l_value_series(cls: CharClass, u0: Q, a: Q, depth: int) -> Series:
    """Series of a nontrivial completed L around argument u0 + a*delta.

    For a self-dual class right of the center the functional equation
    L(x) = eps(1-x) L(1-x) rebases the expansion on the reflected point,
    so every derivative atom lives at an argument <= 1/2 and epsilon
    derivatives cancel structurally in grouped sums.
    """
    if cls.is_real and u0 > _HALF:
        return _eps_series(cls, 1 - u0, -a, depth) * _l_value_series(cls, 1 - u0, -a, depth)
    return _value_series(L, cls, u0, "lder", (cls.value, str(u0)), a, depth)


def _eps_series(cls: CharClass, u0: Q, a: Q, depth: int) -> Series:
    if cls.is_real and u0 > _HALF:
        # eps(x) * eps(1-x) = 1 for a self-dual class
        return _eps_series(cls, 1 - u0, -a, depth).inverse()
    return _value_series(EPS, cls, u0, "epsder", (cls.value, str(u0)), a, depth)


def symbol_series(sym: LSymbol, cls: CharClass, s0: Q, depth: int) -> Series:
    """Laurent expansion of one symbol around s0 to ``depth`` coefficients
    (non-strip only)."""
    eff, n, m, site = _classify(sym, cls, s0.numerator, s0.denominator)
    if site == "strip":
        raise StripOrderUnknown(f"symbol {sym.render()} has strip argument {ratio_str(n, m)}")
    a = sym.arg.a
    if site == "pole":
        return _zeta_pole_series(n // m, a, depth)
    u0 = Q(n, m)
    if eff is CharClass.TRIVIAL:
        if sym.kind == EPS:
            return Series.exact_one(depth)
        # zeta derivatives reflect to u >= 1/2 with sign (-1)^k
        v, sign = (u0, 1) if u0 >= 1 - u0 else (1 - u0, -1)
        return _value_series(L, eff, u0, "zder", (str(v),), sign * a, depth)
    if sym.kind == EPS:
        return _eps_series(eff, u0, a, depth)
    return _l_value_series(eff, u0, a, depth)


def order_at(expr: LExpression, cls: CharClass, s0: Q) -> OrderValue:
    """Order of vanishing of the expression at s = s0 (negative for poles).

    ``expr`` is ``canonicalize(expr, cls)``-canonical.  A strip symbol
    contributes an unknown order (a ``StripDep``), completed zeta at one
    of its poles -1, and every other symbol (epsilon factors included) is
    finite and nonzero.
    """
    base = 0
    deps: list[StripDep] = []
    p, q = s0.numerator, s0.denominator
    for sym, e in expr.factors:
        _, n, m, site = _classify(sym, cls, p, q)
        if site == "strip":
            deps.append(StripDep(sym.render(), Q(n, m), e))
        elif site == "pole":
            base -= e
    return OrderValue.conditional(base, deps)


def known_part_series(expr: LExpression, cls: CharClass, s0: Q, depth: int) -> Series:
    """Product of the symbols' series, ``depth`` coefficients deep."""
    out = Series.exact_one(depth).scale(expr.scalar)
    for sym, e in expr.factors:
        out = out * symbol_series(sym, cls, s0, depth).power(e)
    return out


def germ_at(expr: LExpression, cls: CharClass, s0: Q) -> tuple[OrderValue, FormalScalar | None]:
    """Order (as ``order_at``) and leading coefficient of the expression at s0.

    ``expr`` is ``canonicalize(expr, cls)``-canonical.  The leading
    coefficient is ``None`` when a strip symbol leaves the order
    conditional.  Otherwise each symbol's head is the coefficient 0 of
    its ``symbol_series``, a nonzero monomial: a zeta pole gives its
    residue over the argument's slope, any other symbol its
    ``_value_atoms`` (right of 1/2 the series' self-dual rebase cancels
    its epsilon pair, leaving the same atoms).  The leading coefficient
    is the product of the heads: the rationals multiply and the atom
    exponents add, and the monomial is normalized once at the end.
    """
    base = 0
    deps: list[StripDep] = []
    coeff = expr.scalar
    exps: dict[Atom, int] = {}
    p, q = s0.numerator, s0.denominator
    for sym, e in expr.factors:
        eff, n, m, site = _classify(sym, cls, p, q)
        if site == "strip":
            deps.append(StripDep(sym.render(), Q(n, m), e))
        elif site == "pole":
            base -= e
            coeff *= (ZETA_POLE_RESIDUES[n // m] / sym.arg.a) ** e
        elif not deps:  # after a strip symbol there is no leading term to build
            for a, k in _value_atoms(sym.kind, eff, n, m):
                exps[a] = exps.get(a, 0) + k * e
    leading = None if deps else FormalScalar({_mono_normalize(exps): coeff})
    return OrderValue.conditional(base, deps), leading


@dataclass
class GermSum:
    """Result of a weighted sum: exact when certified, else a floor."""

    order: OrderValue
    leading: FormalScalar | None


def sum_series(terms: list[tuple[Series, Q]]) -> GermSum:
    total = Series.add([s.scale(w) for s, w in terms])
    got = total.leading()
    if got is None:
        return GermSum(OrderValue.at_least(total.ord + len(total.coeffs)), None)
    order, lead = got
    if lead.certified_nonzero():
        return GermSum(OrderValue.known(order), lead)
    return GermSum(OrderValue.at_least(order), lead)


def sum_germs(terms: list[tuple[LExpression, Q]], cls: CharClass, s0: Q) -> GermSum:
    """Weighted sum of expressions at s0 with exact cancellation detection.

    The minimum order wins.  The sum starts from one Laurent coefficient
    per expression; while its leading coefficients cancel formally, every
    expression is expanded one coefficient deeper, up to ``SERIES_DEPTH``.
    If the surviving coefficient cannot be certified nonzero, or everything
    up to the cap cancels, the result is only a floor.  An expression with
    a strip symbol raises ``StripOrderUnknown``.
    """
    for depth in range(1, SERIES_DEPTH + 1):
        out = sum_series([(known_part_series(e, cls, s0, depth), w) for e, w in terms])
        if out.leading is not None:
            break
    return out


# ---------------------------------------------------------------------------
# functional-equation rewrite on expressions
# ---------------------------------------------------------------------------

def _oriented(arg: AffineForm) -> bool:
    if arg.a > 0:
        return True
    if arg.a < 0:
        return False
    return arg.b >= Q(1, 2)


def apply_functional_equation(expr: LExpression, cls: CharClass | None = None) -> LExpression:
    """Rewrite L-symbols toward arguments in the half-plane Re >= 1/2.

    Each L(u, chi^k) with a left-oriented argument u becomes
    eps(1-u, chi^-k) * L(1-u, chi^-k).  Epsilon symbols are left alone.
    The rewrite is idempotent; passing a class additionally reduces chi
    powers (so for self-dual classes the result matches the classical
    single-character form).
    """
    from .normfactor import canonicalize  # local import to avoid cycle

    d: dict[LSymbol, int] = {}
    for sym, e in expr.factors:
        if sym.kind == L and not _oriented(sym.arg):
            refl = sym.arg.reflect()
            for new in (LSymbol(L, refl, -sym.power), LSymbol(EPS, refl, -sym.power)):
                d[new] = d.get(new, 0) + e
        else:
            d[sym] = d.get(sym, 0) + e
    out = LExpression.build(expr.scalar, d)
    return canonicalize(out, cls) if cls is not None else out
