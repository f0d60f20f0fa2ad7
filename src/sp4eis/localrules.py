"""Rule tables for local normalized intertwining operators.

The tables encode, per (case, Weyl element, place kind, local character
class, point), the pole order of the local operator on the degenerate
induced module, the constituent carrying the pole, and the signed actions
used for same-target cancellation bookkeeping.  The rows live in a
human-auditable data file (``data/local_rules.txt``); nothing here derives
representation theory, rows are conclusions stored as data.

A key is (case, element, place kind, local class, point); its kind and
class arrive checked by ``PlaceProfile``.  A ``RuleTable`` indexes its
rows once, when ``parse_rules`` builds it, by (case, element, place
kind), in file order; a row for several elements or for both place kinds
("*") sits under each of its keys, and an unknown case, element or kind
has no rows.  ``RuleTable.local_pole`` and ``RuleTable.action_rule``
then test class and condition on their key's rows only: the pole row is
the highest-order match (the first among equals), the action row the
first match.  Conditions store their points as integer (numerator,
denominator) pairs at parse time, and a point p/q in lowest terms is
matched in integers.  The pole row answers every later question about
its key: the order a section choice meets (``PoleRule.order_for``) and
the constituent carrying the pole.  Every row keeps the file line it was
read from, so errors name it.

Also exposed: the SL2/GL2 reducibility predicates that govern where local
poles may occur (a pole at a negative parameter requires the corresponding
local induced representation to be reducible).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache
from pathlib import Path

from .characters import COSET_REPS, CharClass, ratio_str

NONARCH = "nonarch"
ARCH = "arch"

ISO = "iso"
KERNEL = "kernel"

# names of the four constant-term elements, per case
_ELEMENT_NAMES = {case: tuple(w.name for w in reps) for case, reps in COSET_REPS.items()}

# section-choice tokens: the constituent a place's section is taken in
CHOICES = ("spherical", "langlands", "steinberg", "t1", "t2", "carrier")
# pole-row carriers of a first-order pole; order-0 rows leave the field empty
CARRIERS = ("st_gl2", "st_sl2", "tempered_t2", "arch_nonlanglands", "")


class UncoveredKey(KeyError):
    """A (case, element, place, class, point) outside every table row."""


class UnknownChoice(KeyError):
    """A section choice the action row does not cover."""


class RuleTableError(ValueError):
    """Malformed rule-table data."""


def _point(text: str) -> tuple[int, int]:
    """A rational written in a condition, as (numerator, denominator) in lowest terms."""
    try:
        v = Q(text)
    except ZeroDivisionError:
        raise RuleTableError(f"zero denominator in {text!r}") from None
    return v.numerator, v.denominator


@dataclass(frozen=True)
class Condition:
    """Point predicate: exact rational, shifted-integer parity below a bound, or all.

    Rationals are (numerator, denominator) pairs in lowest terms.
    """

    kind: str                        # "eq" | "int" | "always"
    value: tuple[int, int] = (0, 1)  # eq: the point; int: the shift
    parity: int = 0                  # int: 0 even, 1 odd
    below: tuple[int, int] = (0, 1)  # int: require s0+shift < below (strict)

    @staticmethod
    def parse(text: str) -> "Condition":
        if text == "always":
            return Condition("always")
        parts = text.split(":")
        if parts[0] == "eq" and len(parts) == 2:
            return Condition("eq", _point(parts[1]))
        if parts[0] == "int" and len(parts) in (3, 4):
            shift, par = _point(parts[1]), parts[2]
            if par not in ("even", "odd"):
                raise RuleTableError(f"bad parity in condition {text!r}")
            below = (0, 1)
            if len(parts) == 4:
                if not parts[3].startswith("lt"):
                    raise RuleTableError(f"bad bound in condition {text!r}")
                below = _point(parts[3][2:])
            return Condition("int", shift, 0 if par == "even" else 1, below)
        raise RuleTableError(f"bad condition {text!r}")

    def matches(self, p: int, q: int) -> bool:
        """Whether the point p/q (lowest terms, q > 0) satisfies the predicate."""
        if self.kind == "always":
            return True
        vn, vd = self.value
        if self.kind == "eq":
            return p == vn and q == vd
        # p/q + vn/vd, both in lowest terms, is an integer only when q == vd
        if q != vd or (p + vn) % q:
            return False
        t = (p + vn) // q
        bn, bd = self.below
        return t * bd < bn and t % 2 == self.parity

    def render(self) -> str:
        if self.kind == "always":
            return "always"
        if self.kind == "eq":
            return f"s={ratio_str(*self.value)}"
        par = "even" if self.parity == 0 else "odd"
        vn, vd = self.value
        shift = "" if vn == 0 else ("+" if vn > 0 else "") + ratio_str(vn, vd)
        return f"s{shift} {par} integer < {ratio_str(*self.below)}"


@dataclass(frozen=True)
class PoleRule:
    case: str
    elements: tuple[str, ...]
    place: str            # nonarch | arch | *
    classes: tuple[str, ...]
    condition: Condition
    order: int
    carrier: str
    pole_choices: tuple[str, ...]
    note: str
    line: int = field(default=0, compare=False)  # the rule-file line it was read from

    def order_for(self, choice: str) -> int:
        """Pole order met by a section choice (spherical never meets one)."""
        if choice == "spherical" or choice not in self.pole_choices:
            return 0
        return self.order


@dataclass(frozen=True)
class ActionRule:
    case: str
    element: str
    base: str             # group-base element name, or "-" for absolute
    place: str
    classes: tuple[str, ...]
    condition: Condition
    actions: tuple[tuple[str, str], ...]
    note: str
    line: int = field(default=0, compare=False)  # the rule-file line it was read from

    def action_for(self, choice: str) -> str:
        for token, value in self.actions:
            if token == choice:
                return value
        for token, value in self.actions:
            if token == "any":  # operator acts the same way on the whole module
                return value
        raise UnknownChoice(
            f"choice {choice!r} not covered by action rule for {self.case}/{self.element} at {self.condition.render()}")


def _index(rows: list, elements) -> dict[tuple[str, str, str], tuple]:
    """Rows by (case, element, place kind), each key's rows in file order.

    ``elements`` gives a row's elements; a "*" row sits under both kinds.
    """
    out: dict[tuple[str, str, str], list] = {}
    for r in rows:
        places = (NONARCH, ARCH) if r.place == "*" else (r.place,)
        for element in elements(r):
            for place in places:
                out.setdefault((r.case, element, place), []).append(r)
    return {key: tuple(rs) for key, rs in out.items()}


def _matching(rows: tuple, local_class: CharClass, s0: Q):
    """The rows whose class and condition cover the point, in file order."""
    cls, p, q = local_class.value, s0.numerator, s0.denominator
    return (r for r in rows
            if ("*" in r.classes or cls in r.classes) and r.condition.matches(p, q))


@dataclass
class RuleTable:
    """Pole and action rows in file order, indexed once by (case, element, place)."""

    poles: list[PoleRule] = field(default_factory=list)
    actions: list[ActionRule] = field(default_factory=list)

    def __post_init__(self):
        self._pole_rows = _index(self.poles, lambda r: r.elements)
        self._action_rows = _index(self.actions, lambda r: (r.element,))

    # -- queries --

    def local_pole(self, case: str, element: str, place: str,
                   local_class: CharClass, s0: Q) -> PoleRule:
        """The pole row that fixes a key's order: the highest-order match.

        Order-0 keys need a catch-all row; an order-0 row's carrier and pole
        choices are never read.

        Raises :class:`UncoveredKey` when no row covers the key (an unknown
        case, element or place kind has none).
        """
        rows = self._pole_rows.get((case, element, place), ())
        hit = max(_matching(rows, local_class, s0), key=lambda r: r.order, default=None)
        if hit is None:
            raise UncoveredKey(f"no pole rule covers {case}/{element} at a {place} place, "
                               f"class {local_class.value}, s={s0}")
        return hit

    def action_rule(self, case: str, element: str, place: str,
                    local_class: CharClass, s0: Q) -> ActionRule | None:
        """The first action row matching the key, or ``None``."""
        rows = self._action_rows.get((case, element, place), ())
        return next(_matching(rows, local_class, s0), None)


def parse_rules(text: str, source: str = "<string>") -> RuleTable:
    pole_rows: list[PoleRule] = []
    action_rows: list[ActionRule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        kind = fields[0]
        try:
            if kind == "pole":
                (_, case, elements, place, classes, cond, order,
                 carrier, pole_choices, note) = fields
                rule = PoleRule(
                    case=case,
                    elements=tuple(elements.split(",")),
                    place=place,
                    classes=tuple(classes.split(",")),
                    condition=Condition.parse(cond),
                    order=int(order),
                    carrier=carrier,
                    pole_choices=tuple(t for t in pole_choices.split(",") if t),
                    note=note, line=lineno,
                )
            elif kind == "action":
                (_, case, element, base, place, classes, cond, actions, note) = fields
                pairs = []
                for item in actions.split(","):
                    token, _, value = item.partition("=")
                    if value not in ("+1", "-1", ISO, KERNEL):
                        raise RuleTableError(f"bad action value {value!r}")
                    pairs.append((token, value))
                rule = ActionRule(
                    case=case, element=element, base=base, place=place,
                    classes=tuple(classes.split(",")),
                    condition=Condition.parse(cond),
                    actions=tuple(pairs), note=note, line=lineno,
                )
            else:
                raise RuleTableError(f"unknown record kind {kind!r}")
            _check_tokens(rule)
            (pole_rows if kind == "pole" else action_rows).append(rule)
        except (ValueError, IndexError) as exc:
            raise RuleTableError(f"{source}:{lineno}: {exc}") from exc
    _sanity_check(pole_rows, source)
    return RuleTable(pole_rows, action_rows)


def _check_tokens(rule: PoleRule | ActionRule) -> None:
    """Refuse a token outside its field's vocabulary: a misspelt token
    would make its row match nothing and silently change answers."""
    names = _ELEMENT_NAMES.get(rule.case, ())
    fields = [("case", (rule.case,), tuple(_ELEMENT_NAMES)),
              ("place", (rule.place,), (NONARCH, ARCH, "*")),
              ("class", rule.classes, tuple(c.value for c in CharClass) + ("*",))]
    if isinstance(rule, PoleRule):
        fields += [("element", rule.elements, names),
                   ("pole choice", rule.pole_choices, CHOICES)]
    else:
        fields += [("element", (rule.element,), names),
                   ("action base", (rule.base,), ("-", "base") + names),
                   ("action choice", [t for t, _ in rule.actions], CHOICES + ("any",))]
    for what, tokens, allowed in fields:
        for token in tokens:
            if token not in allowed:
                raise RuleTableError(f"unknown {what} {token!r}")


def _sanity_check(poles: list[PoleRule], source: str) -> None:
    for case in _ELEMENT_NAMES:
        if not any(r.condition.kind == "always" for r in poles if r.case == case):
            raise RuleTableError(f"{source}: missing {case} catch-all pole row")
    for r in poles:
        if r.order not in (0, 1):
            raise RuleTableError(f"{source}:{r.line}: pole order must be 0 or 1, got {r.order}")
        if r.order == 1 and not r.carrier:
            raise RuleTableError(f"{source}:{r.line}: first-order pole rows need a carrier")
        if r.carrier not in CARRIERS:
            raise RuleTableError(f"{source}:{r.line}: unknown carrier {r.carrier!r}")


def load_rules(path: str | Path | None = None) -> RuleTable:
    """Load the shipped rule table, or an override file for auditing."""
    if path is None:
        res = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt")
        return parse_rules(res.read_text(encoding="utf-8"), source="data/local_rules.txt")
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise RuleTableError(f"{p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise RuleTableError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    return parse_rules(text, source=str(p))


@cache
def default_rules() -> RuleTable:
    return load_rules()


# ---------------------------------------------------------------------------
# reducibility predicates
# ---------------------------------------------------------------------------

def sl2_reducible(place: str, local_class: CharClass, s0: Q) -> bool:
    """Reducibility of the SL2 principal series |.|^s0 * chi.

    Nonarchimedean: reducible exactly for a quadratic nontrivial character
    at s0 = 0 and for the trivial character at s0 = +-1.  Archimedean:
    reducible exactly at integers of parity matched to the character
    (odd for trivial, even for sgn).
    """
    if place == NONARCH:
        if local_class is CharClass.QUADRATIC:
            return s0 == 0
        if local_class is CharClass.TRIVIAL:
            return s0 in (Q(1), Q(-1))
        return False
    if place == ARCH:
        return _arch_reducible(local_class, s0)
    raise ValueError(f"unknown place kind {place!r}")


def gl2_reducible(place: str, local_class: CharClass, t: Q) -> bool:
    """Reducibility of the GL2 principal series chi|.|^t x 1.

    Nonarchimedean: reducible exactly for the trivial character at
    t = +-1.  Archimedean: at integers, odd for trivial and even for sgn
    (the parity selecting an essentially discrete-series constituent).
    """
    if place == NONARCH:
        return local_class is CharClass.TRIVIAL and t in (Q(1), Q(-1))
    if place == ARCH:
        return _arch_reducible(local_class, t)
    raise ValueError(f"unknown place kind {place!r}")


def _arch_reducible(local_class: CharClass, t: Q) -> bool:
    """Archimedean reducibility shared by SL2 and GL2: an integer t, odd for
    the trivial class and even for sgn."""
    if t.denominator != 1:
        return False
    if local_class is CharClass.TRIVIAL:
        return t.numerator % 2 != 0
    if local_class is CharClass.SGN:
        return t.numerator % 2 == 0
    return False
