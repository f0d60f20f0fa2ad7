"""Rule tables for local normalized intertwining operators.

The tables encode, per (case, Weyl element, place kind, local character
class, point), the pole order of the local operator on the degenerate
induced module, the constituent carrying the pole, and the signed actions
used for same-target cancellation bookkeeping.  The rows live in a
human-auditable data file (``data/local_rules.txt``); nothing here derives
representation theory, rows are conclusions stored as data.

A key is (case, element, place kind, local class, point).
``RuleTable.local_pole`` matches a key to its pole row and
``RuleTable.action_rule`` to its action row, both through one
case/place/class/condition predicate.  The pole row answers every later
question about its key: the order a section choice meets
(``PoleRule.order_for``) and the constituent carrying the pole.

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

from .characters import COSET_REPS, CharClass

NONARCH = "nonarch"
ARCH = "arch"

ISO = "iso"
KERNEL = "kernel"

# names of the four constant-term elements, per case
_ELEMENT_NAMES = {case: tuple(w.name for w in reps) for case, reps in COSET_REPS.items()}

# section-choice tokens: the constituent a place's section is taken in
CHOICES = ("spherical", "langlands", "steinberg", "t1", "t2", "carrier")


class UncoveredKey(KeyError):
    """A (case, element, place, class, point) outside every table row."""


class UnknownChoice(KeyError):
    """A section choice the action row does not cover."""


class RuleTableError(ValueError):
    """Malformed rule-table data."""


@dataclass(frozen=True)
class Condition:
    """Point predicate: exact rational, shifted-integer parity below a bound, or all."""

    kind: str           # "eq" | "int" | "always"
    value: Q = Q(0)     # eq: the point; int: the shift
    parity: int = 0     # int: 0 even, 1 odd
    below: Q = Q(0)     # int: require s0+shift < below (strict)

    @staticmethod
    def parse(text: str) -> "Condition":
        if text == "always":
            return Condition("always")
        parts = text.split(":")
        if parts[0] == "eq" and len(parts) == 2:
            return Condition("eq", Q(parts[1]))
        if parts[0] == "int" and len(parts) in (3, 4):
            shift, par = Q(parts[1]), parts[2]
            if par not in ("even", "odd"):
                raise RuleTableError(f"bad parity in condition {text!r}")
            below = Q(0)
            if len(parts) == 4:
                if not parts[3].startswith("lt"):
                    raise RuleTableError(f"bad bound in condition {text!r}")
                below = Q(parts[3][2:])
            return Condition("int", shift, 0 if par == "even" else 1, below)
        raise RuleTableError(f"bad condition {text!r}")

    def matches(self, s0: Q) -> bool:
        if self.kind == "always":
            return True
        if self.kind == "eq":
            return s0 == self.value
        t = s0 + self.value
        return t.denominator == 1 and t < self.below and int(t) % 2 == self.parity

    def render(self) -> str:
        if self.kind == "always":
            return "always"
        if self.kind == "eq":
            return f"s={self.value}"
        par = "even" if self.parity == 0 else "odd"
        shift = "" if self.value == 0 else ("+" if self.value > 0 else "") + str(self.value)
        return f"s{shift} {par} integer < {self.below}"


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

    def matches(self, case: str, element: str, place: str, local_class: CharClass, s0: Q) -> bool:
        return element in self.elements and _covers(self, case, place, local_class, s0)

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

    def matches(self, case: str, element: str, place: str, local_class: CharClass, s0: Q) -> bool:
        return element == self.element and _covers(self, case, place, local_class, s0)

    def action_for(self, choice: str) -> str:
        for token, value in self.actions:
            if token == choice:
                return value
        for token, value in self.actions:
            if token == "any":  # operator acts the same way on the whole module
                return value
        raise UnknownChoice(
            f"choice {choice!r} not covered by action rule for {self.case}/{self.element} at {self.condition.render()}")


def _covers(rule: PoleRule | ActionRule, case: str, place: str, local_class: CharClass,
            s0: Q) -> bool:
    """The case, place, class and point part of a row match, shared by both row kinds."""
    return (rule.case == case and rule.place in ("*", place)
            and ("*" in rule.classes or local_class.value in rule.classes)
            and rule.condition.matches(s0))


@dataclass
class RuleTable:
    poles: list[PoleRule] = field(default_factory=list)
    actions: list[ActionRule] = field(default_factory=list)

    # -- queries --

    def local_pole(self, case: str, element: str, place: str,
                   local_class: CharClass, s0: Q) -> PoleRule:
        """The pole row that fixes a key's order: the highest-order match.

        Order-0 keys need a catch-all row; an order-0 row's carrier and pole
        choices are never read.

        Raises :class:`UncoveredKey` when no row covers the key (invalid
        place/class combinations surface loudly instead of defaulting).
        """
        _validate_key(case, element, place, local_class)
        hits = [r for r in self.poles if r.matches(case, element, place, local_class, s0)]
        if not hits:
            raise UncoveredKey(f"no pole rule covers {case}/{element} at a {place} place, "
                               f"class {local_class.value}, s={s0}")
        return max(hits, key=lambda r: r.order)

    def action_rule(self, case: str, element: str, place: str,
                    local_class: CharClass, s0: Q) -> ActionRule | None:
        """The first action row matching the key, or ``None``."""
        for r in self.actions:
            if r.matches(case, element, place, local_class, s0):
                return r
        return None


def _validate_key(case: str, element: str, place: str, local_class: CharClass) -> None:
    if case not in _ELEMENT_NAMES:
        raise UncoveredKey(f"unknown case {case!r}")
    if place not in (NONARCH, ARCH):
        raise UncoveredKey(f"unknown place kind {place!r}")
    if local_class is CharClass.SGN and place != ARCH:
        raise UncoveredKey("sgn class only occurs at the archimedean place")
    if local_class is CharClass.QUADRATIC and place == ARCH:
        raise UncoveredKey("the archimedean quadratic class is called sgn")
    if element not in _ELEMENT_NAMES[case]:
        raise UncoveredKey(
            f"element {element!r} does not occur in the {case} constant term")


def parse_rules(text: str, source: str = "<string>") -> RuleTable:
    table = RuleTable()
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
                    note=note,
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
                    actions=tuple(pairs), note=note,
                )
            else:
                raise RuleTableError(f"unknown record kind {kind!r}")
            _check_tokens(rule)
            (table.poles if kind == "pole" else table.actions).append(rule)
        except (ValueError, IndexError) as exc:
            raise RuleTableError(f"{source}:{lineno}: {exc}") from exc
    _sanity_check(table, source)
    return table


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


def _sanity_check(table: RuleTable, source: str) -> None:
    for case in _ELEMENT_NAMES:
        if not any(r.condition.kind == "always" for r in table.poles if r.case == case):
            raise RuleTableError(f"{source}: missing {case} catch-all pole row")
    for r in table.poles:
        if r.order not in (0, 1):
            raise RuleTableError(f"{source}: pole order must be 0 or 1, got {r.order}")
        if r.order == 1 and not r.carrier:
            raise RuleTableError(f"{source}: first-order pole rows need a carrier")


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
