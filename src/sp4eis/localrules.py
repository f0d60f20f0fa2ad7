"""Rule tables for local normalized intertwining operators.

The tables encode, per (case, Weyl element, place kind, local character
class, point), the pole order of the local operator on the degenerate
induced module, the constituent carrying the pole, and the signed actions
used for same-target cancellation bookkeeping.  The rows live in a
human-auditable data file (``data/local_rules.txt``); nothing here derives
representation theory, rows are conclusions stored as data.  One reader,
``load_rules``, reads that file and any override; ``parse_rules`` checks
each row once, as it reads it, so every row error names file and line.

``LOCAL_CLASSES`` states, once, which local classes a place of each kind
may carry under a global character of each class; ``PlaceProfile``,
``eisenstein_order``, the scenario reader and this loader all read it.
A key is (case, element, place kind, local class, point); its kind and
class arrive checked by ``PlaceProfile``.  A ``RuleTable`` indexes its
rows once, when it is built, by (case, element, place kind, class), each
row with its condition as an int tuple; a row for several elements, for
both place kinds or for every class ("*") sits under each of its keys,
and an unknown case, element or kind has no rows.  A key's action rows
keep file order and its pole rows sit highest order first, file order
among equals, so ``RuleTable.local_pole`` and ``RuleTable.action_rule``
test only the condition, in integers at a point p/q in lowest terms,
and return the first match.  The pole row answers every later question
about its key: the order a section choice meets (``PoleRule.order_for``)
and the constituent carrying the pole.  Every row keeps the file line it
was read from, and a row compares and hashes on every field, that line
included.  Four facts live in code, not in rows, and the loader refuses
a row that restates them: the identity carries no operator (no row names
it), ``carrier`` meets every pole and ``spherical`` none (no pole row
lists either), a kernel sits on a base.

``sl2_reducible`` and ``gl2_reducible`` are no engine API: nothing here
reads them.  They are the reference that ``tests/test_localrules.py``
checks the pole rows against (a pole at a negative parameter requires the
corresponding local induced representation to be reducible), kept in
``KEPT`` of ``tests/test_api_surface.py``.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .characters import COSET_REPS, CharClass, ratio_str

NONARCH = "nonarch"
ARCH = "arch"

ISO = "iso"
KERNEL = "kernel"

# names of the three elements per case that carry an operator (not the identity)
_ELEMENT_NAMES = {case: tuple(w.name for w in reps if w.length)
                  for case, reps in COSET_REPS.items()}

# section-choice tokens: the constituent a place's section is taken in
POLE_CHOICES = ("langlands", "steinberg", "t1", "t2")  # those a pole row may list
CHOICES = ("spherical", *POLE_CHOICES, "carrier")
# pole-row carriers of a first-order pole; order-0 rows leave the field empty
CARRIERS = ("st_gl2", "st_sl2", "tempered_t2", "arch_nonlanglands", "")
_TR, _QU, _OT, _SGN = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER, CharClass.SGN
# global class -> place kind -> the local classes a place of that kind may
# carry: a trivial character is trivial at every place, a quadratic one is
# nowhere of class other, and a real place's quadratic class is sgn.  sgn
# has no row: it is no global class
LOCAL_CLASSES = {
    _TR: {NONARCH: (_TR,), ARCH: (_TR,)},
    _QU: {NONARCH: (_TR, _QU), ARCH: (_TR, _SGN)},
    _OT: {NONARCH: (_TR, _QU, _OT), ARCH: (_TR, _SGN, _OT)},
}
# the local classes a place of each kind may carry under some global class
PLACE_CLASSES = {kind: tuple(dict.fromkeys(c for by_kind in LOCAL_CLASSES.values()
                                           for c in by_kind[kind]))
                 for kind in (NONARCH, ARCH)}
_CLASSES = tuple(CharClass)


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


class Condition(NamedTuple):
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

    def render(self) -> str:
        if self.kind == "always":
            return "always"
        if self.kind == "eq":
            return f"s={ratio_str(*self.value)}"
        par = "even" if self.parity == 0 else "odd"
        vn, vd = self.value
        shift = "" if vn == 0 else ("+" if vn > 0 else "") + ratio_str(vn, vd)
        return f"s{shift} {par} integer < {ratio_str(*self.below)}"


class PoleRule(NamedTuple):
    case: str
    elements: tuple[str, ...]
    place: str            # nonarch | arch | *
    classes: tuple[str, ...]
    condition: Condition
    order: int
    carrier: str
    pole_choices: tuple[str, ...]
    note: str
    line: int = 0         # the rule-file line it was read from

    def order_for(self, choice: str) -> int:
        """Pole order met by a section choice: the carrier meets every pole."""
        return self.order if choice == "carrier" or choice in self.pole_choices else 0


class ActionRule(NamedTuple):
    case: str
    element: str
    base: str             # "base", or the group base it is relative to ("-": the identity)
    place: str
    classes: tuple[str, ...]
    condition: Condition
    actions: tuple[tuple[str, str], ...]
    note: str
    line: int = 0         # the rule-file line it was read from

    def action_for(self, choice: str) -> str:
        for token, value in self.actions:
            if token == choice:
                return value
        for token, value in self.actions:
            if token == "any":  # operator acts the same way on the whole module
                return value
        raise UnknownChoice(
            f"choice {choice!r} not covered by action rule for {self.case}/{self.element} at {self.condition.render()}")


def _index(rows: list, elements) -> dict[tuple[str, str, str, str], tuple]:
    """(condition, row) pairs by (case, element, place kind, class), in the
    order of ``rows``; ``elements`` gives a row's elements.  A condition is
    () for always, (vn, vd) for eq and (vn, vd, parity, bn, bd) for int."""
    out: dict[tuple[str, str, str, str], list] = {}
    for r in rows:
        c = r.condition
        cond = () if c.kind == "always" else c.value if c.kind == "eq" else (
            *c.value, c.parity, *c.below)
        places = (NONARCH, ARCH) if r.place == "*" else (r.place,)
        classes = _CLASSES if "*" in r.classes else r.classes
        for element in elements(r):
            for place in places:
                for cls in classes:
                    out.setdefault((r.case, element, place, cls), []).append((cond, r))
    return {key: tuple(rs) for key, rs in out.items()}


def _first(rows: tuple, p: int, q: int):
    """The first row whose condition holds at p/q (lowest terms, q > 0), or ``None``."""
    for cond, row in rows:
        if len(cond) < 5:
            if not cond or cond == (p, q):
                return row
            continue
        # p/q + vn/vd, both in lowest terms, is an integer only when q == vd
        vn, vd, parity, bn, bd = cond
        t, r = divmod(p + vn, q)
        if q == vd and not r and t * bd < bn and t % 2 == parity:
            return row
    return None


class RuleTable:
    """Pole and action rows in file order, indexed once by (case, element,
    place kind, class); a key's pole rows sit highest order first."""

    def __init__(self, poles: list[PoleRule], actions: list[ActionRule]):
        self.poles = poles
        self.actions = actions
        # a stable sort: among rows of one order the first in file order leads
        self._pole_rows = _index(sorted(poles, key=lambda r: -r.order), lambda r: r.elements)
        self._action_rows = _index(actions, lambda r: (r.element,))

    # -- queries --

    def local_pole(self, case: str, element: str, place: str,
                   local_class: CharClass, s0: Q) -> PoleRule:
        """The pole row that fixes a key's order: the highest-order match,
        the first in file order among equals.

        Order-0 keys need a catch-all row; an order-0 row's carrier and pole
        choices are never read.

        Raises :class:`UncoveredKey` when no row covers the key (an unknown
        case, element or place kind has none).
        """
        hit = _first(self._pole_rows.get((case, element, place, local_class), ()),
                     s0.numerator, s0.denominator)
        if hit is None:
            raise UncoveredKey(f"no pole rule covers {case}/{element} at a {place} place, "
                               f"class {local_class}, s={s0}")
        return hit

    def action_rule(self, case: str, element: str, place: str,
                    local_class: CharClass, s0: Q) -> ActionRule | None:
        """The first action row matching the key, or ``None``."""
        return _first(self._action_rows.get((case, element, place, local_class), ()),
                      s0.numerator, s0.denominator)


def parse_rules(text: str, source: str = "<string>") -> RuleTable:
    """The table in ``text``: each row split into its fields and checked
    (``_check_row``) where it is read, so an error names ``source`` and the
    line; then every case must have a catch-all pole row."""
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
                rule = PoleRule(case=case, elements=tuple(elements.split(",")), place=place,
                                classes=tuple(classes.split(",")), condition=Condition.parse(cond),
                                order=int(order), carrier=carrier,
                                pole_choices=tuple(t for t in pole_choices.split(",") if t),
                                note=note, line=lineno)
            elif kind == "action":
                (_, case, element, base, place, classes, cond, actions, note) = fields
                rule = ActionRule(case=case, element=element, base=base, place=place,
                                  classes=tuple(classes.split(",")), note=note, line=lineno,
                                  condition=Condition.parse(cond),
                                  actions=tuple(item.partition("=")[::2]  # (choice, value)
                                                for item in actions.split(",")))
            else:
                raise RuleTableError(f"unknown record kind {kind!r}")
            _check_row(rule)
            (pole_rows if kind == "pole" else action_rows).append(rule)
        except (ValueError, IndexError) as exc:
            raise RuleTableError(f"{source}:{lineno}: {exc}") from exc
    for case in _ELEMENT_NAMES:
        if not any(r.condition.kind == "always" for r in pole_rows if r.case == case):
            raise RuleTableError(f"{source}: missing {case} catch-all pole row")
    return RuleTable(pole_rows, action_rows)


def _check_row(rule: PoleRule | ActionRule) -> None:
    """Refuse a row the engine would misread: a token outside its field's
    vocabulary or a class its place cannot have (either way the row would
    match nothing and silently change answers), a pole order other than 0
    or 1, a first-order pole without a carrier, an order-0 row listing a
    carrier or pole choices, a kernel off a base row, or an action choice
    listed twice (``action_for`` reads only the first)."""
    names = _ELEMENT_NAMES.get(rule.case, ())
    fields = [("case", (rule.case,), tuple(_ELEMENT_NAMES)),
              ("place", (rule.place,), (NONARCH, ARCH, "*")),
              ("class", rule.classes, _CLASSES + ("*",))]
    if isinstance(rule, PoleRule):
        if rule.order not in (0, 1):
            raise RuleTableError(f"pole order must be 0 or 1, got {rule.order}")
        if rule.order == 1 and not rule.carrier:
            raise RuleTableError("first-order pole rows need a carrier")
        if rule.order == 0 and (rule.carrier or rule.pole_choices):
            raise RuleTableError("order-0 pole rows list no carrier and no pole choices")
        fields += [("element", rule.elements, names),
                   ("pole choice", rule.pole_choices, POLE_CHOICES),
                   ("carrier", (rule.carrier,), CARRIERS)]
    else:
        if rule.base != "base" and any(value == KERNEL for _, value in rule.actions):
            raise RuleTableError(f"kernel on a row relative to {rule.base!r}, not a base row")
        choices = [t for t, _ in rule.actions]
        twice = next((t for i, t in enumerate(choices) if t in choices[:i]), None)
        if twice is not None:
            raise RuleTableError(f"action choice {twice!r} listed twice")
        fields += [("element", (rule.element,), names),
                   ("action base", (rule.base,), ("-", "base") + names),
                   ("action choice", choices, CHOICES + ("any",)),
                   ("action value", [v for _, v in rule.actions], ("+1", "-1", ISO, KERNEL))]
    for what, tokens, allowed in fields:
        for token in tokens:
            if token not in allowed:
                raise RuleTableError(f"unknown {what} {token!r}")
    may_carry = PLACE_CLASSES.get(rule.place, _CLASSES)  # a "*" row may name any class
    for token in rule.classes:
        if token != "*" and token not in may_carry:
            raise RuleTableError(f"class {token!r} cannot occur at place {rule.place!r}")


def load_rules(path: str | Path) -> RuleTable:
    """The rule table in the UTF-8 file at ``path``: the shipped one or an
    override for auditing.  Every error names the file."""
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
    """The shipped table, ``data/local_rules.txt`` beside this module, read once."""
    return load_rules(Path(__file__).with_name("data") / "local_rules.txt")


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
