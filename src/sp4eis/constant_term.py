"""Constant-term assembly: per-element germs, cancellations, pole reports.

The constant term of the degenerate Eisenstein series is a sum over the
four Weyl representatives of (inverse normalizing factor) x (local
operators applied to the section).  This module combines, for a chosen
section profile, the exact order data of the global factors with the
local pole/action tables, detects cancellations between summands whose
target characters coincide at the point, and reports the resulting pole
order, vanishing behavior, and image labels.  Which local classes a
place may carry is read from ``localrules.LOCAL_CLASSES``: a profile is
checked against it per place kind when it is built, and a report per
global class, each class as a ``CharClass`` member.

Each (case, class) has one table of its four summands, compiled once in
coset (length) order (``summands``): element, name, identity flag,
factor and reduced target; ``factor_expression`` reads its factors.  A
report walks the table, and each summand's ``TermReport`` holds its
parts, each computed once: the factor, its order and leading term (kept
unrendered; built and rendered when ``leading`` or ``to_json`` reads
it), each place's pole and action rows (none for the identity) and the
target's value.  Group signs, singleton groups and image labels read
those reports and look nothing up again.  Each of the 14 groups of
several members is built once (``_group_jets``): its common factor's
order and every (strip-free) remainder's jet, which a sum signs and adds.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cache
from typing import NamedTuple

from .characters import (
    TARGETS, CharClass, coset_representatives, lambda_for_case, power_class, render_value,
    value_key,
)
from .germs import (
    FormalScalar, IndeterminateLeading, Leading, OrderValue, Series, StripDep, germ_at,
    known_part_series, order_at, sum_series,
)
from .localrules import (
    ARCH, CHOICES, ISO, KERNEL, LOCAL_CLASSES, PLACE_CLASSES, ActionRule, PoleRule, RuleTable,
    UncoveredKey, default_rules,
)
from .normfactor import Canonical, LSymbol, canonicalize, inverse_norm_factor
from .roots import WeylElement


class ProfileError(ValueError):
    """Invalid place profile."""


class Summand(NamedTuple):
    """One summand of a case's constant term, compiled for a class."""

    w: WeylElement
    name: str
    identity: bool
    factor: Canonical              # the inverse normalizing factor
    target: tuple                  # the target's ``reduced`` coordinates, read by ``value_key``


@cache
def summands(case: str, cls: CharClass) -> tuple[Summand, ...]:
    """The case's four summands compiled for the class, in coset (length) order."""
    return tuple(Summand(w, w.name, w.is_identity(),
                         canonicalize(inverse_norm_factor(lambda_for_case(case), w), cls),
                         TARGETS[case][w].reduced(cls)) for w in coset_representatives(case))


def summand(case: str, w: WeylElement, cls: CharClass) -> Summand:
    """The compiled summand of ``w``, one of the case's coset representatives."""
    return summands(case, cls)[coset_representatives(case).index(w)]


def factor_expression(case: str, w: WeylElement, cls: CharClass) -> Canonical:
    """Inverse normalizing factor of ``w``, compiled for the class: its summand's."""
    return summand(case, w, cls).factor


class Place(NamedTuple):
    """One ramified place: kind, local character class, section choice."""

    kind: str                 # "arch" | "nonarch"
    local_class: CharClass
    choice: str = "spherical"

    def to_json(self) -> dict:
        return {"kind": self.kind, "class": self.local_class, "choice": self.choice}


class _ProfileFields(NamedTuple):
    places: tuple[Place, ...]


def _check_member(cls: CharClass) -> None:
    """Refuse a class that is no ``CharClass`` member: a plain string equals
    one but fails the ``is`` tests that reduce chi powers."""
    if type(cls) is not CharClass:
        raise ProfileError(f"class {cls!r} is not a CharClass member")


class PlaceProfile(_ProfileFields):
    """The finite ramified set S; everything outside S is spherical.

    Exactly one archimedean place is required (it belongs to S).  Places
    outside S never influence orders or signs, so they are not modeled.
    A profile is checked when it is built: each place's class must be a
    ``CharClass`` member that a place of its kind may carry
    (``PLACE_CLASSES``, from ``LOCAL_CLASSES``).
    """

    __slots__ = ()

    def __new__(cls, places: tuple[Place, ...]) -> "PlaceProfile":
        arch = [p for p in places if p.kind == ARCH]
        if len(arch) != 1:
            raise ProfileError("exactly one archimedean place is required")
        for p in places:
            if p.kind not in PLACE_CLASSES:
                raise ProfileError(f"unknown place kind {p.kind!r}")
            _check_member(p.local_class)
            if p.local_class not in PLACE_CLASSES[p.kind]:
                raise ProfileError(f"class '{p.local_class}' cannot occur at place {p.kind!r}")
            if p.choice not in CHOICES:
                raise ProfileError(f"unknown section choice {p.choice!r}")
        return tuple.__new__(cls, (places,))

    @staticmethod
    def spherical(arch_class: CharClass = CharClass.TRIVIAL) -> "PlaceProfile":
        return PlaceProfile((Place(ARCH, arch_class),))

    def to_json(self) -> dict:
        return {"places": [p.to_json() for p in self.places]}


# ---------------------------------------------------------------------------
# coset representatives and grouping
# ---------------------------------------------------------------------------

def _by_target(terms: list[TermReport]) -> list[list[TermReport]]:
    """Partition of the summands by their targets' values at the point (after
    class reduction of chi powers): only summands of one target can cancel.
    Groups keep representative order (by length) within and between them."""
    buckets: dict[tuple, list] = {}
    for t in terms:
        buckets.setdefault(t.value, []).append(t)
    return list(buckets.values())


def term_report(case: str, profile: PlaceProfile, compiled: Summand, s0: Q,
                rules: RuleTable) -> TermReport:
    """One compiled summand at s = s0, each of its parts computed once.

    Each place's pole and action rows are looked up here, once per
    distinct (kind, class) of the profile's places; the identity carries
    no operator, so it has none.  The local order is the sum of the orders
    the profile's choices meet in the pole rows.
    """
    w, name, identity, expr, target = compiled
    rows, actions, local, found = [], [], 0, {}
    for kind, local_class, choice in () if identity else profile.places:
        got = found.get((kind, local_class))
        if got is None:  # the first place of its (kind, class)
            got = found[kind, local_class] = (
                rules.local_pole(case, name, kind, local_class, s0),
                rules.action_rule(case, name, kind, local_class, s0))
        rows.append(got[0])
        actions.append(got[1])
        local += got[0].order_for(choice)
    factor_order, leading = germ_at(expr, s0)
    return TermReport(w, expr, factor_order, leading, local, tuple(rows), tuple(actions),
                      value_key(target, s0))


# ---------------------------------------------------------------------------
# group evaluation
# ---------------------------------------------------------------------------

class TermReport(NamedTuple):
    w: WeylElement
    expr: Canonical
    factor_order: OrderValue
    leading: Leading | None        # the factor's leading term, unbuilt; None if strip-conditional
    local_order: int
    rows: tuple[PoleRule, ...]     # each place's pole row, in place order; () for the identity
    actions: tuple[ActionRule | None, ...]  # each place's action row; () for the identity
    value: tuple                   # the target at the point: its ``value_key``

    @property
    def order(self) -> OrderValue:
        return self.factor_order.shifted(-self.local_order)

    @property
    def target(self) -> str:
        """The target character rendered at the point."""
        return render_value(self.value)

    def to_json(self) -> dict:
        return {
            "w": self.w.name,
            "length": self.w.length,
            "factor": self.expr.render(),
            "factor_order": self.factor_order.to_json(),
            "local_order": self.local_order,
            "order": self.order.to_json(),
            "target": self.target,
        }


class GroupReport(NamedTuple):
    terms: list[TermReport]        # the members' reports, shortest first
    order: OrderValue | None       # None when the group is killed by a kernel
    lead: Leading | FormalScalar | None  # unrendered: see ``leading``
    cancelled: bool                # a pole/leading actually cancelled in the sum
    weights: tuple[int, ...] = ()  # each member's sign, +1 or -1; () for a live singleton
    note: str = ""

    @property
    def leading(self) -> str | None:
        """The leading coefficient rendered, each time it is read.  For a live
        singleton it is its whole factor's (``lead`` is the ``Leading``); for a
        certified sum of several members it is only the remainders' sum's
        (``sum_series``): the common factor's coefficient is not multiplied in."""
        return None if self.lead is None else self.lead.render()

    @property
    def members(self) -> list[str]:
        return [t.w.name for t in self.terms]

    def to_json(self) -> dict:
        out: dict = {"members": self.members, "cancelled": self.cancelled}
        if self.order is None:
            out["kernel_killed"] = True
        else:
            out["order"] = self.order.to_json()
            if self.lead is not None:
                out["leading"] = self.leading
        if self.weights:
            out["weights"] = {t.w.name: str(w) for t, w in zip(self.terms, self.weights)}
        if self.note:
            out["note"] = self.note
        return out


class ImageEntry(NamedTuple):
    place: int | str
    label: str
    structure: str
    note: str = ""

    def to_json(self) -> dict:
        out = {"place": self.place, "label": self.label, "structure": self.structure}
        if self.note:
            out["note"] = self.note
        return out


class ConstantTermReport(NamedTuple):
    case: str
    char_class: CharClass
    s0: Q
    profile: PlaceProfile
    terms: list[TermReport]
    groups: list[GroupReport]
    combined_order: OrderValue      # its deps are the possible strip poles
    pole_order: int | None          # None when only conditional poles exist
    vanishes_at_point: bool
    image: list[ImageEntry]
    notes: list[str]

    def to_json(self) -> dict:
        return {
            "schema": "sp4eis-report/1",
            "case": self.case,
            "char_class": self.char_class,
            "s0": str(self.s0),
            "profile": self.profile.to_json(),
            "terms": [t.to_json() for t in self.terms],
            "groups": [g.to_json() for g in self.groups],
            "combined": {
                "order": self.combined_order.to_json(),
                "pole_order": self.pole_order,
                "conditional_on": [d.to_json() for d in self.combined_order.deps],
                "vanishes_at_point": self.vanishes_at_point,
            },
            "image": [e.to_json() for e in self.image],
            "notes": self.notes,
        }


def _common_factor(maps: list[dict[LSymbol, int]]) -> dict[LSymbol, int]:
    """Largest monomial dividing all exponent maps (shared strip content):
    a common symbol occurs in every map, so only the first map's are tried."""
    common: dict[LSymbol, int] = {}
    for sym in maps[0]:
        exps = [d.get(sym, 0) for d in maps]
        if all(e > 0 for e in exps):
            common[sym] = min(exps)
        elif all(e < 0 for e in exps):
            common[sym] = max(exps)
    return common


@cache
def _group_jets(case: str, members: tuple[WeylElement, ...], cls: CharClass,
                s0: Q) -> tuple[OrderValue, tuple[Series, ...]]:
    """The common factor's order and each member's remainder jet (its exponent
    map less the common map), keyed on Weyl elements, never on expressions
    (whose hashes walk every ``Fraction``)."""
    exprs = [factor_expression(case, w, cls) for w in members]
    maps = [dict(x.factors) for x in exprs]
    common = _common_factor(maps)
    return order_at(exprs[0].part(common), s0), tuple(
        known_part_series(x.part({sym: e - common.get(sym, 0) for sym, e in d.items()}), s0)
        for x, d in zip(exprs, maps))


def _group_weights(case: str, terms: list[TermReport], profile: PlaceProfile, s0: Q):
    """Each member's sign (+1 or -1, in member order), base-kernel detection, notes.

    A sign is the product of the ``+1``/``-1`` actions of its rows (``iso``
    leaves it alone).  The shortest member is the base: its ``base`` action rows supply
    kernel information, and each other member's rows naming the base
    ("-" for the identity) its relative sign.  The rows are the ones each
    report holds (none for the identity).  A missing row is tolerated for
    spherical choices (the normalized spherical vector is always carried
    with weight +1) and for the base summand; any other gap fails loudly.
    """
    base = terms[0]
    relative_to = base.w.name if base.w.length else "-"  # the identity alone has length 0
    weights, notes, kernel, defaulted = [], [], False, False
    for t in terms:
        weight = 1
        is_base = t is base
        for p, row in zip(profile.places, t.actions):
            if row is not None and row.base != ("base" if is_base else relative_to):
                row = None
            if row is None:
                if p.choice == "spherical" or is_base:
                    defaulted = defaulted or not is_base
                    continue
                raise UncoveredKey(
                    f"no action rule for {case}/{t.w.name} at s={s0} covering choice {p.choice!r}")
            value = row.action_for(p.choice)
            if value == KERNEL:
                kernel = True
            elif value != ISO:
                weight *= int(value)
        weights.append(weight)
    if kernel:
        notes.append("summand killed: a chosen constituent lies in the kernel of the operator")
    if defaulted:
        notes.append("no action row at this point; spherical sections carried "
                     "with weight +1 (unramified compatibility)")
    return tuple(weights), kernel, notes


def evaluate_group(case: str, terms: list[TermReport], profile: PlaceProfile,
                   s0: Q, cls: CharClass) -> GroupReport:
    """Order (and leading, when certified) of one same-target group."""
    weights, kernel, notes = _group_weights(case, terms, profile, s0)
    note = "; ".join(notes) if notes else ""
    if kernel:
        return GroupReport(terms, None, None, False, weights, note)

    if len(terms) == 1:
        (t,) = terms
        return GroupReport(terms, t.order, t.leading, False, (), note)

    if len({t.local_order for t in terms}) != 1:
        raise IndeterminateLeading(
            "grouped summands carry different local pole orders; cancellation not analyzed")
    shared_local = terms[0].local_order

    common_order, jets = _group_jets(case, tuple(t.w for t in terms), cls, s0)
    order, lead = sum_series(list(zip(jets, weights)))
    cancelled = common_order.base + order.base > min(t.factor_order.base for t in terms)
    total = (common_order + order).shifted(-shared_local)
    return GroupReport(terms, total, lead if order.is_known else None, cancelled, weights, note)


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def _combine_orders(groups: list[GroupReport]) -> tuple[OrderValue, int | None, bool]:
    """Minimum over group orders, pole order, and vanishing flag.

    Groups whose order is only bounded below (floor-only sums and
    numerator-strip conditionals) cannot decrease the minimum beneath
    their floor, so the combined order is exact whenever some known order
    sits at or below every floor.  Possible poles from denominator strip
    zeros are the combined order's conditional dependencies.
    """
    # never empty: the identity, base of its group, has no action row to kill it
    live = [g.order for g in groups if g.order is not None]
    vanishes = all(o.definitely_positive() for o in live)
    neg_deps: list[StripDep] = []
    for o in live:
        for d in o.deps:
            if d.coeff < 0 and d not in neg_deps:
                neg_deps.append(d)
    known_vals = [o.base for o in live if o.is_known]
    floors = [o.base for o in live]
    if neg_deps:
        combined = OrderValue.conditional(min(floors), tuple(neg_deps))
        pole = -min(known_vals) if known_vals and min(known_vals) < 0 else None
        return combined, pole, vanishes
    if known_vals and min(known_vals) <= min(floors):
        m = min(known_vals)
        return OrderValue.known(m), max(0, -m), vanishes
    return OrderValue.at_least(min(floors)), (0 if min(floors) > 0 else None), vanishes


def _chi_prefix(k: int, cls: CharClass) -> str:
    return "" if power_class(cls, k) is CharClass.TRIVIAL else "chi*"


def langlands_label(term: TermReport, cls: CharClass) -> str:
    """Langlands-quotient label of a summand's target at the point.

    Exponents and chi powers come from ``term.value``, the powers read
    again in the place's class ``cls``.  Coordinates with negative
    exponent are inverted, the positive ones sorted decreasingly as GL1
    data; zero-exponent coordinates form the tempered part (the spherical
    tempered constituent for a quadratic class, the full unitary
    principal series for the trivial one).
    """
    gl1: list[tuple[int, int, int]] = []
    temperate: list[int] = []
    for k, n, m in term.value:
        if n == 0:
            temperate.append(k)
        elif n > 0:
            gl1.append((n, m, k))
        else:
            gl1.append((-n, m, -k))
    gl1.sort(key=lambda t: Q(t[0], t[1]), reverse=True)
    parts = [_chi_prefix(k, cls) + (f"nu^{n}" if m == 1 else f"nu^({n}/{m})") for n, m, k in gl1]
    tail = ("T1" if _chi_prefix(temperate[0], cls) else "nu^0x1") if temperate else "1"
    return "L(" + ",".join(parts) + ";" + tail + ")"


def choice_label(case: str, place: Place, s0: Q, token: str, longest: TermReport, i: int) -> str:
    """Concrete constituent label for a section-choice token at a point.

    ``longest`` is the longest summand's report, ``i`` the place's index.
    """
    if token == "spherical":
        return "spherical"
    if token in ("t1", "t2"):
        n = token[1]
        if s0.denominator == 2 and s0.numerator == -1:
            return f"T{n}"
        prefix = "" if case == "heisenberg" else "chi*"
        return f"L({prefix}nu^1;T{n})"
    if token == "langlands":
        return langlands_label(longest, place.local_class)
    # steinberg / carrier: the constituent carrying the local pole
    row = longest.rows[i]
    if row.order == 0:
        if token == "steinberg" and case == "heisenberg" and s0 == 0:
            return "L(nu^(1/2)St_GL2;1)"
        return token
    if row.carrier == "st_gl2":
        return "L(nu^(3/2)St_GL2;1)"
    if row.carrier == "st_sl2":
        return "L(nu^2;St_SL2)"
    if row.carrier == "tempered_t2":
        return "T2"
    # arch_nonlanglands: non-Langlands constituents at a real place; the
    # Heisenberg case comes with essentially-discrete-series data, the Siegel
    # case is only the maximal proper subrepresentation after reflection
    if case == "heisenberg":
        return f"L(delta*nu^({(1 - s0) / 2}),{-s0 - 1};1)"
    return f"maxsub(nu^({-s0})1_GL2x1)"


def describe_image(case: str, profile: PlaceProfile, s0: Q, terms: list[TermReport],
                   groups: list[GroupReport], vanishes: bool) -> list[ImageEntry]:
    """Label-level image description per ramified place.

    When the identity summand survives at the minimal order the map embeds
    the full induced module (restricted to the chosen constituents when
    the profile ramifies).  When a pole (or the minimum) is carried by
    non-identity summands only, each ramified choice spans its own
    constituent and spherical places span the image of the spherical
    vector: the Langlands quotient of the target, of length two when the
    local operator there had further constituents in play.  Every label
    reads the targets and pole rows the summands' reports already hold.
    """
    if vanishes:
        return []
    # the summands come in length order, so the longest is the last, and
    # so is each group's longest member; the identity opens the first group,
    # which no kernel kills (the rule loader puts kernels on bases only)
    longest = terms[-1]
    floor = lead = None
    for g in groups:
        if g.order is not None and (lead is None or g.order.base < floor or (
                g.order.base == floor and g.terms[-1].w.length > lead.w.length)):
            floor, lead = g.order.base, g.terms[-1]
    id_leads = groups[0].order.base == floor
    if id_leads and all(p.choice == "spherical" for p in profile.places):
        return [ImageEntry("all", "full-induced", "embedding",
                           "identity summand uncancelled: whole module embeds")]

    # a chosen constituent spans itself; when non-identity summands carry the
    # pole (or leading term), a spherical place spans the image of the
    # spherical vector under the longest of them
    entries: list[ImageEntry] = []
    for i, p in enumerate(profile.places):
        if id_leads or p.choice != "spherical":
            entries.append(ImageEntry(
                i, choice_label(case, p, s0, p.choice, longest, i),
                "irreducible-constituent"))
            continue
        label = langlands_label(lead, p.local_class)
        if lead.rows[i].order > 0:
            carrier = choice_label(case, p, s0, "carrier", longest, i)
            entries.append(ImageEntry(i, label, "length-two",
                                      f"semisimplification {label}+{carrier}"))
        else:
            entries.append(ImageEntry(i, label, "spherical-constituent"))
    return entries


def eisenstein_order(case: str, profile: PlaceProfile, s0: Q, cls: CharClass,
                     rules: RuleTable | None = None) -> ConstantTermReport:
    """Full constant-term report at s = s0 for one section profile.

    Raises :class:`ProfileError` when ``cls`` is no ``CharClass`` member,
    has no row in ``LOCAL_CLASSES`` (``sgn``, a local class only) or does
    not list one of the profile's local classes for its place kind.
    """
    _check_member(cls)
    allowed = LOCAL_CLASSES.get(cls)
    if allowed is None:
        raise ProfileError(f"{cls} is a local class of the archimedean place, not a global one")
    for p in profile.places:
        if p.local_class not in allowed[p.kind]:
            raise ProfileError(f"a {cls} global character cannot have local class "
                               f"{p.local_class} ({p.kind} place)")
    rules = rules or default_rules()
    terms = [term_report(case, profile, t, s0, rules) for t in summands(case, cls)]
    groups = [evaluate_group(case, ts, profile, s0, cls) for ts in _by_target(terms)]
    combined, pole, vanishes = _combine_orders(groups)
    image = describe_image(case, profile, s0, terms, groups, vanishes)
    notes = [g.note for g in groups if g.note]
    return ConstantTermReport(case, cls, s0, profile, terms, groups, combined, pole, vanishes,
                              image, notes)
