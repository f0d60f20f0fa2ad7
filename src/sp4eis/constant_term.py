"""Constant-term assembly: per-element germs, cancellations, pole reports.

The constant term of the degenerate Eisenstein series is a sum over the
four Weyl representatives of (inverse normalizing factor) x (local
operators applied to the section).  This module combines, for a chosen
section profile, the exact order data of the global factors with the
local pole/action tables, detects cancellations between summands whose
target characters coincide at the point, and reports the resulting pole
order, vanishing behavior, and image labels.

Each summand's ``TermReport`` holds its parts, each computed once: the
factor, its order and leading term, each place's pole and action rows
(none for the identity) and the target.  Group weights, singleton groups
and image labels read those reports and look nothing up again.  A member
of a group is its common factor times a (strip-free) remainder, so each
of the 14 groups of several members is built once (``_group_jets``): the
common factor's order and every remainder's jet, which a sum only weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache

from .characters import (
    TARGETS, CharClass, coset_representatives, lambda_for_case, power_class, render_value,
)
from .germs import (
    FormalScalar, IndeterminateLeading, OrderValue, Series, StripDep, germ_at,
    known_part_series, order_at, sum_series,
)
from .localrules import (
    ARCH, CHOICES, ISO, KERNEL, NONARCH, ActionRule, PoleRule, RuleTable, UncoveredKey,
    default_rules,
)
from .normfactor import LExpression, canonicalize, inverse_norm_factor
from .roots import WeylElement


class ProfileError(ValueError):
    """Invalid place profile."""


@cache
def factor_expression(case: str, w: WeylElement, cls: CharClass) -> LExpression:
    """Canonicalized inverse normalizing factor, memoized per (case, w, class)."""
    lam = lambda_for_case(case)
    return canonicalize(inverse_norm_factor(lam, w), cls)


@dataclass(frozen=True)
class Place:
    """One ramified place: kind, local character class, section choice."""

    kind: str                 # "arch" | "nonarch"
    local_class: CharClass
    choice: str = "spherical"

    def to_json(self) -> dict:
        return {"kind": self.kind, "class": self.local_class.value, "choice": self.choice}


@dataclass(frozen=True)
class PlaceProfile:
    """The finite ramified set S; everything outside S is spherical.

    Exactly one archimedean place is required (it belongs to S).  Places
    outside S never influence orders or signs, so they are not modeled.
    """

    places: tuple[Place, ...]

    def __post_init__(self):
        arch = [p for p in self.places if p.kind == ARCH]
        if len(arch) != 1:
            raise ProfileError("exactly one archimedean place is required")
        for p in self.places:
            if p.kind not in (ARCH, NONARCH):
                raise ProfileError(f"unknown place kind {p.kind!r}")
            if p.kind == ARCH and p.local_class is CharClass.QUADRATIC:
                raise ProfileError("use the sgn class for the archimedean quadratic character")
            if p.kind == NONARCH and p.local_class is CharClass.SGN:
                raise ProfileError("sgn class only occurs at the archimedean place")
            if p.choice not in CHOICES:
                raise ProfileError(f"unknown section choice {p.choice!r}")

    @staticmethod
    def spherical(arch_class: CharClass = CharClass.TRIVIAL) -> "PlaceProfile":
        return PlaceProfile((Place(ARCH, arch_class),))

    def to_json(self) -> dict:
        return {"places": [p.to_json() for p in self.places]}


# ---------------------------------------------------------------------------
# coset representatives and grouping
# ---------------------------------------------------------------------------

def _by_target(terms: list[TermReport]) -> list[list[TermReport]]:
    """Partition of the summands by the value of their targets at the point.

    Two summands can only cancel when the Weyl images of the inducing
    character agree at the point (after class reduction of chi powers).
    Groups keep representative order (by length) within and between them.
    """
    buckets: dict[tuple, list] = {}
    for t in terms:
        buckets.setdefault(t.value, []).append(t)
    return list(buckets.values())


def term_report(case: str, profile: PlaceProfile, w: WeylElement, s0: Q,
                cls: CharClass, rules: RuleTable) -> TermReport:
    """One constant-term summand at s = s0, each of its parts computed once.

    Each place's pole and action rows are looked up here, once; the
    identity carries no operator, so it has none.  The local order is the
    sum of the orders the profile's choices meet in the pole rows.
    """
    expr = factor_expression(case, w, cls)
    target = TARGETS[case][w]
    places = () if w.is_identity() else profile.places
    keys = [(case, w.name, p.kind, p.local_class, s0) for p in places]
    rows = tuple(rules.local_pole(*key) for key in keys)
    actions = tuple(rules.action_rule(*key) for key in keys)
    local = sum(row.order_for(p.choice) for row, p in zip(rows, places))
    factor_order, leading = germ_at(expr, cls, s0)
    return TermReport(w, expr, factor_order, leading, local, rows, actions,
                      target.value_key(s0, cls))


# ---------------------------------------------------------------------------
# group evaluation
# ---------------------------------------------------------------------------

@dataclass
class TermReport:
    w: WeylElement
    expr: LExpression
    factor_order: OrderValue
    leading: FormalScalar | None   # the factor's leading coefficient; None if strip-conditional
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


@dataclass
class GroupReport:
    terms: list[TermReport]        # the members' reports, shortest first
    order: OrderValue | None       # None when the group is killed by a kernel
    leading: str | None
    cancelled: bool                # a pole/leading actually cancelled in the sum
    weights: dict[str, str] = field(default_factory=dict)
    note: str = ""

    @property
    def members(self) -> list[str]:
        return [t.w.name for t in self.terms]

    def to_json(self) -> dict:
        out: dict = {"members": self.members, "cancelled": self.cancelled}
        if self.order is None:
            out["kernel_killed"] = True
        else:
            out["order"] = self.order.to_json()
            if self.leading is not None:
                out["leading"] = self.leading
        if self.weights:
            out["weights"] = self.weights
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ImageEntry:
    place: int | str
    label: str
    structure: str
    note: str = ""

    def to_json(self) -> dict:
        out = {"place": self.place, "label": self.label, "structure": self.structure}
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ConstantTermReport:
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
            "char_class": self.char_class.value,
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


def _common_factor(exprs: list[LExpression]) -> LExpression:
    """Largest monomial dividing all expressions (shared strip content)."""
    dicts = [e.as_dict() for e in exprs]
    syms = set()
    for d in dicts:
        syms.update(d)
    common: dict = {}
    for sym in syms:
        exps = [d.get(sym, 0) for d in dicts]
        if all(e > 0 for e in exps):
            common[sym] = min(exps)
        elif all(e < 0 for e in exps):
            common[sym] = max(exps)
    return LExpression.build(Q(1), common)


@cache
def _group_jets(case: str, members: tuple[WeylElement, ...], cls: CharClass,
                s0: Q) -> tuple[OrderValue, tuple[Series, ...]]:
    """The common factor's order and each member's remainder jet, keyed on Weyl
    elements, never on expressions (whose hashes walk every ``Fraction``)."""
    exprs = [factor_expression(case, w, cls) for w in members]
    common = _common_factor(exprs)
    inv = common.inverse()
    return order_at(common, cls, s0), tuple(
        known_part_series(e * inv, cls, s0) for e in exprs)


def _group_weights(case: str, terms: list[TermReport], profile: PlaceProfile, s0: Q):
    """Per-member weights (+-1), base-kernel detection, and notes.

    The shortest member is the base: its ``base`` action rows supply
    kernel information, and each other member's rows naming the base
    ("-" for the identity) its relative sign.  The rows are the ones each
    report holds (none for the identity).  A missing row is tolerated for
    spherical choices (the normalized spherical vector is always carried
    with weight +1) and for the base summand; any other gap fails loudly.
    """
    base = terms[0]
    relative_to = "-" if base.w.is_identity() else base.w.name
    weights: dict[str, int] = {}
    notes: list[str] = []
    kernel = False
    defaulted = False
    for t in terms:
        weight = 1
        is_base = t is base
        for p, row in zip(profile.places, t.actions):
            if row is not None and row.base != ("base" if is_base else relative_to):
                row = None
            if row is None:
                if p.choice == "spherical" or is_base:
                    if not is_base:
                        defaulted = True
                    continue
                raise UncoveredKey(
                    f"no action rule for {case}/{t.w.name} at s={s0} covering choice {p.choice!r}")
            value = row.action_for(p.choice)
            if value == KERNEL:
                kernel = True
            elif value != ISO:
                weight *= int(value)
        weights[t.w.name] = weight
    if kernel:
        notes.append("summand killed: a chosen constituent lies in the kernel of the operator")
    if defaulted:
        notes.append("no action row at this point; spherical sections carried "
                     "with weight +1 (unramified compatibility)")
    return weights, kernel, notes


def evaluate_group(case: str, terms: list[TermReport], profile: PlaceProfile,
                   s0: Q, cls: CharClass) -> GroupReport:
    """Order (and leading, when certified) of one same-target group."""
    weights, kernel, notes = _group_weights(case, terms, profile, s0)
    if kernel:
        return GroupReport(terms, None, None, cancelled=False,
                           weights={k: str(v) for k, v in weights.items()},
                           note="; ".join(notes))

    if len(terms) == 1:
        (t,) = terms
        leading = t.leading.render() if t.leading is not None else None
        return GroupReport(terms, t.order, leading, cancelled=False,
                           note="; ".join(notes))

    if len({t.local_order for t in terms}) != 1:
        raise IndeterminateLeading(
            "grouped summands carry different local pole orders; cancellation not analyzed")
    shared_local = terms[0].local_order

    common_order, jets = _group_jets(case, tuple(t.w for t in terms), cls, s0)
    order, lead = sum_series(list(zip(jets, [weights[t.w.name] for t in terms])))
    cancelled = common_order.base + order.base > min(t.factor_order.base for t in terms)
    total = (common_order + order).shifted(-shared_local)
    leading = lead.render() if lead is not None and order.is_known else None
    return GroupReport(terms, total, leading, cancelled=cancelled,
                       weights={k: str(v) for k, v in weights.items()},
                       note="; ".join(notes))


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


def _render_exponent(n: int, m: int) -> str:
    return f"nu^{n}" if m == 1 else f"nu^({n}/{m})"


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
    parts = [f"{_chi_prefix(k, cls)}{_render_exponent(n, m)}" for n, m, k in gl1]
    if temperate:
        k = temperate[0]
        if power_class(cls, k) is CharClass.TRIVIAL:
            tail = "nu^0x1"
        else:
            tail = "T1"
        return "L(" + ",".join(parts) + ";" + tail + ")"
    return "L(" + ",".join(parts) + ";1)"


def choice_label(case: str, place: Place, s0: Q, token: str, longest: TermReport, i: int) -> str:
    """Concrete constituent label for a section-choice token at a point.

    ``longest`` is the longest summand's report, ``i`` the place's index.
    """
    if token == "spherical":
        return "spherical"
    if token in ("t1", "t2"):
        n = token[1]
        if s0 == Q(-1, 2):
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


def describe_image(case: str, profile: PlaceProfile, s0: Q,
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
    longest = max((t for g in groups for t in g.terms), key=lambda t: t.w.length)
    live = [g for g in groups if g.order is not None]
    floor = min(g.order.base for g in live)
    leaders = [g for g in live if g.order.base == floor]
    id_leads = any(g.terms[0].w.is_identity() for g in leaders)
    if id_leads and all(p.choice == "spherical" for p in profile.places):
        return [ImageEntry("all", "full-induced", "embedding",
                           "identity summand uncancelled: whole module embeds")]

    # a chosen constituent spans itself; when non-identity summands carry the
    # pole (or leading term), a spherical place spans the image of the
    # spherical vector under the longest of them
    lead = max((t for g in leaders for t in g.terms), key=lambda t: t.w.length)
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

    Raises :class:`ProfileError` when no global character of class ``cls``
    has the profile's local classes: a trivial character is trivial at
    every place, and a quadratic one is nowhere of class ``other``.
    """
    for p in profile.places:
        if (cls is CharClass.TRIVIAL and p.local_class is not CharClass.TRIVIAL
                or cls is CharClass.QUADRATIC and p.local_class is CharClass.OTHER):
            raise ProfileError(f"a {cls.value} global character cannot have local class "
                               f"{p.local_class.value} ({p.kind} place)")
    rules = rules or default_rules()
    terms = [term_report(case, profile, w, s0, cls, rules) for w in coset_representatives(case)]
    groups = [evaluate_group(case, ts, profile, s0, cls) for ts in _by_target(terms)]
    combined, pole, vanishes = _combine_orders(groups)
    image = describe_image(case, profile, s0, groups, vanishes)
    notes = [g.note for g in groups if g.note]
    return ConstantTermReport(
        case=case, char_class=cls, s0=s0, profile=profile,
        terms=terms, groups=groups,
        combined_order=combined, pole_order=pole,
        vanishes_at_point=vanishes, image=image, notes=notes,
    )
