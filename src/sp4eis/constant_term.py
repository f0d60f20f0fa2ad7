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
and the target.  Group weights, singleton groups and image labels read
those reports and look nothing up again; a group of several members
walks only their common factor, since a member's order is the common
factor's plus its (strip-free) remainder's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cache

from .characters import (
    TARGETS, CharClass, TorusCharacter, coset_representatives, lambda_for_case, power_class,
    render_value,
)
from .germs import (
    FormalScalar, IndeterminateLeading, OrderValue, StripDep, germ_at, order_at, sum_germs,
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
    lam, _ = lambda_for_case(case)
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

    Each place's pole and action rows are looked up here, once (the
    identity carries no operator, so it has no action rows); the local
    order is the sum of the orders the profile's choices meet in the pole
    rows.
    """
    expr = factor_expression(case, w, cls)
    target = TARGETS[case][w]
    keys = [(case, w.name, p.kind, p.local_class, s0) for p in profile.places]
    rows = tuple(rules.local_pole(*key) for key in keys)
    actions = () if w.is_identity() else tuple(rules.action_rule(*key) for key in keys)
    local = sum(row.order_for(p.choice) for row, p in zip(rows, profile.places))
    factor_order, leading = germ_at(expr, cls, s0)
    return TermReport(w, expr, factor_order, leading, local, rows, actions,
                      target.value_key(s0, cls), target)


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
    rows: tuple[PoleRule, ...]     # each place's pole row, in profile-place order
    actions: tuple[ActionRule | None, ...]  # each place's action row; () for the identity
    value: tuple                   # the target at the point: its ``value_key``
    character: TorusCharacter      # the target: w applied to the inducing character

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
    members: list[str]
    order: OrderValue | None       # None when the group is killed by a kernel
    leading: str | None
    cancelled: bool                # a pole/leading actually cancelled in the sum
    kernel_killed: bool = False
    weights: dict[str, str] = field(default_factory=dict)
    note: str = ""

    def to_json(self) -> dict:
        out: dict = {"members": self.members, "cancelled": self.cancelled}
        if self.kernel_killed:
            out["kernel_killed"] = True
        else:
            out["order"] = self.order.to_json() if self.order is not None else None
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
    combined_order: OrderValue
    pole_order: int | None          # None when only conditional poles exist
    conditional_on: list[StripDep]
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
                "conditional_on": [d.to_json() for d in self.conditional_on],
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


def _group_weights(case: str, terms: list[TermReport], profile: PlaceProfile, s0: Q):
    """Per-member weights (+-1), base-kernel detection, and notes.

    The shortest member is the base; its action rows supply kernel
    information, the other members' rows supply the relative signs.  The
    rows are the ones each report holds (none for the identity).  A
    missing row is tolerated for spherical choices (the normalized
    spherical vector is always carried with weight +1) and for the base
    summand; any other gap fails loudly.
    """
    base = terms[0]
    weights: dict[str, int] = {}
    notes: list[str] = []
    kernel = False
    defaulted = False
    for t in terms:
        weight = 1
        is_base = t is base
        for p, row in zip(profile.places, t.actions):
            if row is not None and (row.base == "base") != is_base:
                row = None
            if row is None:
                if p.choice == "spherical" or is_base:
                    if len(terms) > 1 and not is_base:
                        defaulted = True
                    continue
                raise UncoveredKey(
                    f"no action rule for {case}/{t.w.name} at s={s0} covering choice {p.choice!r}")
            value = row.action_for(p.choice)
            if value == KERNEL:
                if is_base or len(terms) == 1:
                    kernel = True
                else:  # pragma: no cover - tables only put kernels on bases
                    raise UncoveredKey("kernel action on a non-base element")
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
    members = [t.w.name for t in terms]

    weights, kernel, notes = _group_weights(case, terms, profile, s0)
    if kernel:
        return GroupReport(members, None, None, cancelled=False, kernel_killed=True,
                           weights={k: str(v) for k, v in weights.items()},
                           note="; ".join(notes))

    if len(terms) == 1:
        (t,) = terms
        leading = t.leading.render() if t.leading is not None else None
        return GroupReport(members, t.order, leading, cancelled=False,
                           note="; ".join(notes))

    if len({t.local_order for t in terms}) != 1:
        raise IndeterminateLeading(
            "grouped summands carry different local pole orders; cancellation not analyzed")
    shared_local = terms[0].local_order

    common = _common_factor([t.expr for t in terms])
    common_order = order_at(common, cls, s0)
    inv = common.inverse()
    out = sum_germs([(t.expr * inv, weights[t.w.name]) for t in terms], cls, s0)
    cancelled = common_order.base + out.order.base > min(t.factor_order.base for t in terms)
    total = (common_order + out.order).shifted(-shared_local)
    leading = out.leading.render() if out.leading is not None and out.order.is_known else None
    return GroupReport(members, total, leading, cancelled=cancelled,
                       weights={k: str(v) for k, v in weights.items()},
                       note="; ".join(notes))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

def _combine_orders(groups: list[GroupReport]) -> tuple[OrderValue, int | None, list[StripDep], bool]:
    """Minimum over group orders, conditional deps, and vanishing flag.

    Groups whose order is only bounded below (floor-only sums and
    numerator-strip conditionals) cannot decrease the minimum beneath
    their floor, so the combined order is exact whenever some known order
    sits at or below every floor.  Possible poles from denominator strip
    zeros are reported as conditional dependencies.
    """
    live = [g.order for g in groups if not g.kernel_killed and g.order is not None]
    if not live:
        return OrderValue.known(0), 0, [], True
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
        return combined, pole, neg_deps, vanishes
    if known_vals and min(known_vals) <= min(floors):
        m = min(known_vals)
        return OrderValue.known(m), max(0, -m), [], vanishes
    return OrderValue.at_least(min(floors)), (0 if min(floors) > 0 else None), [], vanishes


def _render_exponent(e: Q) -> str:
    return f"nu^{e}" if e.denominator == 1 else f"nu^({e})"


def _chi_prefix(k: int, cls: CharClass) -> str:
    return "" if power_class(cls, k) is CharClass.TRIVIAL else "chi*"


def langlands_label(target: TorusCharacter, s0: Q, cls: CharClass) -> str:
    """Langlands-quotient label of the target character at the point.

    Coordinates with negative exponent are inverted, the positive ones are
    sorted decreasingly as GL1 data; zero-exponent coordinates form the
    tempered part (the spherical tempered constituent for a quadratic
    class, the full unitary principal series for the trivial one).
    """
    gl1: list[tuple[Q, int]] = []
    temperate: list[int] = []
    for k, form in target.coords:
        v = form.at(s0)
        if v == 0:
            temperate.append(k)
        elif v > 0:
            gl1.append((v, k))
        else:
            gl1.append((-v, -k))
    gl1.sort(key=lambda t: (-t[0],))
    parts = [f"{_chi_prefix(k, cls)}{_render_exponent(v)}" for v, k in gl1]
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
        return langlands_label(longest.character, s0, place.local_class)
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
                   groups: list[GroupReport], group_terms: list[list[TermReport]],
                   vanishes: bool) -> list[ImageEntry]:
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
    longest = max((t for ts in group_terms for t in ts), key=lambda t: t.w.length)
    live = [(g, ts) for g, ts in zip(groups, group_terms)
            if not g.kernel_killed and g.order is not None]
    floor = min(g.order.base for g, _ in live)
    leaders = [(g, ts) for g, ts in live if g.order.base == floor]
    id_leads = any(ts[0].w.is_identity() for _, ts in leaders)

    entries: list[ImageEntry] = []
    if id_leads:
        ramified = [p for p in profile.places if p.choice != "spherical"]
        if not ramified:
            return [ImageEntry("all", "full-induced", "embedding",
                               "identity summand uncancelled: whole module embeds")]
        for i, p in enumerate(profile.places):
            entries.append(ImageEntry(
                i, choice_label(case, p, s0, p.choice, longest, i),
                "irreducible-constituent"))
        return entries

    # pole (or leading term) carried by non-identity summands
    lead = max((t for _, ts in leaders for t in ts), key=lambda t: t.w.length)
    for i, p in enumerate(profile.places):
        if p.choice == "spherical":
            label = langlands_label(lead.character, s0, p.local_class)
            if lead.rows[i].order > 0:
                carrier = choice_label(case, p, s0, "carrier", longest, i)
                entries.append(ImageEntry(i, label, "length-two",
                                          f"semisimplification {label}+{carrier}"))
            else:
                entries.append(ImageEntry(i, label, "spherical-constituent"))
        else:
            entries.append(ImageEntry(
                i, choice_label(case, p, s0, p.choice, longest, i),
                "irreducible-constituent"))
    return entries


def eisenstein_order(case: str, profile: PlaceProfile, s0: Q, cls: CharClass,
                     rules: RuleTable | None = None) -> ConstantTermReport:
    """Full constant-term report at s = s0 for one section profile."""
    rules = rules or default_rules()
    terms = [term_report(case, profile, w, s0, cls, rules) for w in coset_representatives(case)]
    group_terms = _by_target(terms)
    groups = [evaluate_group(case, ts, profile, s0, cls) for ts in group_terms]
    combined, pole, deps, vanishes = _combine_orders(groups)
    image = describe_image(case, profile, s0, groups, group_terms, vanishes)
    notes = [g.note for g in groups if g.note]
    return ConstantTermReport(
        case=case, char_class=cls, s0=s0, profile=profile,
        terms=terms, groups=groups,
        combined_order=combined, pole_order=pole, conditional_on=deps,
        vanishes_at_point=vanishes, image=image, notes=notes,
    )
