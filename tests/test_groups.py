"""Every same-target group, found by solving target coincidences exactly.

Two summands share a group at s0 when their targets agree there after
class reduction of the chi powers.  A target is one (chi power, a*s + b)
pair per coordinate, so two targets agree on at most one point unless
they are equal for every s, and that point solves a linear equation: no
grid is scanned.  Membership depends on case, class and point only, never
on the profile or the rule table, so the groups found here are all the
groups any input meets, and so are their remainders over the common
factor.

``data/group_sums.tsv`` pins ``evaluate_group`` on each group for every
weight vector in {+1, -1}^2: the common factor's order, the order of the
remainders' sum, the leading term and the cancellation flag.  ``pins.py``
replays the store and regenerates it when outputs change on purpose.

A contour oracle checks every sum numerically: its Laurent coefficients,
taken by the trapezoidal rule on a small circle around s0 (Trefethen and
Weideman, "The exponentially convergent trapezoidal rule", SIAM Review
2014), vanish below the engine's order and equal its leading term there.
"""

import cmath
import json
from fractions import Fraction as Q
from itertools import product

import pytest

import pins
from sp4eis import germs
from sp4eis.characters import (
    COSET_REPS, TARGETS, CharClass, power_class, reduce_power, value_key,
)
from sp4eis.constant_term import (
    PlaceProfile, _common_factor, _group_jets, eisenstein_order, evaluate_group, summand,
    term_report,
)
from sp4eis.germs import germ_at, known_part_series, order_at, sum_series
from sp4eis.localrules import ARCH, ActionRule, Condition, default_rules
from sp4eis.normfactor import EPS, Canonical, LExpression
from sp4eis.numerics import completed_dirichlet, completed_zeta, table_for_modulus
from test_germs import full_depth_sum, inverse, multiply

GLOBAL_CLASSES = (CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER)
WEIGHTS = tuple(product((1, -1), repeat=2))
PROFILE = PlaceProfile.spherical()


def meeting_point(t1, t2, cls: CharClass) -> Q | None:
    """The one point where two targets agree after class reduction, or None."""
    point = None
    for (k1, f1), (k2, f2) in zip(t1.coords, t2.coords):
        if reduce_power(cls, k1) != reduce_power(cls, k2):
            return None
        if f1.a == f2.a:
            if f1.b != f2.b:
                return None
            continue
        s0 = (f2.b - f1.b) / (f1.a - f2.a)
        if point is not None and s0 != point:
            return None
        point = s0
    assert point is not None, "two summands share their target at every point"
    return point


def groups() -> list[tuple[str, CharClass, Q, tuple]]:
    """(case, class, s0, members) of every group with more than one member.

    Members come in representative order; groups by case, class, point.
    """
    out = []
    for case, reps in COSET_REPS.items():
        for cls in GLOBAL_CLASSES:
            pairs: dict[Q, list] = {}
            for i, w1 in enumerate(reps):
                for w2 in reps[i + 1:]:
                    s0 = meeting_point(TARGETS[case][w1], TARGETS[case][w2], cls)
                    if s0 is not None:
                        pairs.setdefault(s0, []).append({w1, w2})
            for s0 in sorted(pairs):
                # agreement at a point is transitive: merge pairs that share a member
                buckets: list[set] = []
                for pair in pairs[s0]:
                    hit = [b for b in buckets if b & pair]
                    buckets = [b for b in buckets if b not in hit] + [pair.union(*hit)]
                for b in sorted(buckets, key=lambda b: min(reps.index(w) for w in b)):
                    out.append((case, cls, s0, tuple(w for w in reps if w in b)))
    return out


def weight_row(case: str, w, base, weight: int) -> ActionRule:
    """An action row giving one member of the group with base ``base`` a
    fixed weight on every choice; it names the base ("-" for the identity)."""
    relative_to = "base" if w == base else "-" if base.is_identity() else base.name
    return ActionRule(case, w.name, relative_to, ARCH, ("*",),
                      Condition("always"), (("any", "+1" if weight > 0 else "-1"),), "weight")


def remainders(case: str, cls: CharClass, s0: Q, members: tuple):
    terms = [term_report(case, PROFILE, summand(case, w, cls), s0, default_rules())
             for w in members]
    common = LExpression.build(_common_factor([dict(t.expr.factors) for t in terms]))
    return terms, common, [multiply(t.expr, inverse(common)) for t in terms]


def group_sums(case: str, cls: CharClass, s0: Q, members: tuple) -> list[tuple[str, ...]]:
    """One pinned row per weight vector, through ``evaluate_group``."""
    terms, common, rems = remainders(case, cls, s0, members)
    common_order = order_at(Canonical.of(common, cls), s0)
    rows = []
    for weights in WEIGHTS:
        weighted = [t._replace(actions=(weight_row(case, t.w, members[0], wt),))
                    for t, wt in zip(terms, weights)]
        report = evaluate_group(case, weighted, PROFILE, s0, cls)
        order, _ = full_depth_sum(list(zip(rems, weights)), cls, s0)
        assert report.weights == weights
        assert report.to_json()["weights"] == {t.w.name: str(wt) for t, wt in zip(terms, weights)}
        assert report.order == common_order + order
        rows.append((case, cls.value, str(s0), ",".join(w.name for w in members),
                     ",".join(f"{wt:+d}" for wt in weights),
                     json.dumps(common_order.to_json(), sort_keys=True),
                     json.dumps(order.to_json(), sort_keys=True),
                     report.leading or "-", str(report.cancelled).lower()))
    return rows


def depth_used(rems: list, weights: tuple, cls: CharClass, s0: Q) -> int | None:
    """The fewest coefficients at which the weighted sum shows a leading term:
    its exponent less the lowest order of the jets, plus one."""
    jets = [known_part_series(Canonical.of(e, cls), s0) for e in rems]
    order, lead = sum_series(list(zip(jets, weights)))
    return None if lead is None else order.base - min(j.ord for j in jets) + 1


def test_groups_are_the_fourteen_pairs():
    found = groups()
    assert len(found) == 14
    assert all(len(members) == 2 for *_, members in found)
    assert {s0 for case, _, s0, _ in found if case == "heisenberg"} == {Q(-1), Q(0), Q(1)}
    assert {s0 for case, _, s0, _ in found if case == "siegel"} == {Q(-1, 2), Q(0), Q(1, 2)}
    assert sum(case == "heisenberg" for case, *_ in found) == 6
    assert sum(case == "siegel" for case, *_ in found) == 8
    assert not any(cls is CharClass.OTHER for _, cls, _, _ in found)
    # the engine's grouping key agrees: members share it, no other summand does
    for case, cls, s0, members in found:
        keys = {w: value_key(TARGETS[case][w].reduced(cls), s0) for w in COSET_REPS[case]}
        inside = {keys[w] for w in members}
        assert len(inside) == 1
        assert all(keys[w] not in inside for w in COSET_REPS[case] if w not in members)


def test_remainders_are_strip_free_and_every_sum_has_a_leading_term():
    depths = []
    for case, cls, s0, members in groups():
        _, _, rems = remainders(case, cls, s0, members)
        for rem in rems:
            assert all(e in (1, -1) for _, e in rem.factors), rem.render()
            assert order_at(Canonical.of(rem, cls), s0).is_known, rem.render()
        for weights in WEIGHTS:
            depth = depth_used(rems, weights, cls, s0)
            assert depth is not None, (case, cls, s0, weights)
            depths.append(depth)
    assert max(depths) == 2


STORE = pins.Store(pins.DATA / "group_sums.tsv",
                   "case\tclass\ts0\tmembers\tweights\tcommon-factor order\tsum order"
                   "\tleading\tcancelled", 5,
                   lambda: [row for group in groups() for row in group_sums(*group)])


def test_group_sums_replay_pins():
    assert len(pins.read(STORE.path)) == 56
    pins.replay(STORE)


def test_group_jet_cache_holds_the_fourteen_groups_unaltered():
    _group_jets.cache_clear()
    for case, cls in product(COSET_REPS, GLOBAL_CLASSES):
        for k in range(-48, 49):
            eisenstein_order(case, PROFILE, Q(k, 8), cls)
    assert _group_jets.cache_info().currsize == 14
    # the keys are the groups: looking each one up adds no entry
    before = _group_jets.cache_info()
    for case, cls, s0, members in groups():
        _group_jets(case, members, cls, s0)
    after = _group_jets.cache_info()
    assert (after.currsize, after.hits - before.hits, after.misses) == (14, 14, before.misses)
    # no replay alters a cached jet
    for _ in range(2):
        pins.replay(STORE)
    for case, cls, s0, members in groups():
        common_order, jets = _group_jets(case, members, cls, s0)
        _, common, rems = remainders(case, cls, s0, members)
        fresh = [known_part_series(Canonical.of(r, cls), s0) for r in rems]
        assert common_order == order_at(Canonical.of(common, cls), s0)
        assert [(j.ord, [c.render() for c in j.coeffs]) for j in jets] == \
            [(f.ord, [c.render() for c in f.coeffs]) for f in fresh]
    assert _group_jets.cache_info().currsize == 14


def test_several_member_leading_is_the_remainders_sum():
    """A singleton's ``leading`` is its whole factor's coefficient; a group of
    several members reads the coefficient of its remainders' sum only.  At
    heisenberg 0, trivial class, the group [s, c2s] has the common factor
    1/L(s+2,1), whose coefficient is not multiplied in: a change that does
    multiply it in moves this test, the group-sum pins and report digests."""
    case, cls, s0 = "heisenberg", CharClass.TRIVIAL, Q(0)
    (g,) = [g for g in eisenstein_order(case, PROFILE, s0, cls).groups
            if g.members == ["s", "c2s"]]
    _, common, rems = remainders(case, cls, s0, tuple(t.w for t in g.terms))
    _, lead = sum_series([(known_part_series(Canonical.of(r, cls), s0), w)
                          for r, w in zip(rems, g.weights)])
    assert g.leading == lead.render() == "2*Lam_c"
    whole = germ_at(Canonical.of(common, cls), s0)[1].scalar() * lead
    assert whole.render() == "2*Lam_c*Lam(2)^-1" != g.leading


# ---------------------------------------------------------------------------
# the contour oracle
# ---------------------------------------------------------------------------

NODES = 64
RADIUS = 1 / 16
# z_j = r*omega_j with omega_j = exp(2 pi i (j + 1/2) / N): no node on the real axis
CIRCLE = [RADIUS * cmath.exp(2j * cmath.pi * (j + 0.5) / NODES) for j in range(NODES)]


def laurent(values: list[complex], k: int) -> complex:
    """c_k = (1/N) sum_j f(s0 + z_j) z_j^-k of f given at s0 + ``CIRCLE``."""
    return sum(v * z ** -k for v, z in zip(values, CIRCLE)) / NODES


def completed_l(tbl, u: complex) -> complex:
    """Completed zeta (``tbl`` None) or completed L of a real primitive
    character at u; the latter has root number 1, so it is read at 1 - u
    left of 1/2, where ``completed_dirichlet`` meets gamma poles."""
    if tbl is None:
        return completed_zeta(u)
    return completed_dirichlet(tbl, u if u.real >= 0.5 else 1 - u)


def coefficient(tbl, u0: float, k: int) -> complex:
    """c_k of ``completed_l(tbl, .)`` at u0."""
    return laurent([completed_l(tbl, u0 + z) for z in CIRCLE], k)


def expression_value(expr, cls: CharClass, tbl, s: complex) -> complex:
    """A canonical expression at s, with every epsilon factor 1."""
    out = 1 + 0j
    for sym, e in expr.factors:
        if sym.kind != EPS:
            u = float(sym.arg.a) * s + float(sym.arg.b)
            trivial = power_class(cls, sym.power) is CharClass.TRIVIAL
            out *= completed_l(None if trivial else tbl, u) ** e
    return out


# each atom kind's number, from its data (a class value and an argument)
# and the Dirichlet table: values are completed L-values, ``^(1)`` atoms
# the coefficient c_1 at their argument, and epsilon is 1 for a real
# primitive character
ATOM_VALUES = {
    "zconst": lambda tbl: coefficient(None, 1.0, 0),
    "zval": lambda tbl, u: completed_l(None, float(Q(u))),
    "zder": lambda tbl, u: coefficient(None, float(Q(u)), 1),
    "lval": lambda tbl, c, u: completed_l(tbl, float(Q(u))),
    "lder": lambda tbl, c, u: coefficient(tbl, float(Q(u)), 1),
    "epsv": lambda tbl, c, u: 1.0,
    "epsder": lambda tbl, c, u: 0.0,
}


def scalar_value(x, tbl) -> complex:
    """A ``FormalScalar``'s number; an atom kind without one raises ``KeyError``."""
    total = 0j
    for mono, c in x.terms.items():
        term = complex(c)
        for (kind, data), e in mono:
            term *= ATOM_VALUES[kind](tbl, *data) ** e
        total += term
    return total


# class, Dirichlet table and number of sums: both parities among the conductors
CHARACTERS = {"trivial": (CharClass.TRIVIAL, None, 32)}
CHARACTERS.update({f"mod{q}": (CharClass.QUADRATIC, table_for_modulus(q), 24) for q in (3, 4, 5, 8)})


def test_every_atom_kind_has_a_numeric_meaning():
    assert ATOM_VALUES.keys() == germs._ATOM_FORMATS.keys()


@pytest.mark.parametrize("character", CHARACTERS)
def test_contour_oracle_agrees_with_every_group_sum(character):
    cls, tbl, count = CHARACTERS[character]
    checked = 0
    for case, gcls, s0, members in groups():
        if gcls is not cls:
            continue
        _, _, rems = remainders(case, cls, s0, members)
        values = [[expression_value(r, cls, tbl, float(s0) + z) for z in CIRCLE] for r in rems]
        for weights in WEIGHTS:
            sum_order, sum_lead = full_depth_sum(list(zip(rems, weights)), cls, s0)
            order = sum_order.base
            g = [sum(w * v for w, v in zip(weights, at)) for at in zip(*values)]
            where = (case, s0, [w.name for w in members], weights)
            for k in (order - 2, order - 1):
                assert abs(laurent(g, k)) < 1e-8, (where, k, laurent(g, k))
            lead = scalar_value(sum_lead, tbl)
            assert abs(laurent(g, order) - lead) < 1e-6 * max(1, abs(lead)), \
                (where, laurent(g, order), sum_lead.render(), lead)
            checked += 1
    assert checked == count
