"""Constant-term assembly: grouping, term orders, combined reports."""

import json
import sys
from collections import Counter
from fractions import Fraction as Q
from pathlib import Path

import pytest

import pins
from sp4eis import constant_term, germs
from sp4eis.characters import CharClass
from sp4eis.constant_term import (
    Place, PlaceProfile, ProfileError, coset_representatives, eisenstein_order, summands,
    term_report,
)
from sp4eis.localrules import RuleTable, default_rules
from sp4eis.roots import SP4, WeylElement

SYS = SP4
TR, QU, OT, SGN = (CharClass.TRIVIAL, CharClass.QUADRATIC,
                   CharClass.OTHER, CharClass.SGN)
SPH = PlaceProfile.spherical()
RULES = default_rules()
GRIDS_REF = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "grids.json"


def names(groups):
    return {frozenset(g.members) for g in groups}


def groups_at(case, s0, cls):
    """Same-target groups of the spherical report at the point."""
    return eisenstein_order(case, SPH, s0, cls).groups


def gset(*parts):
    return {frozenset(p) for p in parts}


def row(case, name, cls):
    """The named element's compiled summand: its row of the table."""
    (t,) = [t for t in summands(case, cls) if t.name == name]
    return t


def arch(cls=TR, choice="spherical"):
    return Place("arch", cls, choice)


def nonarch(cls=TR, choice="spherical"):
    return Place("nonarch", cls, choice)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_validation():
    with pytest.raises(ProfileError):
        PlaceProfile(())  # no archimedean place
    with pytest.raises(ProfileError):
        PlaceProfile((arch(), arch()))
    with pytest.raises(ProfileError):
        PlaceProfile((arch(QU),))  # archimedean quadratic is called sgn
    with pytest.raises(ProfileError):
        PlaceProfile((arch(), nonarch(SGN)))
    with pytest.raises(ProfileError):
        PlaceProfile((arch(TR, "frobenius"),))


@pytest.mark.parametrize("cls, places", [
    (TR, (arch(SGN),)),
    (TR, (arch(), nonarch(QU, "t2"))),
    (TR, (arch(OT),)),
    (QU, (arch(OT),)),
    (QU, (arch(SGN), nonarch(QU), nonarch(OT))),
])
def test_local_classes_must_fit_the_global_class(cls, places):
    # a trivial character is trivial at every place, a quadratic one is
    # nowhere of class other
    with pytest.raises(ProfileError):
        eisenstein_order("heisenberg", PlaceProfile(places), Q(2), cls)


@pytest.mark.parametrize("case, s0", [("siegel", Q(1, 2)), ("heisenberg", Q(0))])
def test_sgn_is_not_a_global_class(case, s0):
    # sgn is the sign character of the archimedean place only
    with pytest.raises(ProfileError, match="^sgn is a local class"):
        eisenstein_order(case, PlaceProfile.spherical(SGN), s0, SGN)


def test_local_classes_a_global_class_can_have_are_accepted():
    for cls, places in [(QU, (arch(SGN), nonarch(QU, "t2"), nonarch(TR))),
                        (QU, (arch(), nonarch(QU))),
                        (OT, (arch(SGN), nonarch(QU), nonarch(OT), nonarch(TR)))]:
        profile = PlaceProfile(places)
        assert eisenstein_order("heisenberg", profile, Q(2), cls).profile == profile


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def test_groups_heisenberg_origin():
    assert names(groups_at("heisenberg", Q(0), TR)) == \
        gset(("id", "sc2s"), ("c2s", "s"))
    assert names(groups_at("heisenberg", Q(0), QU)) == \
        gset(("id", "sc2s"), ("c2s", "s"))
    assert names(groups_at("heisenberg", Q(0), OT)) == \
        gset(("c2s",), ("id",), ("s",), ("sc2s",))


def test_groups_heisenberg_one():
    assert names(groups_at("heisenberg", Q(1), TR)) == \
        gset(("c2s", "sc2s"), ("id",), ("s",))


def test_groups_generic_point_all_singletons():
    assert names(groups_at("heisenberg", Q(7, 3), TR)) == \
        gset(("c2s",), ("id",), ("s",), ("sc2s",))
    assert names(groups_at("siegel", Q(7, 3), TR)) == \
        gset(("c2",), ("c2sc2",), ("id",), ("sc2",))


def test_groups_siegel():
    assert names(groups_at("siegel", Q(1, 2), TR)) == \
        gset(("c2",), ("c2sc2", "sc2"), ("id",))
    assert names(groups_at("siegel", Q(1, 2), QU)) == \
        gset(("c2",), ("c2sc2", "sc2"), ("id",))
    assert names(groups_at("siegel", Q(-1, 2), TR)) == \
        gset(("c2", "id"), ("c2sc2",), ("sc2",))


# ---------------------------------------------------------------------------
# term orders
# ---------------------------------------------------------------------------

def test_term_order_examples():
    c1 = row("heisenberg", "sc2s", TR)
    ov = term_report("heisenberg", SPH, c1, Q(2), RULES).order
    assert ov.is_known and ov.base == -1
    ov = term_report("heisenberg", SPH, row("heisenberg", "id", TR), Q(7, 5), RULES).order
    assert ov.is_known and ov.base == 0
    prof = PlaceProfile((arch(), nonarch(TR, "steinberg"), nonarch(TR, "steinberg")))
    ov = term_report("heisenberg", prof, c1, Q(-2), RULES).order
    assert ov.is_known and ov.base == 1 - 2  # factor zero minus two local poles


def test_term_order_propagates_strip():
    c1 = row("heisenberg", "sc2s", TR)
    ov = term_report("heisenberg", SPH, c1, Q(-3, 2), RULES).order
    assert not ov.is_known
    assert ov.deps[0].coeff == -1


@pytest.mark.parametrize("profile, s0, image", [
    # the grids row "s=-2 trivial, 2 twisted-Steinberg place(s)": a length-two
    # image at the spherical place, Steinberg labels at the others
    (PlaceProfile((arch(), nonarch(TR, "steinberg"), nonarch(TR, "steinberg"))), Q(-2),
     [(0, "length-two"), (1, "L(nu^(3/2)St_GL2;1)"), (2, "L(nu^(3/2)St_GL2;1)")]),
    # the grids row "s=-4 trivial, non-Langlands real constituent": a carrier label
    (PlaceProfile((arch(TR, "carrier"),)), Q(-4), [(0, "L(delta*nu^(5/2),3;1)")]),
    # the grids row "s=-2 trivial, 5 twisted-Steinberg place(s)": five equal
    # nonarch places share one lookup per summand
    (PlaceProfile((arch(),) + (nonarch(TR, "steinberg"),) * 5), Q(-2),
     [(0, "length-two")] + [(i, "L(nu^(3/2)St_GL2;1)") for i in range(1, 6)]),
    # two nonarch classes and the arch place: three lookups per summand
    (PlaceProfile((arch(), nonarch(QU, "t1"), nonarch(TR), nonarch(QU, "t2"))), Q(-1, 2),
     [(0, "spherical"), (1, "T1"), (2, "spherical"), (3, "T2")]),
])
def test_one_pole_row_lookup_per_summand_and_place(monkeypatch, profile, s0, image):
    calls = Counter()

    def count(name):
        original = getattr(RuleTable, name)

        def counted(self, case, element, place, local_class, s0):
            calls[name] += 1
            return original(self, case, element, place, local_class, s0)

        monkeypatch.setattr(RuleTable, name, counted)

    count("local_pole")
    count("action_rule")
    group_weights = constant_term._group_weights

    def no_lookups(*args):
        before = calls.copy()
        out = group_weights(*args)
        assert calls == before, "group weights looked a rule row up again"
        return out

    monkeypatch.setattr(constant_term, "_group_weights", no_lookups)
    cls = QU if any(p.local_class is QU for p in profile.places) else TR
    report = eisenstein_order("heisenberg", profile, s0, cls)
    assert [(e.place, e.structure if e.structure == "length-two" else e.label)
            for e in report.image] == image
    # the identity carries no operator: only the three other summands, each
    # once per distinct (kind, class) of the places
    distinct = len({(p.kind, p.local_class) for p in profile.places})
    assert calls["local_pole"] == 3 * distinct
    assert calls["action_rule"] == 3 * distinct


@pytest.mark.parametrize("case, s0, cls", [
    ("heisenberg", Q(7, 5), TR),
    ("siegel", Q(-3, 8), QU),
])
def test_one_symbol_walk_per_summand(monkeypatch, case, s0, cls):
    """In a report of singleton groups each symbol of each summand is
    classified once: the order and the leading term come from one walk."""
    seen = Counter()
    classify = germs._classify

    def counted(kind, power, A, n, m):
        seen[kind, power, A, Q(n, m)] += 1
        return classify(kind, power, A, n, m)

    monkeypatch.setattr(germs, "_classify", counted)
    report = eisenstein_order(case, SPH, s0, cls)
    assert all(len(g.members) == 1 for g in report.groups)
    assert seen == Counter((sym.kind, sym.power, sym.arg.ints[0], sym.arg.a * s0 + sym.arg.b)
                           for t in report.terms for sym, _ in t.summand.factor.factors)


@pytest.mark.parametrize("case, s0, cls", [
    ("siegel", Q(1, 2), QU),
    ("heisenberg", Q(0), TR),
    ("heisenberg", Q(7, 5), OT),
])
def test_no_self_duality_read_at_a_point(monkeypatch, case, s0, cls):
    """A class's self-duality is read when a factor is compiled, never at a
    point: one report, its group jets included, reads ``is_real`` zero times."""
    for w in coset_representatives(case):
        constant_term.factor_expression(case, w, cls)  # compiled before the count
    constant_term._group_jets.cache_clear()  # the report builds its group jets
    reads = []
    is_real = CharClass.is_real
    monkeypatch.setattr(CharClass, "is_real",
                        property(lambda c: reads.append(c) or is_real.fget(c)))
    report = eisenstein_order(case, SPH, s0, cls)
    assert any(len(g.members) > 1 for g in report.groups) == (s0.denominator < 5)
    assert reads == []
    assert cls.is_real == (cls is not OT) and reads == [cls]  # the count sees a read


@pytest.mark.parametrize("case, profile, s0, cls, groups", [
    # a generic point: four singleton groups
    ("heisenberg", SPH, Q(7, 3), TR, [["id"], ["s"], ["c2s"], ["sc2s"]]),
    # the grids row "s=-2 trivial, 5 twisted-Steinberg place(s)"
    ("heisenberg", PlaceProfile((arch(),) + (nonarch(TR, "steinberg"),) * 5), Q(-2), TR,
     [["id"], ["s"], ["c2s"], ["sc2s"]]),
    # points with groups of several members, whose jets the group memo holds
    ("heisenberg", SPH, Q(0), TR, [["id", "sc2s"], ["s", "c2s"]]),
    ("siegel", SPH, Q(0), TR, [["id", "c2sc2"], ["c2", "sc2"]]),
    ("siegel", SPH, Q(1, 2), QU, [["id"], ["c2"], ["sc2", "c2sc2"]]),
])
def test_point_walk_reads_the_compiled_summands(monkeypatch, case, profile, s0, cls, groups):
    """Once warm, a report walks its (case, class) table of compiled summands
    and reads its groups' jets from a memo keyed on member names: building
    and serializing it hashes no Weyl element and asks ``factor_expression``
    for nothing."""
    eisenstein_order(case, profile, s0, cls)  # warm
    hashes, lookups = [], []
    weyl_hash, factor_expression = WeylElement.__hash__, constant_term.factor_expression
    monkeypatch.setattr(WeylElement, "__hash__", lambda w: hashes.append(w) or weyl_hash(w))
    monkeypatch.setattr(constant_term, "factor_expression",
                        lambda *key: lookups.append(key) or factor_expression(*key))
    report = eisenstein_order(case, profile, s0, cls)
    report.to_json()
    assert [g.members for g in report.groups] == groups
    assert (hashes, lookups) == ([], [])
    # the patches count: a hash and a lookup are seen
    w = coset_representatives("heisenberg")[1]
    hash(w)
    constant_term.factor_expression("heisenberg", w, TR)
    assert (hashes, lookups) == ([w], [("heisenberg", w, TR)])


def count_coefficient_builds(monkeypatch) -> dict[str, list]:
    """Record each ``Leading.scalar`` call (by its caller's name) and each
    ``FormalScalar.render`` call from now on."""
    calls: dict[str, list] = {"scalar": [], "render": []}
    scalar, render = germs.Leading.scalar, germs.FormalScalar.render

    def counted_scalar(self):
        calls["scalar"].append(sys._getframe(1).f_code.co_name)
        return scalar(self)

    def counted_render(self):
        calls["render"].append(self)
        return render(self)

    monkeypatch.setattr(germs.Leading, "scalar", counted_scalar)
    monkeypatch.setattr(germs.FormalScalar, "render", counted_render)
    return calls


# a point of singleton groups, two of certified several-member groups, one
# with a floor-only (at-least) group and a grid row with a kernel-killed group
COEFFICIENT_POINTS = [
    ("heisenberg", SPH, Q(2), TR),
    ("heisenberg", SPH, Q(0), TR),
    ("siegel", SPH, Q(1, 2), QU),
    ("siegel", SPH, Q(0), TR),
    ("heisenberg", PlaceProfile((arch(), nonarch(TR, "steinberg"), nonarch(TR, "steinberg"))),
     Q(0), TR),
]


def test_the_point_path_renders_no_coefficient(monkeypatch):
    """A report keeps each group's leading coefficient unrendered: building
    it renders none, and serializing it renders each group's once."""
    calls = count_coefficient_builds(monkeypatch)
    kinds = set()
    for case, profile, s0, cls in COEFFICIENT_POINTS:
        calls["scalar"].clear()
        calls["render"].clear()
        report = eisenstein_order(case, profile, s0, cls)
        assert calls["render"] == [], (case, s0)
        if all(len(g.members) == 1 for g in report.groups):
            assert calls["scalar"] == [], (case, s0)
        kinds |= {"killed" if g.order is None else
                  (len(g.members) > 1, g.order.kind) for g in report.groups}
        out = report.to_json()
        assert len(calls["render"]) == sum("leading" in g for g in out["groups"]), (case, s0)
        assert all(g.leading == g.to_json().get("leading") for g in report.groups)
    assert {(False, "known"), (True, "known"), (True, "at-least"), "killed"} <= kinds


def test_verify_renders_no_coefficient(monkeypatch):
    """``verify`` computes every order, vanishing flag and image label
    without rendering a coefficient; ``Leading.scalar`` runs only for the
    heads of the group jets, which ``symbol_series`` builds."""
    constant_term._group_jets.cache_clear()  # the run builds its group jets
    calls = count_coefficient_builds(monkeypatch)
    digest = pins.cli_sha256(["verify", "--json"])
    assert calls["render"] == []
    assert calls["scalar"] == ["symbol_series"] * 13
    assert digest == json.loads(GRIDS_REF.read_text(encoding="utf-8"))["verify_json_sha256"]


# ---------------------------------------------------------------------------
# combined reports
# ---------------------------------------------------------------------------

def test_convergence_region_always_holomorphic():
    for s0 in (Q(9, 4), Q(5, 2), Q(3), Q(7, 2), Q(21, 5)):
        r = eisenstein_order("heisenberg", SPH, s0, TR)
        assert r.pole_order == 0 and not r.vanishes_at_point
    for s0 in (Q(13, 4), Q(7, 2), Q(4), Q(22, 5)):
        r = eisenstein_order("siegel", SPH, s0, TR)
        assert r.pole_order == 0 and not r.vanishes_at_point


def test_unramified_places_are_inert():
    base = eisenstein_order("heisenberg", SPH, Q(2), TR)
    padded_profile = PlaceProfile((arch(), nonarch(TR), nonarch(TR), nonarch(TR)))
    padded = eisenstein_order("heisenberg", padded_profile, Q(2), TR)
    assert padded.pole_order == base.pole_order
    assert padded.combined_order == base.combined_order
    assert [g.order for g in padded.groups] == [g.order for g in base.groups]


def test_parity_toggle_flips_behavior():
    # flipping one place between the tempered halves toggles the pole on
    # the 1/2-point of the Siegel family
    even = PlaceProfile((arch(), nonarch(QU, "t2"), nonarch(QU, "t2")))
    odd = PlaceProfile((arch(), nonarch(QU, "t2"), nonarch(QU, "t1")))
    r_even = eisenstein_order("siegel", even, Q(1, 2), QU)
    r_odd = eisenstein_order("siegel", odd, Q(1, 2), QU)
    assert r_even.pole_order == 1
    assert r_odd.pole_order == 0
    # and on the Heisenberg origin it toggles vanishing
    even_h = PlaceProfile((arch(), nonarch(QU, "t2"), nonarch(QU, "t2")))
    odd_h = PlaceProfile((arch(), nonarch(QU, "t2"), nonarch(QU, "t1")))
    assert not eisenstein_order("heisenberg", even_h, Q(0), QU).vanishes_at_point
    assert eisenstein_order("heisenberg", odd_h, Q(0), QU).vanishes_at_point


def test_combined_order_bounded_by_terms():
    """The combined order never drops below the minimum live term order,
    and equals it when no cancellation fired."""
    profiles = [
        SPH,
        PlaceProfile((arch(), nonarch(TR, "steinberg"))),
        PlaceProfile((arch(), nonarch(QU, "t2"))),
    ]
    from sp4eis.localrules import UncoveredKey, UnknownChoice
    points = [Q(0), Q(1, 2), Q(1), Q(2), Q(-1), Q(-2), Q(-1, 2), Q(-3, 2), Q(3)]
    for case in ("heisenberg", "siegel"):
        for prof in profiles:
            for s0 in points:
                for cls in (TR, QU):
                    if cls is TR and any(p.local_class is not TR for p in prof.places):
                        # no trivial global character is quadratic at a place
                        with pytest.raises(ProfileError):
                            eisenstein_order(case, prof, s0, cls)
                        continue
                    try:
                        r = eisenstein_order(case, prof, s0, cls)
                    except (UncoveredKey, UnknownChoice):
                        # a choice token with no constituent meaning at the
                        # point fails loudly; skip those combinations
                        continue
                    if not r.combined_order.is_known:
                        continue
                    live = [g for g in r.groups if g.order is not None]
                    floors = [g.order.base for g in live]
                    assert r.combined_order.base >= min(floors)
                    if not any(g.cancelled for g in live):
                        known = [g.order.base for g in live if g.order.is_known]
                        if known and min(known) <= min(floors):
                            assert r.combined_order.base == min(known)


def test_report_json_roundtrip():
    import json
    r = eisenstein_order("siegel", SPH, Q(1, 2), TR)
    blob = json.dumps(r.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["combined"]["pole_order"] == 1
    assert data["case"] == "siegel"
    assert data["schema"] == "sp4eis-report/1"


def test_siegel_three_halves_pole():
    """The long-element factor has a first-order pole at s=3/2 (trivial
    class) from its numerator at argument 1; the residue realizes the
    trivial representation.  The grids do not quote this point, but the
    formulas force it and the engine reports it."""
    r = eisenstein_order("siegel", SPH, Q(3, 2), TR)
    assert r.pole_order == 1
    assert [g.order.base for g in r.groups if g.members == ["c2sc2"]] == [-1]
    assert r.image[0].label == "L(nu^2,nu^1;1)"


def test_siegel_center_vanishes_for_spherical():
    """At the symmetry center s=0 (trivial class) the two grouped pairs
    cancel on the spherical section, so the constant term vanishes at the
    point; the engine records the default +1 weight it used."""
    r = eisenstein_order("siegel", SPH, Q(0), TR)
    assert r.vanishes_at_point
    assert any("no action row" in n for n in r.to_json()["notes"])


def test_coset_representatives_per_case():
    assert [w.name for w in coset_representatives("heisenberg")] == \
        ["id", "s", "c2s", "sc2s"]
    assert [w.name for w in coset_representatives("siegel")] == \
        ["id", "c2", "sc2", "c2sc2"]
    with pytest.raises(ValueError):
        coset_representatives("x")


def test_factor_expression_refuses_an_element_outside_the_cosets():
    """``factor_expression``, the one lookup by element, reads the summand of
    a coset representative of the case and refuses any other element."""
    c2 = SYS.element_by_name("c2")
    assert constant_term.factor_expression("siegel", c2, TR) is row("siegel", "c2", TR).factor
    with pytest.raises(ValueError):
        constant_term.factor_expression("heisenberg", c2, TR)
    with pytest.raises(ValueError):
        constant_term.factor_expression("siegel", SYS.element_by_name("c2sc2s"), QU)
