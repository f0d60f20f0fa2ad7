"""Local operator rule tables and reducibility predicates."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from sp4eis.characters import COSET_REPS, CharClass
from sp4eis.localrules import (
    ARCH, NONARCH, PLACE_CLASSES, Condition, RuleTable, RuleTableError, UncoveredKey,
    UnknownChoice, default_rules, gl2_reducible, load_rules, parse_rules, sl2_reducible,
)

TR, QU, OT, SGN = (CharClass.TRIVIAL, CharClass.QUADRATIC,
                   CharClass.OTHER, CharClass.SGN)
RULES = default_rules()


def key(case, element, place, cls, s0) -> tuple:
    return case, element, place, cls, Q(s0)


# ---------------------------------------------------------------------------
# reducibility predicates
# ---------------------------------------------------------------------------

def test_sl2_nonarch():
    assert sl2_reducible(NONARCH, QU, Q(0))
    assert sl2_reducible(NONARCH, TR, Q(-1))
    assert sl2_reducible(NONARCH, TR, Q(1))
    assert not sl2_reducible(NONARCH, OT, Q(-5))
    assert not sl2_reducible(NONARCH, TR, Q(0))
    assert not sl2_reducible(NONARCH, QU, Q(-1))


def test_sl2_arch():
    assert sl2_reducible(ARCH, TR, Q(-3))
    assert sl2_reducible(ARCH, TR, Q(1))
    assert not sl2_reducible(ARCH, TR, Q(-2))
    assert sl2_reducible(ARCH, SGN, Q(0))
    assert sl2_reducible(ARCH, SGN, Q(-4))
    assert not sl2_reducible(ARCH, SGN, Q(-3))
    assert not sl2_reducible(ARCH, TR, Q(-1, 2))
    assert not sl2_reducible(ARCH, QU, Q(1))  # a quadratic class has no archimedean parity
    with pytest.raises(ValueError):
        sl2_reducible("finite", TR, Q(1))


def test_gl2():
    assert gl2_reducible(NONARCH, TR, Q(-1))
    assert not gl2_reducible(NONARCH, TR, Q(-2))
    assert not gl2_reducible(NONARCH, QU, Q(1))
    assert gl2_reducible(ARCH, TR, Q(-3))
    assert gl2_reducible(ARCH, SGN, Q(-2))
    assert not gl2_reducible(ARCH, SGN, Q(-3))
    with pytest.raises(ValueError):
        gl2_reducible("finite", TR, Q(1))


# ---------------------------------------------------------------------------
# pole rules
# ---------------------------------------------------------------------------

def test_heisenberg_nonarch_pole():
    res = RULES.local_pole(*key("heisenberg", "sc2s", NONARCH, TR, -2))
    assert res.order == 1
    assert res.carrier == "st_gl2"
    for element in ("s", "c2s"):
        assert RULES.local_pole(*key("heisenberg", element, NONARCH, TR, -2)).order == 1


def test_heisenberg_arch_poles():
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, SGN, -3)).order == 1
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, TR, -2)).order == 1
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, TR, -4)).order == 1
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, TR, -3)).order == 0
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, SGN, -1)).order == 0
    assert RULES.local_pole(*key("heisenberg", "sc2s", ARCH, SGN, -2)).order == 0


def test_heisenberg_action_at_zero():
    k = key("heisenberg", "sc2s", NONARCH, TR, 0)
    assert RULES.local_pole(*k).order == 0
    rule = RULES.action_rule("heisenberg", "sc2s", NONARCH, TR, Q(0))
    assert rule.action_for("langlands") == "+1"
    assert rule.action_for("steinberg") == "-1"
    assert RULES.action_rule("heisenberg", "id", NONARCH, TR, Q(0)) is None


def test_quadratic_action_signs():
    rule = RULES.action_rule("heisenberg", "c2s", NONARCH, QU, Q(0))
    assert rule.action_for("t1") == "+1"
    assert rule.action_for("t2") == "-1"
    with pytest.raises(UnknownChoice):
        rule.action_for("steinberg")


def test_siegel_poles():
    assert RULES.local_pole(*key("siegel", "c2", NONARCH, TR, Q(-3, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "sc2", NONARCH, TR, Q(-3, 2))).order == 1
    res = RULES.local_pole(*key("siegel", "c2sc2", NONARCH, TR, Q(-1, 2)))
    assert res.order == 1
    assert res.carrier == "tempered_t2"
    assert RULES.local_pole(*key("siegel", "c2", NONARCH, TR, Q(-1, 2))).order == 0
    assert RULES.local_pole(*key("siegel", "sc2", NONARCH, TR, Q(-1, 2))).order == 0
    assert RULES.local_pole(*key("siegel", "c2", NONARCH, QU, Q(-3, 2))).order == 0


def test_siegel_arch_parity():
    # first-step parity: s+1/2 negative odd (trivial) / even (sgn)
    assert RULES.local_pole(*key("siegel", "c2", ARCH, TR, Q(-3, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "c2", ARCH, SGN, Q(-5, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "c2", ARCH, TR, Q(-5, 2))).order == 0
    # last-step parity for the long element: s-1/2 negative odd / even
    assert RULES.local_pole(*key("siegel", "c2sc2", ARCH, TR, Q(-1, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "c2sc2", ARCH, TR, Q(-5, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "c2sc2", ARCH, SGN, Q(-3, 2))).order == 1
    assert RULES.local_pole(*key("siegel", "sc2", ARCH, TR, Q(-5, 2))).order == 0


def test_holomorphic_for_nonnegative_points():
    elements = {"heisenberg": ("s", "c2s", "sc2s"),
                "siegel": ("c2", "sc2", "c2sc2")}
    for case, names in elements.items():
        for element in names:
            for place, classes in ((NONARCH, (TR, QU, OT)), (ARCH, (TR, SGN, OT))):
                for cls in classes:
                    for s8 in range(0, 25):
                        res = RULES.local_pole(*key(case, element, place, cls, Q(s8, 8)))
                        assert res.order == 0


def test_spherical_choice_never_meets_a_pole():
    k = key("heisenberg", "sc2s", NONARCH, TR, -2)
    assert RULES.local_pole(*k).order_for("spherical") == 0
    assert RULES.local_pole(*k).order_for("steinberg") == 1
    assert RULES.local_pole(*k).order_for("langlands") == 0


def test_uncovered_keys_fail_loudly():
    # no row is indexed under an unknown case, element or place kind; a
    # class the place kind does not carry is refused by PlaceProfile
    with pytest.raises(UncoveredKey, match="no pole rule covers"):
        RULES.local_pole(*key("heisenberg", "c2", NONARCH, TR, 0))  # not a summand
    with pytest.raises(UncoveredKey, match="no pole rule covers"):
        RULES.local_pole(*key("siegel", "s", NONARCH, TR, 0))
    with pytest.raises(UncoveredKey, match="no pole rule covers"):
        RULES.local_pole(*key("klingen", "s", NONARCH, TR, 0))
    with pytest.raises(UncoveredKey, match="no pole rule covers"):
        RULES.local_pole(*key("heisenberg", "s", "adelic", TR, 0))


def test_table_is_exactly_the_stated_clauses():
    """The pole table is the union of the stated exceptional clauses plus
    the holomorphic catch-alls: no extra first-order rows."""
    exceptional = {
        ("heisenberg", ("s", "c2s", "sc2s"), NONARCH, ("trivial",), "s=-2", "st_gl2"),
        ("heisenberg", ("s", "c2s", "sc2s"), ARCH, ("trivial",),
         "s even integer < -1", "arch_nonlanglands"),
        ("heisenberg", ("s", "c2s", "sc2s"), ARCH, ("sgn",),
         "s odd integer < -1", "arch_nonlanglands"),
        ("siegel", ("c2", "sc2", "c2sc2"), NONARCH, ("trivial",), "s=-3/2", "st_sl2"),
        ("siegel", ("c2sc2",), NONARCH, ("trivial",), "s=-1/2", "tempered_t2"),
        ("siegel", ("c2", "sc2", "c2sc2"), ARCH, ("trivial",),
         "s+1/2 odd integer < 0", "arch_nonlanglands"),
        ("siegel", ("c2", "sc2", "c2sc2"), ARCH, ("sgn",),
         "s+1/2 even integer < 0", "arch_nonlanglands"),
        ("siegel", ("c2sc2",), ARCH, ("trivial",),
         "s-1/2 odd integer < 0", "arch_nonlanglands"),
        ("siegel", ("c2sc2",), ARCH, ("sgn",),
         "s-1/2 even integer < 0", "arch_nonlanglands"),
    }
    got = {
        (r.case, r.elements, r.place, r.classes, r.condition.render(), r.carrier)
        for r in RULES.poles if r.order == 1
    }
    assert got == exceptional
    # every other row is a catch-all
    assert {r.condition.render() for r in RULES.poles if r.order == 0} == {"always"}
    assert Condition.parse("always").render() == "always"
    # every row carries a human-readable justification
    assert all(r.note for r in RULES.poles if r.order == 1)
    assert all(r.note for r in RULES.actions)


def test_nonarch_poles_match_reducibility():
    """First-order nonarchimedean rows occur exactly where the SL2/GL2
    reducibility predicates fire at the relevant shifted parameter."""
    # the first reflection step of the Heisenberg operators is a GL2 step
    # at relative exponent s+1
    assert gl2_reducible(NONARCH, TR, Q(-2) + 1)
    # the first step of the Siegel operators is an SL2 step at s+1/2
    assert sl2_reducible(NONARCH, TR, Q(-3, 2) + Q(1, 2))
    # the extra step of the long Siegel element is an SL2 step at s-1/2
    assert sl2_reducible(NONARCH, TR, Q(-1, 2) - Q(1, 2))
    # and nowhere else at negative parameters on the tables' class range:
    for s8 in range(-32, 0):
        s0 = Q(s8, 8)
        fires = RULES.local_pole(*key("heisenberg", "s", NONARCH, TR, s0)).order == 1
        assert fires == (gl2_reducible(NONARCH, TR, s0 + 1) and s0 + 1 < 0)
        fires = RULES.local_pole(*key("siegel", "c2", NONARCH, TR, s0)).order == 1
        assert fires == (sl2_reducible(NONARCH, TR, s0 + Q(1, 2)) and s0 + Q(1, 2) < 0)


def test_rules_roundtrip_from_file(tmp_path):
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    p = tmp_path / "rules.txt"
    p.write_text(text, encoding="utf-8")
    table = load_rules(p)
    assert len(table.poles) == len(RULES.poles)
    assert len(table.actions) == len(RULES.actions)


HEISENBERG_CATCH_ALL = "pole|heisenberg|s,c2s,sc2s|*|*|always|0|||ok\n"
SIEGEL_CATCH_ALL = "pole|siegel|c2,sc2,c2sc2|*|*|always|0|||ok\n"


def test_malformed_tables_rejected():
    # every row check runs as its row is parsed, so each error names its line
    with pytest.raises(RuleTableError, match=r"^<string>:1: pole order must be 0 or 1, got 3$"):
        parse_rules("pole|heisenberg|s|nonarch|trivial|eq:-2|3|x|steinberg|note\n"
                    + HEISENBERG_CATCH_ALL + SIEGEL_CATCH_ALL)
    with pytest.raises(RuleTableError, match=r"^<string>:3: first-order pole rows need a carrier$"):
        parse_rules(HEISENBERG_CATCH_ALL + SIEGEL_CATCH_ALL
                    + "pole|heisenberg|s|nonarch|trivial|eq:-2|1||steinberg|note\n")
    with pytest.raises(RuleTableError, match="missing heisenberg catch-all"):
        parse_rules(SIEGEL_CATCH_ALL)
    with pytest.raises(RuleTableError, match="unknown record kind 'frob'"):
        parse_rules("frob|x|y\n")
    # a rational with a zero denominator is a malformed row, not a ZeroDivisionError
    for cond in ("eq:-2/0", "int:1/0:even:lt-1", "int:0:even:lt1/0"):
        with pytest.raises(RuleTableError, match=r"^rules\.txt:2: zero denominator in '.*/0'$"):
            parse_rules(HEISENBERG_CATCH_ALL
                        + f"pole|heisenberg|s|nonarch|trivial|{cond}|1|x|steinberg|n\n"
                        + SIEGEL_CATCH_ALL, source="rules.txt")
    # a misspelt carrier would print as the image label of its pole
    with pytest.raises(RuleTableError, match=r"^rules\.txt:2: unknown carrier 'st_gl3'$"):
        parse_rules(HEISENBERG_CATCH_ALL
                    + "pole|heisenberg|s|nonarch|trivial|eq:-2|1|st_gl3|steinberg|n\n"
                    + SIEGEL_CATCH_ALL, source="rules.txt")
    # a bound field must read lt<value>; anything else is not the bound 0
    with pytest.raises(RuleTableError, match=r"^rules\.txt:2: .*int:0:odd:le3"):
        parse_rules(HEISENBERG_CATCH_ALL
                    + "pole|heisenberg|s|arch|trivial|int:0:odd:le3|1|x|steinberg|typo\n"
                    + SIEGEL_CATCH_ALL, source="rules.txt")
    # the four facts the engine and the loader state are not restated by rows:
    # the identity carries no operator, the carrier meets every pole, a
    # spherical section meets none, and a kernel sits on a group's base
    for row, error in (
            ("pole|heisenberg|id|*|*|always|0|||identity", "unknown element 'id'"),
            ("action|heisenberg|sc2s|id|*|trivial|eq:0|any=+1|n", "unknown action base 'id'"),
            ("pole|heisenberg|s|arch|trivial|eq:-2|1|x|steinberg,carrier|n",
             "unknown pole choice 'carrier'"),
            ("pole|heisenberg|s|arch|trivial|eq:-2|1|x|spherical|n",
             "unknown pole choice 'spherical'"),
            ("action|heisenberg|c2s|s|*|trivial|eq:0|steinberg=kernel|n",
             "kernel on a row relative to 's', not a base row"),
            ("action|heisenberg|sc2s|-|*|trivial|eq:0|any=kernel|n",
             "kernel on a row relative to '-', not a base row"),
            # action_for reads a choice's first value only
            ("action|heisenberg|s|base|*|trivial|eq:0|"
             "spherical=iso,langlands=iso,steinberg=kernel,steinberg=+1|n",
             "action choice 'steinberg' listed twice")):
        with pytest.raises(RuleTableError, match=rf"^rules\.txt:2: {error}$"):
            parse_rules(HEISENBERG_CATCH_ALL + row + "\n" + SIEGEL_CATCH_ALL,
                        source="rules.txt")


@pytest.mark.parametrize("row, error", [
    ("pole|heisenbreg|s|arch|trivial|eq:-2|1|x|steinberg|n", "unknown case 'heisenbreg'"),
    ("pole|heisenberg|s,c2|arch|trivial|eq:-2|1|x|steinberg|n", "unknown element 'c2'"),
    ("pole|heisenberg|*|arch|trivial|eq:-2|1|x|steinberg|n", "unknown element '\\*'"),
    ("pole|heisenberg|s|archimedean|trivial|eq:-2|1|x|steinberg|n",
     "unknown place 'archimedean'"),
    ("pole|heisenberg|s|nonarch|trivail|eq:-2|1|x|steinberg|n", "unknown class 'trivail'"),
    ("pole|heisenberg|s|arch|trivial|eq:-2|1|x|steinbreg|n",
     "unknown pole choice 'steinbreg'"),
    ("pole|heisenberg|s|arch|trivial|eq:-2|1|x|any|n", "unknown pole choice 'any'"),
    ("action|siegel|sc2|c2s|*|trivial|eq:1/2|any=+1|n", "unknown action base 'c2s'"),
    ("action|siegel|s|-|*|trivial|eq:1/2|any=+1|n", "unknown element 's'"),
    ("action|siegel|sc2|base|*|quadratic,sgn|eq:1/2|t3=+1|n", "unknown action choice 't3'"),
    ("action|siegel|sc2|base|*|quadratic,sgn|eq:1/2|t1=+2|n", "unknown action value '\\+2'"),
    # a class the row's place cannot have matches no profile
    ("pole|heisenberg|s|arch|trivial,quadratic|eq:-2|1|st_gl2|steinberg|n",
     "class 'quadratic' cannot occur at place 'arch'"),
    ("action|siegel|sc2|base|nonarch|sgn|eq:1/2|t1=+1|n",
     "class 'sgn' cannot occur at place 'nonarch'"),
])
def test_misspelt_tokens_rejected(row, error):
    # a token outside its field's vocabulary, or a class foreign to the
    # row's place, would make the row match nothing
    with pytest.raises(RuleTableError, match=rf"^rules\.txt:2: {error}$"):
        parse_rules(HEISENBERG_CATCH_ALL + row + "\n" + SIEGEL_CATCH_ALL, source="rules.txt")


def test_order_zero_rows_list_no_carrier_or_pole_choices():
    # an order-0 row's carrier and pole choices are never read: listing one is a slip
    for fields in ("st_gl2|", "|steinberg", "st_gl2|steinberg"):
        row = f"pole|heisenberg|s|nonarch|trivial|eq:-2|0|{fields}|n\n"
        with pytest.raises(RuleTableError, match=r"^rules\.txt:2: order-0 pole rows list "
                                                 r"no carrier and no pole choices$"):
            parse_rules(HEISENBERG_CATCH_ALL + row + SIEGEL_CATCH_ALL, source="rules.txt")


def test_rows_keep_the_line_they_were_read_from():
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    lines = text.splitlines()
    assert all(lines[r.line - 1].startswith("pole|") for r in RULES.poles)
    assert all(lines[r.line - 1].startswith("action|") for r in RULES.actions)
    # a row is its fields, its line included: read one line lower, each row
    # differs from the shipped one in its line alone
    shifted = parse_rules("\n" + text)
    assert shifted.poles != RULES.poles
    assert [r._replace(line=r.line - 1) for r in shifted.poles] == RULES.poles
    assert [r._replace(line=r.line - 1) for r in shifted.actions] == RULES.actions


def _scan_condition(cond, s0: Q) -> bool:
    """A condition evaluated in ``Fraction`` arithmetic."""
    if cond.kind == "always":
        return True
    if cond.kind == "eq":
        return s0 == Q(*cond.value)
    t = s0 + Q(*cond.value)
    return t.denominator == 1 and t < Q(*cond.below) and t.numerator % 2 == cond.parity


def _scan_covers(r, case, place, local_class, s0) -> bool:
    return (r.case == case and r.place in ("*", place)
            and ("*" in r.classes or local_class.value in r.classes)
            and _scan_condition(r.condition, s0))


def _scan_pole(table, case, element, place, local_class, s0):
    hits = [r for r in table.poles
            if element in r.elements and _scan_covers(r, case, place, local_class, s0)]
    if not hits:
        return UncoveredKey
    return max(hits, key=lambda r: r.order)


def _scan_action(table, case, element, place, local_class, s0):
    return next((r for r in table.actions
                 if r.element == element and _scan_covers(r, case, place, local_class, s0)),
                None)


# the shipped rows without the catch-alls, so that keys go uncovered
UNCOVERING = RuleTable([r for r in RULES.poles if r.condition.kind != "always"], RULES.actions)

# each eq: point and the int: lattice points of every row
SPECIAL_POINTS = sorted({Q(*r.condition.value) for r in RULES.poles + RULES.actions
                         if r.condition.kind == "eq"}
                        | {t - Q(*r.condition.value) for r in RULES.poles + RULES.actions
                           if r.condition.kind == "int" for t in range(-8, 3)})

VALID_PLACES = [(kind, cls) for kind, classes in PLACE_CLASSES.items() for cls in classes]


@given(case=st.sampled_from(sorted(COSET_REPS)), index=st.integers(0, 3),
       place=st.sampled_from(VALID_PLACES), table=st.sampled_from((RULES, UNCOVERING)),
       s0=st.sampled_from(SPECIAL_POINTS) | st.fractions(-8, 8, max_denominator=12))
def test_indexed_lookup_equals_linear_scan(case, index, place, table, s0):
    element = COSET_REPS[case][index].name
    kind, cls = place
    expected = _scan_pole(table, case, element, kind, cls, s0)
    try:
        got = table.local_pole(case, element, kind, cls, s0)
    except UncoveredKey:
        got = UncoveredKey
    assert got is expected
    assert table.action_rule(case, element, kind, cls, s0) is \
        _scan_action(table, case, element, kind, cls, s0)


# a table whose rows name "*" places and classes and tie on order: the
# Heisenberg catch-all comes first in the file but below every first-order
# row, row b ties row a at -2, row f is shadowed by row e, and the Siegel
# rows split one element's classes between a "*" place and an arch place
STARRED = parse_rules(
    HEISENBERG_CATCH_ALL
    + "pole|heisenberg|s,sc2s|*|*|int:0:even:lt-1|1|st_gl2|steinberg|a\n"
    + "pole|heisenberg|s|nonarch|trivial|eq:-2|1|st_gl2|langlands|b\n"
    + "pole|heisenberg|c2s|arch|*|eq:-3|1|arch_nonlanglands|steinberg|c\n"
    + "pole|heisenberg|c2s|*|other|eq:-3|0|||d\n"
    + "action|heisenberg|s|base|*|*|eq:0|any=+1|e\n"
    + "action|heisenberg|s|base|nonarch|trivial|eq:0|any=-1|f\n"
    + "action|heisenberg|c2s|-|arch|*|int:0:odd|any=+1|g\n"
    + SIEGEL_CATCH_ALL
    + "pole|siegel|c2|*|quadratic,other|eq:1/2|1|tempered_t2|t2|h\n"
    + "pole|siegel|c2|arch|trivial,sgn|int:1/2:odd:lt0|1|arch_nonlanglands|steinberg|i\n",
    source="starred.txt")


def _condition_points(table: RuleTable) -> set[Q]:
    """Each eq condition's point and each bounded int condition's own
    point, where s0 + shift reaches the bound."""
    out = set()
    for r in table.poles + table.actions:
        c = r.condition
        if c.kind == "eq":
            out.add(Q(*c.value))
        elif c.kind == "int" and c.below != (0, 1):
            out.add(Q(*c.below) - Q(*c.value))
    return out


def _line_or_uncovered(lookup):
    try:
        row = lookup()
    except UncoveredKey:
        return UncoveredKey
    return row if row is None or row is UncoveredKey else row.line


@pytest.mark.parametrize("table", [RULES, STARRED], ids=["shipped", "starred"])
def test_class_index_matches_file_order_scan(table):
    """The class index answers as a scan of the rows in file order: the
    highest-order pole row, the first among equals, and the first action row."""
    points = {Q(k, 8) for k in range(-48, 49)} | _condition_points(table)
    checked = 0
    for case, reps in COSET_REPS.items():
        for element in (w.name for w in reps):
            for place in (NONARCH, ARCH):
                for cls in CharClass:
                    for s0 in sorted(points):
                        got = _line_or_uncovered(
                            lambda: table.local_pole(case, element, place, cls, s0))
                        want = _line_or_uncovered(
                            lambda: _scan_pole(table, case, element, place, cls, s0))
                        assert got == want, (case, element, place, cls, s0)
                        got = _line_or_uncovered(
                            lambda: table.action_rule(case, element, place, cls, s0))
                        want = _line_or_uncovered(
                            lambda: _scan_action(table, case, element, place, cls, s0))
                        assert got == want, (case, element, place, cls, s0)
                        checked += 1
    assert checked == 2 * 4 * 2 * 4 * len(points)
