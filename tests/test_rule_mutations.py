"""Deleting any row of the local rule table, or changing one of its values,
is noticed.

Each row of ``data/local_rules.txt`` is blanked in turn (so every other
row keeps its line number) and the rest is parsed with ``parse_rules``.
Either the load fails, or some answer changes: the full report JSON, or
the class of the typed error, of a theorem-grid row or of a probe.  A row
whose deletion nothing notices is listed in ``SURVIVORS`` with its reason.

The value mutants change one value of one row instead: an action value
flipped (+1 and -1, iso and kernel on base rows), a first-order pole row
set to order 0 (its carrier and pole choices emptied, as an order-0 row
has none), or an ``eq:`` point moved by 1/8 either way.  Each must
change some answer; the ones that do not are listed in
``VALUE_SURVIVORS``.
"""

import importlib.resources
import json
from fractions import Fraction as Q

from sp4eis.characters import CharClass
from sp4eis.cli import INPUT_ERRORS
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import RuleTableError, parse_rules
from sp4eis.theorems import THEOREMS

TR, QU, OT, SGN = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER, CharClass.SGN

TEXT = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text(
    encoding="utf-8")

# (case, class, s0, profile): points where a base row's listed choices decide
# between a report and ``UnknownChoice``
PROBES = [
    ("heisenberg", OT, Q(0),
     PlaceProfile((Place("arch", OT), Place("nonarch", QU, "langlands")))),
    ("siegel", OT, Q(1, 2),
     PlaceProfile((Place("arch", TR), Place("nonarch", QU, "steinberg")))),
]

# (case, class, s0, profile): points where a value of an action row decides
# the report
VALUE_PROBES = [
    ("heisenberg", TR, Q(0),
     PlaceProfile((Place("arch", TR), Place("nonarch", TR, "langlands")))),
    ("heisenberg", QU, Q(0), PlaceProfile((Place("arch", SGN),))),
    ("heisenberg", QU, Q(0),
     PlaceProfile((Place("arch", SGN), Place("nonarch", QU, "t1")))),
    ("siegel", QU, Q(1, 2),
     PlaceProfile((Place("arch", TR), Place("nonarch", QU, "t1")))),
]

# the catch-all pole rows, which the loader requires
LOAD_FAILS = {61, 77}

SURVIVORS = {
    103: "line 102 (the c2 base row, Siegel 1/2, quadratic) already refuses "
         "'steinberg' for c2, and 103's other entries (spherical, t1, t2 = iso) "
         "equal what a base summand with no row gets; whether 102 or 103 is "
         "wrong needs a source",
}


_UNREACHED_103 = ("line 103 (the sc2 base row, Siegel 1/2, quadratic) is read only "
                  "for choices line 102 (the c2 base row) lists, and 102 refuses "
                  "'steinberg'; 103's other entries equal what a base summand with "
                  "no row gets")

VALUE_SURVIVORS = {
    (103, "steinberg=kernel -> steinberg=iso"): _UNREACHED_103,
    (103, "eq:1/2 -> eq:3/8"): _UNREACHED_103,
    (103, "eq:1/2 -> eq:5/8"): _UNREACHED_103,
}

_FLIP = {"+1": "-1", "-1": "+1", "iso": "kernel", "kernel": "iso"}


def _keys():
    for case, build in THEOREMS.values():
        for clause in build():
            for row in clause.rows:
                yield case, row.cls, row.s0, row.profile
    yield from PROBES
    yield from VALUE_PROBES


KEYS = list(_keys())


def _answers(rules) -> list[str]:
    out = []
    for case, cls, s0, profile in KEYS:
        try:
            report = eisenstein_order(case, profile, s0, cls, rules=rules)
        except INPUT_ERRORS as exc:
            out.append(type(exc).__name__)
        else:
            out.append(json.dumps(report.to_json(), sort_keys=True))
    return out


def _row_lines() -> list[int]:
    return [n for n, line in enumerate(TEXT.splitlines(), start=1)
            if line.strip() and not line.lstrip().startswith("#")]


def _without(lineno: int) -> str:
    lines = TEXT.splitlines()
    lines[lineno - 1] = ""
    return "\n".join(lines)


def _with_line(lineno: int, line: str) -> str:
    lines = TEXT.splitlines()
    lines[lineno - 1] = line
    return "\n".join(lines)


def _value_mutants():
    """(line number, change, mutated table) for every single value mutant."""
    for lineno in _row_lines():
        fields = TEXT.splitlines()[lineno - 1].split("|")
        cond = 5 if fields[0] == "pole" else 6
        changes = []
        if fields[0] == "action":
            pairs = fields[7].split(",")
            for i, pair in enumerate(pairs):
                choice, value = pair.split("=")
                if value in ("iso", "kernel") and fields[3] != "base":
                    continue
                flipped = f"{choice}={_FLIP[value]}"
                changes.append((f"{pair} -> {flipped}", 7,
                                [",".join(pairs[:i] + [flipped] + pairs[i + 1:])]))
        elif fields[6] == "1":
            # an order-0 row lists no carrier and no pole choices
            changes.append(("order 1 -> order 0", 6, ["0", "", ""]))
        if fields[cond].startswith("eq:"):
            point = Q(fields[cond][3:])
            for moved in (point - Q(1, 8), point + Q(1, 8)):
                changes.append((f"{fields[cond]} -> eq:{moved}", cond, [f"eq:{moved}"]))
        for change, index, values in changes:
            mutated = fields[:index] + values + fields[index + len(values):]
            yield lineno, change, _with_line(lineno, "|".join(mutated))


def test_probes_need_the_listed_choices():
    # with the whole table both probes name a choice their base row does not list
    answers = _answers(parse_rules(TEXT))
    start = KEYS.index(PROBES[0])
    assert answers[start:start + len(PROBES)] == ["UnknownChoice"] * len(PROBES)


def test_every_row_deletion_is_noticed():
    reference = _answers(parse_rules(TEXT))
    load_fails, survivors = set(), set()
    for lineno in _row_lines():
        try:
            rules = parse_rules(_without(lineno))
        except RuleTableError:
            load_fails.add(lineno)
            continue
        if _answers(rules) == reference:
            survivors.add(lineno)
    assert load_fails == LOAD_FAILS
    assert survivors == set(SURVIVORS)


def test_every_value_mutant_is_noticed():
    reference = _answers(parse_rules(TEXT))
    mutants = list(_value_mutants())
    survivors = {(lineno, change) for lineno, change, text in mutants
                 if _answers(parse_rules(text)) == reference}
    assert len(mutants) == 81
    assert survivors == set(VALUE_SURVIVORS)
