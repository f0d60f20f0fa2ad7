"""Deleting any row of the local rule table is noticed.

Each row of ``data/local_rules.txt`` is blanked in turn (so every other
row keeps its line number) and the rest is parsed with ``parse_rules``.
Either the load fails, or some answer changes: the full report JSON, or
the class of the typed error, of a theorem-grid row or of a probe.  A row
whose deletion nothing notices is listed in ``SURVIVORS`` with its reason.
"""

import importlib.resources
import json
from fractions import Fraction as Q

from sp4eis.characters import CharClass
from sp4eis.cli import INPUT_ERRORS
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import RuleTableError, parse_rules
from sp4eis.theorems import THEOREMS

TR, QU, OT = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER

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

# the catch-all pole rows, which the loader requires
LOAD_FAILS = {61, 77}

SURVIVORS = {
    103: "line 102 (the c2 base row, Siegel 1/2, quadratic) already refuses "
         "'steinberg' for c2, and 103's other entries (spherical, t1, t2 = iso) "
         "equal what a base summand with no row gets; whether 102 or 103 is "
         "wrong needs a source",
}


def _keys():
    for theorem_id, (_, build) in THEOREMS.items():
        case = "heisenberg" if theorem_id.startswith("H") else "siegel"
        for clause in build():
            for row in clause.rows:
                yield case, row.cls, row.s0, row.profile
    yield from PROBES


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


def test_probes_need_the_listed_choices():
    # with the whole table both probes name a choice their base row does not list
    assert _answers(parse_rules(TEXT))[-len(PROBES):] == ["UnknownChoice"] * len(PROBES)


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
