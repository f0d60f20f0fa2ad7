"""Clause-by-clause verification grids for the four main pole/image theorems.

Each theorem is a list of clauses; each clause carries a finite family of
section profiles (spherical everywhere, single ramified places, up to five
ramified places, parity variants) together with the expected pole order,
vanishing behavior, conditional dependencies, and label-level image
assertions.  ``verify_theorem`` runs the constant-term engine over a grid
and reports one pass/fail row per scenario.

The tested scope is deliberately finite: clauses quantifying over all
section choices or unbounded ramified sets are checked on these templates
only.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import NamedTuple

from .characters import CharClass
from .constant_term import (
    ConstantTermReport, Place, PlaceProfile, eisenstein_order,
)
from .localrules import RuleTable

TR = CharClass.TRIVIAL
QU = CharClass.QUADRATIC
OT = CharClass.OTHER
SGN = CharClass.SGN


def _prof(*places: Place) -> PlaceProfile:
    return PlaceProfile(tuple(places))


def _arch(cls: CharClass = TR, choice: str = "spherical") -> Place:
    return Place("arch", cls, choice)


def _n(cls: CharClass, choice: str = "spherical") -> Place:
    return Place("nonarch", cls, choice)


class Expected(NamedTuple):
    pole: int | None = None            # asserted pole order (None: not asserted)
    conditional_symbol: str | None = None  # substring of a strip dependency
    vanishes: bool = False
    images: tuple[tuple[int | str, str, str], ...] = ()  # (place, label-sub, structure-sub)


class GridRow(NamedTuple):
    label: str
    cls: CharClass
    s0: Q
    profile: PlaceProfile
    expected: Expected


class Clause(NamedTuple):
    key: str
    claim: str
    rows: tuple[GridRow, ...]


class RowResult(NamedTuple):
    clause: str
    label: str
    ok: bool
    expected: Expected
    report: ConstantTermReport
    details: list[str]            # the row's problems; empty when it passes

    def to_json(self) -> dict:
        return {
            "clause": self.clause,
            "row": self.label,
            "ok": self.ok,
            "expected": {
                "pole": self.expected.pole,
                "conditional": self.expected.conditional_symbol,
                "vanishes": self.expected.vanishes,
                "images": [list(map(str, t)) for t in self.expected.images],
            },
            "computed": {
                "pole": self.report.pole_order,
                "order": self.report.combined_order.to_json(),
                "vanishes": self.report.vanishes_at_point,
                "conditional_on": [d.to_json() for d in self.report.combined_order.deps],
                "image": [e.to_json() for e in self.report.image],
            },
            "details": self.details,
        }


class TheoremReport(NamedTuple):
    theorem: str
    clauses: list[Clause]
    rows: list[RowResult]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {
            "schema": "sp4eis-verify/1",
            "theorem": self.theorem,
            "passed": self.passed,
            "clauses": [{"key": c.key, "claim": c.claim} for c in self.clauses],
            "rows": [r.to_json() for r in self.rows],
        }

    def render_lines(self) -> list[str]:
        out = []
        for r in self.rows:
            status = "PASS" if r.ok else "FAIL"
            extra = "" if r.ok else "  [" + "; ".join(r.details) + "]"
            out.append(f"{status} {self.theorem} {r.clause}: {r.label}{extra}")
        out.append(f"{'PASS' if self.passed else 'FAIL'} {self.theorem} overall "
                   f"({sum(r.ok for r in self.rows)}/{len(self.rows)} rows)")
        return out


def _check_row(report: ConstantTermReport, exp: Expected) -> list[str]:
    problems: list[str] = []
    if exp.conditional_symbol is not None:
        if report.pole_order is not None:
            problems.append(f"expected a conditional order, got pole {report.pole_order}")
        if not any(exp.conditional_symbol in d.symbol for d in report.combined_order.deps):
            problems.append(
                f"missing dependency on {exp.conditional_symbol!r} "
                f"(got {[d.symbol for d in report.combined_order.deps]})")
    elif exp.pole is not None:
        if report.pole_order != exp.pole:
            problems.append(f"pole order {report.pole_order} != expected {exp.pole}")
    if report.vanishes_at_point != exp.vanishes:
        problems.append(f"vanishing flag {report.vanishes_at_point} != expected {exp.vanishes}")
    for place, label_sub, structure_sub in exp.images:
        hit = False
        for e in report.image:
            if place != e.place:
                continue
            if label_sub in e.label and structure_sub in e.structure:
                hit = True
                break
        if not hit:
            problems.append(
                f"no image entry at place {place!r} matching label~{label_sub!r} "
                f"structure~{structure_sub!r} (got {[(e.place, e.label, e.structure) for e in report.image]})")
    return problems


# ---------------------------------------------------------------------------
# the grids
# ---------------------------------------------------------------------------

def _heisenberg_nonneg() -> list[Clause]:
    st = "steinberg"
    rows1 = (
        GridRow("s=0 spherical", TR, Q(0), _prof(_arch()), Expected(pole=0)),
        GridRow("s=0 one twisted-Steinberg constituent", TR, Q(0),
                _prof(_arch(), _n(TR, st)), Expected(pole=0, vanishes=True)),
        GridRow("s=0 two twisted-Steinberg constituents", TR, Q(0),
                _prof(_arch(), _n(TR, st), _n(TR, st)),
                Expected(pole=0, images=((1, "St_GL2", "irreducible"), (2, "St_GL2", "irreducible")))),
        GridRow("s=0 three twisted-Steinberg constituents", TR, Q(0),
                _prof(_arch(), _n(TR, st), _n(TR, st), _n(TR, st)),
                Expected(pole=0, vanishes=True)),
    )
    rows2 = (
        GridRow("s=1 spherical", TR, Q(1), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
    )
    rows3 = (
        GridRow("s=2 spherical", TR, Q(2), _prof(_arch()),
                Expected(pole=1, images=((0, "L(nu^2,nu^1;1)", "spherical"),))),
    )
    rows4 = (
        GridRow("s=0 one tempered-minus constituent", QU, Q(0),
                _prof(_arch(), _n(QU, "t2")), Expected(pole=0, vanishes=True)),
        GridRow("s=0 two tempered-minus constituents", QU, Q(0),
                _prof(_arch(), _n(QU, "t2"), _n(QU, "t2")),
                Expected(pole=0, images=((1, "L(nu^1;T2)", "irreducible"), (2, "L(nu^1;T2)", "irreducible")))),
        GridRow("s=0 tempered-minus at the real place only", QU, Q(0),
                _prof(_arch(SGN, "t2")), Expected(pole=0, vanishes=True)),
        GridRow("s=0 tempered-minus at the real place and one finite place", QU, Q(0),
                _prof(_arch(SGN, "t2"), _n(QU, "t2")), Expected(pole=0)),
    )
    rows5 = (
        GridRow("s=1/2 trivial", TR, Q(1, 2), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=7/2 trivial", TR, Q(7, 2), _prof(_arch()), Expected(pole=0)),
        GridRow("s=1 quadratic", QU, Q(1), _prof(_arch()), Expected(pole=0)),
        GridRow("s=2 quadratic", QU, Q(2), _prof(_arch(SGN)), Expected(pole=0)),
        GridRow("s=0 infinite-order class", OT, Q(0), _prof(_arch(OT)),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=3/2 infinite-order class", OT, Q(3, 2), _prof(_arch(OT)), Expected(pole=0)),
    )
    return [
        Clause("clause-1", "at s=0 with the trivial class the series is holomorphic; "
               "an odd number of twisted-Steinberg choices makes the constant term vanish, "
               "an even number realizes the constituents", rows1),
        Clause("clause-2", "at s=1 with the trivial class: holomorphic, whole module embeds", rows2),
        Clause("clause-3", "at s=2 with the trivial class: first-order pole; the residue "
               "realizes the trivial representation", rows3),
        Clause("clause-4", "at s=0 with a quadratic class the tempered-minus parity decides "
               "vanishing (odd) versus realization (even)", rows4),
        Clause("clause-5", "all remaining s>=0 points are holomorphic with full embedding", rows5),
    ]


def _heisenberg_neg() -> list[Clause]:
    st = "steinberg"
    rows1 = (
        GridRow("s=-1/2 trivial", TR, Q(-1, 2), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-1/2 quadratic", QU, Q(-1, 2), _prof(_arch()), Expected(pole=0)),
        GridRow("s=-1/2 infinite-order class", OT, Q(-1, 2), _prof(_arch(OT)), Expected(pole=0)),
    )
    rows2 = (
        GridRow("s=-1 quadratic", QU, Q(-1), _prof(_arch(SGN)),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-1 infinite-order class", OT, Q(-1), _prof(_arch(OT)), Expected(pole=0)),
    )
    rows3 = (
        GridRow("s=-1 trivial: constant term is identically zero", TR, Q(-1),
                _prof(_arch()), Expected(pole=0, vanishes=True)),
        GridRow("s=-1 trivial, larger ramified set", TR, Q(-1),
                _prof(_arch(), _n(TR), _n(TR)), Expected(pole=0, vanishes=True)),
    )
    rows4 = (
        GridRow("s=-3/2 trivial", TR, Q(-3, 2), _prof(_arch()),
                Expected(conditional_symbol="L(s+2,1)",
                         images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-5/4 trivial", TR, Q(-5, 4), _prof(_arch()),
                Expected(conditional_symbol="L(s+2,1)")),
        GridRow("s=-3/2 quadratic", QU, Q(-3, 2), _prof(_arch()),
                Expected(conditional_symbol="L(s+2,chi)")),
        GridRow("s=-3/2 infinite-order class", OT, Q(-3, 2), _prof(_arch(OT)),
                Expected(conditional_symbol="L(s+2,chi)")),
    )
    rows5 = [
        GridRow("s=-2 trivial, spherical", TR, Q(-2), _prof(_arch()), Expected(pole=0)),
    ]
    for k in range(1, 6):
        places = (_arch(),) + tuple(_n(TR, st) for _ in range(k))
        exp = Expected(pole=k - 1)
        if k == 2:
            exp = Expected(pole=1, images=(
                (0, "L(nu^2,nu^1;1)", "length-two"),
                (1, "St_GL2", "irreducible"),
            ))
        rows5.append(GridRow(f"s=-2 trivial, {k} twisted-Steinberg place(s)", TR, Q(-2),
                             _prof(*places), exp))
    rows5.append(GridRow("s=-2 trivial, real-place constituent and one finite", TR, Q(-2),
                         _prof(_arch(TR, st), _n(TR, st)), Expected(pole=1)))
    rows6 = (
        GridRow("s=-2 quadratic globally, one locally-trivial Steinberg place", QU, Q(-2),
                _prof(_arch(SGN), _n(TR, st)), Expected(pole=1)),
        GridRow("s=-2 quadratic globally, three locally-trivial Steinberg places", QU, Q(-2),
                _prof(_arch(SGN), _n(TR, st), _n(TR, st), _n(TR, st)), Expected(pole=3)),
        GridRow("s=-2 quadratic globally, quadratic places stay inert", QU, Q(-2),
                _prof(_arch(SGN), _n(TR, st), _n(QU)), Expected(pole=1)),
    )
    rows7 = (
        GridRow("s=-4 trivial, non-Langlands real constituent", TR, Q(-4),
                _prof(_arch(TR, "carrier")),
                Expected(pole=1, images=((0, "L(delta*nu^(5/2),3;1)", "irreducible"),))),
        GridRow("s=-4 trivial, spherical", TR, Q(-4), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-3 trivial (no parity match)", TR, Q(-3), _prof(_arch()), Expected(pole=0)),
        GridRow("s=-3 quadratic with sgn at the real place", QU, Q(-3),
                _prof(_arch(SGN, "carrier")), Expected(pole=1)),
        GridRow("s=-7/2 infinite-order class", OT, Q(-7, 2), _prof(_arch(OT)), Expected(pole=0)),
    )
    return [
        Clause("clause-1", "-1<s<0: holomorphic, the irreducible module embeds", rows1),
        Clause("clause-2", "s=-1 with a nontrivial class: holomorphic embedding", rows2),
        Clause("clause-3", "s=-1 with the trivial class: the constant term vanishes identically", rows3),
        Clause("clause-4", "-2<s<-1: possible pole of the order of the strip zero of the "
               "shared denominator; embedding after normalization", rows4),
        Clause("clause-5", "s=-2 trivial: k twisted-Steinberg choices give a pole of order k-1; "
               "ramified images irreducible, unramified of length two", tuple(rows5)),
        Clause("clause-6", "s=-2 with a quadratic global class: each locally-trivial "
               "Steinberg place raises the order by one", rows6),
        Clause("clause-7", "s<-2: poles only from the real place at parity-matched integers, "
               "on the non-Langlands constituent", rows7),
    ]


def _siegel_nonneg() -> list[Clause]:
    rows1 = (
        GridRow("s=1 trivial", TR, Q(1), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
        GridRow("s=9/4 trivial", TR, Q(9, 4), _prof(_arch()), Expected(pole=0)),
        GridRow("s=1 quadratic", QU, Q(1), _prof(_arch()), Expected(pole=0)),
        GridRow("s=2 quadratic", QU, Q(2), _prof(_arch(SGN)), Expected(pole=0)),
        GridRow("s=1/2 infinite-order class", OT, Q(1, 2), _prof(_arch(OT)), Expected(pole=0)),
        GridRow("s=3/4 infinite-order class", OT, Q(3, 4), _prof(_arch(OT)), Expected(pole=0)),
    )
    rows2 = (
        GridRow("s=1/2 trivial, spherical", TR, Q(1, 2), _prof(_arch()),
                Expected(pole=1, images=((0, "L(nu^1;nu^0x1)", "spherical"),))),
        GridRow("s=1/2 trivial, tempered constituent kills the polar part", TR, Q(1, 2),
                _prof(_arch(), _n(TR, "t2")), Expected(pole=0)),
    )
    rows3 = (
        GridRow("s=1/2 quadratic, one tempered-minus place", QU, Q(1, 2),
                _prof(_arch(), _n(QU, "t2")),
                Expected(pole=0, images=((1, "L(chi*nu^1;T2)", "irreducible"),))),
        GridRow("s=1/2 quadratic, two tempered-minus places", QU, Q(1, 2),
                _prof(_arch(), _n(QU, "t2"), _n(QU, "t2")),
                Expected(pole=1, images=((1, "L(chi*nu^1;T2)", "irreducible"),
                                         (2, "L(chi*nu^1;T2)", "irreducible")))),
        GridRow("s=1/2 quadratic, spherical quadratic place rides along", QU, Q(1, 2),
                _prof(_arch(), _n(QU, "t2"), _n(QU, "t2"), _n(QU)),
                Expected(pole=1, images=((3, "L(chi*nu^1;T1)", "spherical"),))),
        GridRow("s=1/2 quadratic, sgn-place parity counts", QU, Q(1, 2),
                _prof(_arch(SGN, "t2"), _n(QU, "t2")), Expected(pole=1)),
    )
    return [
        Clause("clause-1", "s>=0 away from (1/2, chi quadratic): holomorphic, full embedding", rows1),
        Clause("clause-2", "s=1/2 trivial: first-order pole realizing the spherical "
               "constituent; non-spherical sections see no pole", rows2),
        Clause("clause-3", "s=1/2 quadratic: even tempered-minus parity gives the pole and the "
               "T2/T1 realization, odd parity is holomorphic with full embedding", rows3),
    ]


def _siegel_neg() -> list[Clause]:
    st = "steinberg"
    rows1 = (
        GridRow("s=-1/4 trivial", TR, Q(-1, 4), _prof(_arch()),
                Expected(conditional_symbol="L(2s+1,1)",
                         images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-1/4 quadratic", QU, Q(-1, 4), _prof(_arch()),
                Expected(conditional_symbol="L(2s+1,1)")),
        GridRow("s=-1/4 infinite-order class", OT, Q(-1, 4), _prof(_arch(OT)),
                Expected(conditional_symbol="L(2s+1,chi^2)")),
    )
    rows2 = (
        GridRow("s=-1/2 trivial, three tempered choices", TR, Q(-1, 2),
                _prof(_arch(), _n(TR, "t2"), _n(TR, "t2"), _n(TR, "t2")),
                Expected(pole=1, images=((1, "T2", "irreducible"),
                                         (0, "L(nu^1;nu^0x1)", "length-two")))),
        GridRow("s=-1/2 trivial, four tempered choices", TR, Q(-1, 2),
                _prof(_arch(), _n(TR, "t2"), _n(TR, "t2"), _n(TR, "t2"), _n(TR, "t2")),
                Expected(pole=2)),
        GridRow("s=-1/2 infinite-order class", OT, Q(-1, 2), _prof(_arch(OT)),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
    )
    rows3 = (
        GridRow("s=-1 trivial", TR, Q(-1), _prof(_arch()),
                Expected(conditional_symbol="L(s+3/2,1)",
                         images=(("all", "full-induced", "embedding"),))),
        GridRow("s=-5/4 trivial", TR, Q(-5, 4), _prof(_arch()),
                Expected(conditional_symbol="L(s+3/2,1)")),
        GridRow("s=-1 quadratic", QU, Q(-1), _prof(_arch()),
                Expected(conditional_symbol="L(s+3/2,chi)")),
        GridRow("s=-1 infinite-order class", OT, Q(-1), _prof(_arch(OT)),
                Expected(conditional_symbol="L(s+3/2,chi)")),
    )
    rows4 = [
        GridRow("s=-3/2 trivial, spherical", TR, Q(-3, 2), _prof(_arch()), Expected(pole=0)),
        GridRow("s=-3/2 trivial, one non-spherical place", TR, Q(-3, 2),
                _prof(_arch(), _n(TR, st)), Expected(pole=0)),
        GridRow("s=-3/2 trivial, two non-spherical places", TR, Q(-3, 2),
                _prof(_arch(), _n(TR, st), _n(TR, st)),
                Expected(pole=1, images=((1, "L(nu^2;St_SL2)", "irreducible"),))),
        GridRow("s=-3/2 trivial, three non-spherical places", TR, Q(-3, 2),
                _prof(_arch(), _n(TR, st), _n(TR, st), _n(TR, st)), Expected(pole=2)),
        GridRow("s=-3/2 sgn at the real place", QU, Q(-3, 2),
                _prof(_arch(SGN, "carrier")), Expected(pole=1)),
        GridRow("s=-3/2 infinite-order class", OT, Q(-3, 2), _prof(_arch(OT)),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
    ]
    rows5 = (
        GridRow("s=-5/2 trivial, non-Langlands real constituent", TR, Q(-5, 2),
                _prof(_arch(TR, "carrier")),
                Expected(pole=1, images=((0, "maxsub(nu^(5/2)1_GL2x1)", "irreducible"),))),
        GridRow("s=-5/2 trivial, Langlands constituent", TR, Q(-5, 2),
                _prof(_arch(TR, "langlands")),
                Expected(pole=0, images=((0, "L(nu^3,nu^2;1)", "irreducible"),))),
        GridRow("s=-5/2 sgn, non-Langlands real constituent", QU, Q(-5, 2),
                _prof(_arch(SGN, "carrier")), Expected(pole=1)),
        GridRow("s=-5/2 infinite-order class", OT, Q(-5, 2), _prof(_arch(OT)), Expected(pole=0)),
        GridRow("s=-11/4 trivial (s+-1/2 not integral)", TR, Q(-11, 4), _prof(_arch()),
                Expected(pole=0, images=(("all", "full-induced", "embedding"),))),
    )
    return [
        Clause("clause-1", "-1/2<s<0: possible pole of the order of the strip zero of the "
               "squared-character denominator; full embedding", rows1),
        Clause("clause-2", "s=-1/2: tempered choices at locally-trivial places stack up poles "
               "of every order (two factor zeros offset the first two)", rows2),
        Clause("clause-3", "-3/2<s<-1/2: possible pole from the strip zero of the shared "
               "denominator; full embedding", rows3),
        Clause("clause-4", "s=-3/2: k non-spherical choices give a pole of order k-1 with "
               "the twisted-Steinberg image; nontrivial classes stay holomorphic", tuple(rows4)),
        Clause("clause-5", "s<-3/2: poles only from the real place at half-integers of "
               "matching parity, away from the Langlands constituent", rows5),
    ]


# id -> (case, grid builder); the sign names the halfplane of the grid
THEOREMS: dict[str, tuple[str, callable]] = {
    "H+": ("heisenberg", _heisenberg_nonneg),
    "H-": ("heisenberg", _heisenberg_neg),
    "S+": ("siegel", _siegel_nonneg),
    "S-": ("siegel", _siegel_neg),
}


def theorem_ids() -> list[str]:
    return list(THEOREMS)


def verify_theorem(theorem_id: str, rules: RuleTable | None = None) -> TheoremReport:
    """Run every grid row of one theorem and collect pass/fail results."""
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}; expected one of {list(THEOREMS)}")
    case, build = THEOREMS[theorem_id]
    clauses = build()
    results: list[RowResult] = []
    for clause in clauses:
        for row in clause.rows:
            report = eisenstein_order(case, row.profile, row.s0, row.cls, rules=rules)
            problems = _check_row(report, row.expected)
            results.append(RowResult(clause.key, row.label, not problems,
                                     row.expected, report, problems))
    return TheoremReport(theorem_id, list(clauses), results)
