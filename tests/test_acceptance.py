"""Acceptance suite: one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else: exact symbolic
equality for formulas, tables and grids; 1e-9 for the completed-zeta
closed form and reflection; 1e-8 for the numeric epsilon identity; slope
residual < 0.05 for the numeric order oracle.
"""

import math
from fractions import Fraction as Q

from sp4eis.characters import (
    AffineForm, CharClass, heisenberg_lambda, siegel_lambda,
)
from sp4eis.checks import (
    check_functional_equation, check_order_oracle, check_reflection, oracle_grid,
)
from sp4eis.constant_term import (
    Place, PlaceProfile, evaluate_group, eisenstein_order, same_target_groups,
    term_order, term_report,
)
from sp4eis.germs import OrderValue, apply_functional_equation, germ_at, order_at, sum_germs
from sp4eis.localrules import default_rules
from sp4eis.normfactor import EPS, L, LExpression, LSymbol, canonicalize, inverse_norm_factor
from sp4eis.numerics import completed_zeta
from sp4eis.roots import SP4, is_negative
from sp4eis.theorems import theorem_ids, verify_theorem

SYS = SP4
TR, QU, OT, SGN = (CharClass.TRIVIAL, CharClass.QUADRATIC,
                   CharClass.OTHER, CharClass.SGN)


def _report(n: int, text: str) -> None:
    print(f"[acceptance {n}] PASS: {text}")


def _expr(case, wname, cls=None):
    lam = heisenberg_lambda() if case == "heisenberg" else siegel_lambda()
    e = inverse_norm_factor(lam, SYS.element_by_name(wname))
    return canonicalize(e, cls)


# -- criterion 1: the six golden formulas ----------------------------------

def test_criterion_1_golden_formulas():
    golden = {
        ("heisenberg", "c1"):
            "L(s-1,chi) / (L(s+2,chi)*eps(s,chi)*eps(s+1,chi)*eps(s+2,chi))",
        ("heisenberg", "s"):
            "L(s+1,chi) / (L(s+2,chi)*eps(s+2,chi))",
        ("heisenberg", "sc1"):
            "L(s,chi) / (L(s+2,chi)*eps(s+1,chi)*eps(s+2,chi))",
        ("siegel", "c2"):
            "L(s+1/2,chi) / (L(s+3/2,chi)*eps(s+3/2,chi))",
        ("siegel", "sc2"):
            "L(s+1/2,chi)*L(2s,chi^2) / "
            "(L(s+3/2,chi)*L(2s+1,chi^2)*eps(s+3/2,chi)*eps(2s+1,chi^2))",
        ("siegel", "c2sc2"):
            "L(s-1/2,chi)*L(2s,chi^2) / "
            "(L(s+3/2,chi)*L(2s+1,chi^2)*eps(s+1/2,chi)*eps(s+3/2,chi)*eps(2s+1,chi^2))",
    }
    for (case, wname), expected in golden.items():
        got = canonicalize(_expr(case, wname)).render()
        assert got == expected, f"{case}/{wname}: {got}"
    _report(1, "all six inverse normalizing factors match exactly")


# -- criterion 2: coset sets ------------------------------------------------

def test_criterion_2_coset_sets():
    a1, a2 = SYS.simple_roots()
    heis = SYS.coset_reps([a2])
    assert {w.name for w in heis} == {"id", "sc2s", "s", "c2s"}
    assert sorted(w.length for w in heis) == [0, 1, 2, 3]
    sieg = SYS.coset_reps([a1])
    assert [w.name for w in sieg] == ["id", "c2", "sc2", "c2sc2"]
    # brute-force filter over all eight elements agrees
    assert heis == [w for w in SYS.elements()
                    if not is_negative(w.apply(a2))]
    assert sieg == [w for w in SYS.elements()
                    if not is_negative(w.apply(a1))]
    _report(2, "coset representatives {1,c1,s,sc1} and {id,c2,sc2,c2sc2} "
               "agree with the brute-force filter")


# -- criterion 3: normalization pole tables ---------------------------------

def test_criterion_3_pole_tables():
    rc1, rs, rsc1 = (_expr("heisenberg", w, TR) for w in ("c1", "s", "sc1"))
    assert order_at(rc1, TR, Q(1)) == OrderValue.known(-1)
    assert order_at(rc1, TR, Q(2)) == OrderValue.known(-1)
    assert order_at(rs, TR, Q(0)) == OrderValue.known(-1)
    assert order_at(rsc1, TR, Q(0)) == OrderValue.known(-1)
    assert order_at(rsc1, TR, Q(1)) == OrderValue.known(-1)
    for cls in (QU, OT):
        for wname in ("c1", "s", "sc1"):
            e = _expr("heisenberg", wname, cls)
            for s8 in range(-32, 33):
                s0 = Q(s8, 8)
                ov = order_at(e, cls, s0)
                if -2 < s0 < -1:
                    assert not ov.is_known and ov.may_be_negative()
                else:
                    assert ov.definitely_nonnegative()
    # Siegel normalizations
    assert order_at(_expr("siegel", "c2", TR), TR, Q(1, 2)) == OrderValue.known(-1)
    for wname in ("sc2", "c2sc2"):
        assert order_at(_expr("siegel", wname, TR), TR, Q(1, 2)) == OrderValue.known(-2)
        assert order_at(_expr("siegel", wname, QU), QU, Q(1, 2)) == OrderValue.known(-1)
    _report(3, "pole-order tables of all six factors reproduced exactly "
               "(including the strip-conditional window -2<s<-1)")


# -- criterion 4: theorem grids ----------------------------------------------

def test_criterion_4_theorem_grids():
    total = 0
    for tid in theorem_ids():
        report = verify_theorem(tid)
        assert report.passed, "\n".join(report.render_lines())
        total += len(report.rows)
    _report(4, f"all four theorem grids pass ({total} scenario rows)")


# -- criterion 5: the epsilon identity ----------------------------------------

def test_criterion_5_eps_identity():
    f = AffineForm.of
    # the product of the two rewritten functional equations:
    # [L(1-s,chi)/L(s,chi)] * [L(-s,chi)/L(1+s,chi)]
    e = LExpression.build(Q(1), {
        LSymbol(L, f(-1, 1), 1): 1, LSymbol(L, f(-1, 0), 1): 1,
        LSymbol(L, f(1, 0), 1): -1, LSymbol(L, f(1, 1), 1): -1,
    })
    rewritten = apply_functional_equation(e, QU)
    assert rewritten.as_dict() == {
        LSymbol(EPS, f(1, 0), 1): 1, LSymbol(EPS, f(1, 1), 1): 1,
    }, "the L-values cancel, leaving eps(s,chi)*eps(s+1,chi)"
    assert (order_at(rewritten, QU, Q(0)), germ_at(rewritten, QU, Q(0)).render()) == \
        (OrderValue.known(0), "1")
    # numeric confirmation for the quadratic character mod 4, to 1e-8
    rows = check_functional_equation(4)
    eps_row = [r for r in rows if r.name == "eps-pair-identity-mod-4"][0]
    assert eps_row.ok, eps_row.render()
    _report(5, "eps(s,chi)eps(s+1,chi)=1 derived symbolically at s=0 and "
               f"confirmed numerically ({eps_row.measured} < 1e-8)")


# -- criterion 6: cancellation -------------------------------------------------

def test_criterion_6_cancellations():
    # short-element pair at the Heisenberg origin
    rs = _expr("heisenberg", "s", TR)
    rsc1 = _expr("heisenberg", "sc1", TR)
    out = sum_germs([(rs, Q(1)), (rsc1, Q(1))], TR, Q(0))
    assert out.order == OrderValue.known(0)
    assert out.leading.render() == "2*Lam_c*Lam(2)^-1"
    assert out.leading.certified_nonzero()
    # numeric limit of the completed-zeta pair: finite and nonzero
    # (offsets stay above 1e-5: below that the floating-point image of
    # 1 +- t spoils the exact pole cancellation)
    t = 1e-5
    limit = completed_zeta(t) + completed_zeta(-t)
    assert abs(limit) > 0.5
    drift = abs((completed_zeta(10 * t) + completed_zeta(-10 * t)) - limit)
    assert drift < 1e-4
    # Siegel half-point, odd parity: the grouped pole cancels exactly
    rules = default_rules()
    groups = same_target_groups("siegel", Q(1, 2), QU)
    pair = [g for g in groups if len(g) == 2][0]
    odd = PlaceProfile((Place("arch", TR), Place("nonarch", QU, "t2")))
    g_odd = evaluate_group("siegel", [term_report("siegel", odd, w, Q(1, 2), QU, rules)
                                      for w in pair], odd, Q(1, 2), QU, rules)
    assert g_odd.order == OrderValue.known(0) and g_odd.cancelled
    even = PlaceProfile((Place("arch", TR), Place("nonarch", QU, "t2"),
                         Place("nonarch", QU, "t2")))
    g_even = evaluate_group("siegel", [term_report("siegel", even, w, Q(1, 2), QU, rules)
                                       for w in pair], even, Q(1, 2), QU, rules)
    assert g_even.order == OrderValue.known(-1)
    # the vanishing of the bracket is exact of order one
    f = AffineForm.of
    bracket = sum_germs([
        (LExpression.build(Q(1), {LSymbol(L, f(-1, Q(1, 2)), 1): 1}), Q(1)),
        (LExpression.build(Q(1), {LSymbol(L, f(1, Q(-1, 2)), 1): 1}), Q(-1)),
    ], QU, Q(1, 2))
    assert bracket.order == OrderValue.known(1)
    _report(6, "pole cancellations verified: short pair at the origin "
               "(order 0, nonzero), numeric limit nonzero, odd-parity "
               "grouped pole cancels exactly")


# -- criterion 7: numeric oracle agreement --------------------------------------

def test_criterion_7_numeric_oracle():
    assert len(oracle_grid()) >= 30
    rows = check_order_oracle()
    bad = [r for r in rows if not r.ok]
    assert not bad, "\n".join(r.render() for r in bad)
    assert abs(completed_zeta(2.0) - math.pi / 6) < 1e-9
    refl = check_reflection()[0]
    assert refl.ok, refl.render()
    _report(7, f"{len(rows)} (expression, point) pairs: slope-fitted order equals "
               "the symbolic order, residual < 0.05; reflection and closed form hold")


# -- criterion 8: structural properties -----------------------------------------

def test_criterion_8_structural():
    elements = SYS.elements()
    assert len(elements) == 8
    for g in ("s", "c2"):
        assert SYS.multiply(SYS.generator(g), SYS.generator(g)).is_identity()
    sc2 = SYS.multiply(SYS.generator("s"), SYS.generator("c2"))
    p = sc2
    for _ in range(3):
        assert not p.is_identity()
        p = SYS.multiply(p, sc2)
    assert p.is_identity()
    for w in elements:
        assert len(SYS.negative_set(w)) == w.length
    # combined order never drops below the minimum live term order
    profiles = [
        PlaceProfile.spherical(),
        PlaceProfile((Place("arch", TR), Place("nonarch", TR, "steinberg"))),
        PlaceProfile((Place("arch", TR), Place("nonarch", QU, "t2"))),
    ]
    from sp4eis.constant_term import coset_representatives
    checked = 0
    for case in ("heisenberg", "siegel"):
        for prof in profiles:
            for s0 in (Q(0), Q(1, 2), Q(1), Q(2), Q(-1), Q(-2), Q(-3, 2), Q(3)):
                for cls in (TR, QU):
                    try:
                        r = eisenstein_order(case, prof, s0, cls)
                    except Exception:
                        continue
                    if not r.combined_order.is_known:
                        continue
                    floors = [g.order.base for g in r.groups
                              if not g.kernel_killed and g.order is not None]
                    assert r.combined_order.base >= min(floors)
                    term_orders = [term_order(case, prof, w, s0, cls)
                                   for w in coset_representatives(case)]
                    known_terms = [t.base for t in term_orders if t.is_known]
                    if known_terms:
                        assert r.combined_order.base >= min(known_terms)
                    checked += 1
    assert checked > 50
    _report(8, f"Weyl axioms, length = |negative set|, and order monotonicity "
               f"hold ({checked} grid points)")
