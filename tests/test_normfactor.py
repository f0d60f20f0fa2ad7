"""Golden tests for the six inverse normalizing factors and canonicalization."""

import pytest

from sp4eis.characters import (
    AffineForm, CharClass, compose_coroot, heisenberg_lambda, siegel_lambda,
)
from sp4eis.normfactor import (
    EPS, L, Canonical, LExpression, LSymbol, canonicalize, inverse_norm_factor,
)
from sp4eis.roots import SP4
from test_germs import multiply

SYS = SP4
TR, QU, OT = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER

GOLDEN = {
    ("heisenberg", "sc2s"):
        "L(s-1,chi) / (L(s+2,chi)*eps(s,chi)*eps(s+1,chi)*eps(s+2,chi))",
    ("heisenberg", "s"):
        "L(s+1,chi) / (L(s+2,chi)*eps(s+2,chi))",
    ("heisenberg", "c2s"):
        "L(s,chi) / (L(s+2,chi)*eps(s+1,chi)*eps(s+2,chi))",
    ("siegel", "c2"):
        "L(s+1/2,chi) / (L(s+3/2,chi)*eps(s+3/2,chi))",
    ("siegel", "sc2"):
        "L(s+1/2,chi)*L(2s,chi^2) / (L(s+3/2,chi)*L(2s+1,chi^2)*eps(s+3/2,chi)*eps(2s+1,chi^2))",
    ("siegel", "c2sc2"):
        "L(s-1/2,chi)*L(2s,chi^2) / (L(s+3/2,chi)*L(2s+1,chi^2)*eps(s+1/2,chi)*eps(s+3/2,chi)*eps(2s+1,chi^2))",
}


def _lambda(case):
    return heisenberg_lambda() if case == "heisenberg" else siegel_lambda()


@pytest.mark.parametrize("case,wname", sorted(GOLDEN))
def test_golden_formulas(case, wname):
    w = SYS.element_by_name(wname)
    expr = inverse_norm_factor(_lambda(case), w)
    assert expr.render() == GOLDEN[(case, wname)]


def test_golden_formula_structure():
    # structural check of one formula, independent of the renderer
    w = SYS.element_by_name("sc2s")
    expr = inverse_norm_factor(heisenberg_lambda(), w)
    f = AffineForm.of
    assert dict(expr.factors) == {
        LSymbol(L, f(1, -1), 1): 1,
        LSymbol(L, f(1, 2), 1): -1,
        LSymbol(EPS, f(1, 0), 1): -1,
        LSymbol(EPS, f(1, 1), 1): -1,
        LSymbol(EPS, f(1, 2), 1): -1,
    }


def test_identity_gives_empty_product():
    assert inverse_norm_factor(_lambda("heisenberg"), SYS.element_by_name("id")) == LExpression.build({})
    assert inverse_norm_factor(_lambda("siegel"), SYS.element_by_name("id")).render() == "1"


def folded_factor(lam, w) -> LExpression:
    """The reference r^-1: one expression per negative root,
    L(e,chi^k) / (L(e+1,chi^k) eps(e+1,chi^k)), multiplied together from 1."""
    expr = LExpression.build({})
    for alpha in SYS.negative_set(w):
        k, e = compose_coroot(lam, SYS.coroot(alpha))
        expr = multiply(expr, LExpression.build({
            LSymbol(L, e, k): 1, LSymbol(L, e.shift(1), k): -1, LSymbol(EPS, e.shift(1), k): -1}))
    return expr


def test_one_pass_matches_the_per_root_fold():
    for case in ("heisenberg", "siegel"):
        lam = _lambda(case)
        for w in SYS.elements():
            assert inverse_norm_factor(lam, w) == folded_factor(lam, w), (case, w.name)


def test_trivial_class_drops_epsilons():
    w = SYS.element_by_name("sc2s")
    expr = canonicalize(inverse_norm_factor(_lambda("heisenberg"), w), TR)
    assert expr.render() == "L(s-1,1) / L(s+2,1)"
    assert all(sym.kind == L for sym, _ in expr.factors)


def test_quadratic_class_reduces_squares():
    w = SYS.element_by_name("sc2")
    expr = canonicalize(inverse_norm_factor(_lambda("siegel"), w), QU)
    assert expr.render() == \
        "L(2s,1)*L(s+1/2,chi) / (L(2s+1,1)*L(s+3/2,chi)*eps(s+3/2,chi))"


def test_compiling_refuses_an_unreduced_chi_power():
    """``Canonical.of`` compiles an expression as it stands, so a chi power
    its class reduces would be recorded as L(s, chi): it is refused, and
    ``canonicalize`` reduces it first."""
    expr = LExpression.build({LSymbol(L, AffineForm.of(1, 0), 2): 1})
    with pytest.raises(ValueError, match=r"L\(s,chi\^2\)"):
        Canonical.of(expr, QU)
    assert canonicalize(expr, QU).symbols == ((L, 0, 1, 0, 1, 1, None, "L(s,1)"),)
    assert Canonical.of(expr, OT).symbols == ((L, 2, 1, 0, 1, 1, OT, "L(s,chi^2)"),)


def test_render_with_powers_and_scalar():
    f = AffineForm.of
    sym = LSymbol(L, f(1, 0), 1)
    assert LExpression.build({sym: 2}).render() == "L(s,chi)^2"
    assert LExpression.build({sym: -2}).render() == "1 / L(s,chi)^2"
