"""Golden tests for the six inverse normalizing factors and canonicalization."""

from fractions import Fraction as Q

import pytest

from sp4eis.characters import AffineForm, CharClass, heisenberg_lambda, siegel_lambda
from sp4eis.normfactor import (
    EPS, L, LExpression, LSymbol, canonicalize, inverse_norm_factor,
    quotient_factor, raw_quotient_factors,
)
from sp4eis.roots import SP4

SYS = SP4
TR, QU = CharClass.TRIVIAL, CharClass.QUADRATIC

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
    assert expr.as_dict() == {
        LSymbol(L, f(1, -1), 1): 1,
        LSymbol(L, f(1, 2), 1): -1,
        LSymbol(EPS, f(1, 0), 1): -1,
        LSymbol(EPS, f(1, 1), 1): -1,
        LSymbol(EPS, f(1, 2), 1): -1,
    }
    assert expr.scalar == 1


def test_identity_gives_empty_product():
    assert inverse_norm_factor(_lambda("heisenberg"), SYS.identity()) == LExpression.one()
    assert inverse_norm_factor(_lambda("siegel"), SYS.identity()).render() == "1"


def test_factor_count_matches_length():
    for case in ("heisenberg", "siegel"):
        for w in SYS.elements():
            factors = raw_quotient_factors(_lambda(case), w)
            assert len(factors) == w.length


def test_factor_data_matches_coroot_compositions():
    # the multiset of (power, exponent) pairs behind the product equals the
    # compositions of the inducing character with the negated coroots
    from collections import Counter
    from sp4eis.characters import compose_coroot
    for case in ("heisenberg", "siegel"):
        lam = _lambda(case)
        for w in SYS.elements():
            used = Counter()
            for factor in raw_quotient_factors(lam, w):
                numerators = [sym for sym, e in factor.factors
                              if sym.kind == L and e > 0]
                assert len(numerators) == 1
                used[(numerators[0].power, numerators[0].arg)] += 1
            expected = Counter(
                compose_coroot(lam, SYS.coroot(a)) for a in SYS.negative_set(w))
            assert used == expected


def test_cancellation_in_products():
    f = AffineForm.of
    sym = LSymbol(L, f(1, 0), 1)
    e = LExpression.build(Q(1), {sym: 1})
    assert e * e.inverse() == LExpression.one()


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


def test_quotient_factor_shape():
    f = AffineForm.of
    e = quotient_factor(1, f(1, 0))
    assert e.render() == "L(s,chi) / (L(s+1,chi)*eps(s+1,chi))"


def test_render_with_powers_and_scalar():
    f = AffineForm.of
    sym = LSymbol(L, f(1, 0), 1)
    e = LExpression.build(Q(3, 2), {sym: 2})
    assert e.render() == "3/2*L(s,chi)^2"
    assert e.inverse().render() == "2/3*1 / L(s,chi)^2"


def test_scalar_zero_rejected():
    with pytest.raises(ValueError):
        LExpression.build(Q(0), {})
