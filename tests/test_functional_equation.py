"""The global functional equation as an exact oracle.

Langlands' functional equation E(s, f) = E(-s, M(w_long, s) f) links the
two half-planes (Langlands, LNM 544; Moeglin and Waldspurger, *Spectral
decomposition and Eisenstein series*, 1995).  Two consequences are
checked here, neither of which the engine states:

* per summand, symbolically: for each coset representative w, let w' be
  the representative whose target at -s, with chi -> chi^-1, equals w's
  target at s; then factor(w, s) = factor(w_long, s) * factor(w', -s)
  with chi -> chi^-1, once both sides are rewritten by the functional
  equations of L (``apply_functional_equation``) and of eps
  (eps(u, chi^k) eps(1-u, chi^-k) = 1);
* per report: with a spherical profile, the combined order at s0 minus
  the combined order at -s0 is the order of factor(w_long) at s0.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from sp4eis.characters import COSET_REPS, TARGETS, AffineForm, CharClass, TorusCharacter
from sp4eis.constant_term import PlaceProfile, eisenstein_order, factor_expression
from sp4eis.germs import order_at
from sp4eis.localrules import ARCH, LOCAL_CLASSES
from sp4eis.normfactor import EPS, LExpression, LSymbol, canonicalize
from test_germs import apply_functional_equation, multiply, one_minus

GLOBAL_CLASSES = tuple(LOCAL_CLASSES)
# each global class with every real-place class a character of that class can have
SPHERICAL = [(cls, PlaceProfile.spherical(a))
             for cls, by_kind in LOCAL_CLASSES.items() for a in by_kind[ARCH]]


def longest(case: str):
    return max(COSET_REPS[case], key=lambda w: w.length)


def reflect(form: AffineForm) -> AffineForm:
    """The form a*s + b at -s."""
    return AffineForm(-form.a, form.b)


def dual_target(target: TorusCharacter) -> TorusCharacter:
    """A target at -s with chi -> chi^-1."""
    return TorusCharacter(tuple((-k, reflect(f)) for k, f in target.coords))


def dual_factor(expr: LExpression) -> LExpression:
    """A factor at -s with chi -> chi^-1."""
    return LExpression.build({LSymbol(sym.kind, reflect(sym.arg), -sym.power): e
                              for sym, e in expr.factors})


def eps_reduced(expr: LExpression, cls: CharClass) -> LExpression:
    """eps(u, chi^k) = eps(1-u, chi^-k)^-1, applied toward the larger (u, k)."""
    d: dict[LSymbol, int] = {}
    for sym, e in expr.factors:
        refl = LSymbol(EPS, one_minus(sym.arg), -sym.power)
        if sym.kind == EPS and (sym.arg, sym.power) < (refl.arg, refl.power):
            sym, e = refl, -e
        d[sym] = d.get(sym, 0) + e
    return canonicalize(LExpression.build(d), cls)


def normal_form(expr: LExpression, cls: CharClass) -> LExpression:
    return eps_reduced(apply_functional_equation(expr, cls), cls)


@pytest.mark.parametrize("case", sorted(COSET_REPS))
@pytest.mark.parametrize("cls", GLOBAL_CLASSES, ids=str)
def test_factor_functional_equation_per_summand(case, cls):
    reps = COSET_REPS[case]
    for w in reps:
        (w_dual,) = [v for v in reps if dual_target(TARGETS[case][v]) == TARGETS[case][w]]
        lhs = factor_expression(case, w, cls)
        rhs = multiply(factor_expression(case, longest(case), cls),
                       canonicalize(dual_factor(factor_expression(case, w_dual, cls)), cls))
        assert normal_form(lhs, cls) == normal_form(rhs, cls), (w.name, w_dual.name)


@given(case=st.sampled_from(sorted(COSET_REPS)), spherical=st.sampled_from(SPHERICAL),
       s0=st.sampled_from([Q(k, 8) for k in range(1, 49)])
       | st.fractions(min_value=0, max_value=6, max_denominator=24).filter(lambda s: s > 0))
def test_combined_orders_obey_the_functional_equation(case, spherical, s0):
    cls, profile = spherical
    here = eisenstein_order(case, profile, s0, cls).combined_order
    there = eisenstein_order(case, profile, -s0, cls).combined_order
    long_factor = order_at(factor_expression(case, longest(case), cls), s0)
    if here.is_known and there.is_known and long_factor.is_known:
        assert here.base - there.base == long_factor.base
