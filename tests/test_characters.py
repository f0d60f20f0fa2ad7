"""Torus characters, coroot composition, Weyl action."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from sp4eis.characters import (
    TARGETS, AffineForm, CharClass, compose_coroot, heisenberg_lambda, lambda_for_case,
    power_class, ratio_str, reduce_power, render_value, siegel_lambda, value_key, weyl_act,
)
from sp4eis.roots import SP4
from test_roots import product

SYS = SP4
TR, QU, OT = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER


def form(a, b) -> AffineForm:
    return AffineForm.of(a, b)


def test_heisenberg_lambda():
    lam = heisenberg_lambda()
    assert lam.coords == ((1, form(1, 0)), (0, form(0, -1)))


def test_siegel_lambda():
    lam = siegel_lambda()
    assert lam.coords == ((1, form(1, Q(-1, 2))), (1, form(1, Q(1, 2))))


def test_compose_with_coroots_heisenberg():
    lam = heisenberg_lambda()
    assert compose_coroot(lam, SYS.coroot((2, 0))) == (1, form(1, 0))
    assert compose_coroot(lam, SYS.coroot((1, -1))) == (1, form(1, 1))
    assert compose_coroot(lam, SYS.coroot((1, 1))) == (1, form(1, -1))
    assert compose_coroot(lam, SYS.coroot((0, 2))) == (0, form(0, -1))


def test_compose_with_coroots_siegel():
    lam = siegel_lambda()
    assert compose_coroot(lam, SYS.coroot((1, 1))) == (2, form(2, 0))
    assert compose_coroot(lam, SYS.coroot((0, 2))) == (1, form(1, Q(1, 2)))
    assert compose_coroot(lam, SYS.coroot((2, 0))) == (1, form(1, Q(-1, 2)))


def test_weyl_action_examples():
    lam = heisenberg_lambda()
    s = SYS.element_by_name("s")
    c2 = SYS.element_by_name("c2")
    assert weyl_act(s, lam).coords == ((0, form(0, -1)), (1, form(1, 0)))
    assert weyl_act(c2, lam).coords == ((1, form(1, 0)), (0, form(0, 1)))


def test_long_element_fixes_lambda_at_zero_for_quadratic():
    lam = heisenberg_lambda()
    c1 = SYS.element_by_name("sc2s")
    moved = weyl_act(c1, lam)
    assert value_key(moved.reduced(QU), Q(0)) == value_key(lam.reduced(QU), Q(0))
    assert value_key(moved.reduced(OT), Q(0)) != value_key(lam.reduced(OT), Q(0))
    assert value_key(moved.reduced(QU), Q(1)) != value_key(lam.reduced(QU), Q(1))


def test_weyl_act_is_group_action():
    lam = siegel_lambda()
    for w1 in SYS.elements():
        for w2 in SYS.elements():
            lhs = weyl_act(product(w1, w2), lam)
            rhs = weyl_act(w1, weyl_act(w2, lam))
            assert lhs == rhs


def test_weyl_act_compatible_with_coroots():
    lam = heisenberg_lambda()
    positive = SYS.negative_set(SYS.elements()[-1])  # the longest element
    for w in SYS.elements():
        (winv,) = [v for v in SYS.elements() if product(w, v).is_identity()]
        for alpha in positive:
            lhs = compose_coroot(weyl_act(w, lam), SYS.coroot(alpha))
            rhs = compose_coroot(lam, SYS.coroot(winv.apply(alpha)))
            assert lhs == rhs


def test_power_reduction():
    assert reduce_power(TR, 5) == 0
    assert reduce_power(QU, 2) == 0
    assert reduce_power(QU, -1) == 1
    assert reduce_power(OT, 2) == 2
    assert power_class(QU, 2) is TR
    assert power_class(QU, 3) is QU
    assert power_class(OT, 0) is TR
    assert power_class(OT, -1) is OT
    assert power_class(CharClass.SGN, 4) is TR


def test_lambda_for_case():
    assert lambda_for_case("heisenberg") == heisenberg_lambda()
    assert lambda_for_case("siegel") == siegel_lambda()
    with pytest.raises(ValueError):
        lambda_for_case("klingen")


def ratio(form: AffineForm, s0: Q) -> tuple[int, int]:
    """The form's value at s0 from its integers, as the point engine reads it:
    (A*p + B*q, D*q) at s0 = p/q in lowest terms."""
    A, B, D = form.ints
    return A * s0.numerator + B * s0.denominator, D * s0.denominator


@given(st.fractions(max_denominator=8), st.fractions(max_denominator=8),
       st.fractions(max_denominator=8))
def test_affine_arithmetic(a, b, s0):
    def at(form):
        return Q(*ratio(form, s0))

    f = AffineForm(a, b)
    assert at(-f) == -at(f)
    assert at(f.shift(1)) == at(f) + 1


@given(st.fractions(max_denominator=12) | st.just(Q(0)), st.fractions(max_denominator=12),
       st.fractions(max_denominator=16))
def test_affine_at_is_exact(a, b, s0):
    n, m = ratio(AffineForm(a, b), s0)
    assert type(n) is int and type(m) is int
    assert Q(n, m) == a * s0 + b


@given(st.fractions(max_denominator=12), st.fractions(max_denominator=12),
       st.fractions(max_denominator=16))
def test_affine_ratio_is_the_value(a, b, s0):
    f = AffineForm(a, b)
    A, B, D = f.ints
    assert (Q(A, D), Q(B, D)) == (a, b)
    n, m = ratio(f, s0)
    assert m > 0 and Q(n, m) == a * s0 + b
    assert ratio_str(n, m) == str(a * s0 + b)


@given(st.sampled_from(sorted(TARGETS)), st.sampled_from((TR, QU, OT)),
       st.fractions(min_value=-6, max_value=6, max_denominator=12))
def test_value_key_equality_is_fraction_equality(case, cls, s0):
    """Integer value keys group and render exactly as ``Fraction`` values do."""
    def fraction_key(target):
        return tuple((reduce_power(cls, k), form.a * s0 + form.b) for k, form in target.coords)

    targets = list(TARGETS[case].values())
    for t1 in targets:
        key = value_key(t1.reduced(cls), s0)
        chi = {0: "", 1: "chi*"}
        assert render_value(key) == "(" + ", ".join(
            f"{chi.get(k, f'chi^{k}*')}nu^{v}" for k, v in fraction_key(t1)) + ")"
        for t2 in targets:
            assert (key == value_key(t2.reduced(cls), s0)) == (fraction_key(t1) == fraction_key(t2))


def test_affine_render():
    assert form(1, 1).render() == "s+1"
    assert form(2, Q(1, 2)).render() == "2s+1/2"
    assert form(-1, 0).render() == "-s"
    assert form(0, -1).render() == "-1"
    assert form(1, Q(-3, 2)).render() == "s-3/2"
