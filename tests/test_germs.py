"""Order arithmetic, germ sums with cancellation, functional-equation rewrites."""

import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from sp4eis.characters import AffineForm, CharClass, heisenberg_lambda, siegel_lambda
from sp4eis.constant_term import (
    PlaceProfile, _common_factor, _group_jets, coset_representatives, eisenstein_order,
    factor_expression,
)
from sp4eis.germs import (
    ZETA_POLE_RESIDUES, DegenerateSymbol, FormalScalar, GermError, OrderValue, Series, StripDep,
    StripOrderUnknown, _classify, _value_atoms, apply_functional_equation, germ_at,
    known_part_series, order_at, sum_series, symbol_series,
)
from sp4eis.normfactor import (
    EPS, L, LExpression, LSymbol, canonicalize, inverse_norm_factor,
)
from sp4eis.roots import SP4

SYS = SP4
TR, QU, OT = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER


def _expr(case: str, wname: str, cls: CharClass) -> LExpression:
    lam = heisenberg_lambda() if case == "heisenberg" else siegel_lambda()
    return canonicalize(inverse_norm_factor(lam, SYS.element_by_name(wname)), cls)


def lsym(a, b, power=1, kind=L) -> LSymbol:
    return LSymbol(kind, AffineForm.of(a, b), power)


def expr_of(scalar, factors) -> LExpression:
    return LExpression.build(Q(scalar), factors)


def may_be_negative(ov: OrderValue) -> bool:
    return ov.base < 0 or any(d.coeff < 0 for d in ov.deps)


def definitely_nonnegative(ov: OrderValue) -> bool:
    return ov.base >= 0 and all(d.coeff > 0 for d in ov.deps)


def full_depth_sum(terms: list, cls: CharClass, s0: Q):
    """Order and leading coefficient of a weighted sum of expressions at s0,
    each expanded to its first-order jet."""
    return sum_series([(known_part_series(e, cls, s0), w) for e, w in terms])


def spherical_groups(case: str, s0: Q, cls: CharClass):
    """The engine's same-target groups of a spherical report, as elements."""
    report = eisenstein_order(case, PlaceProfile.spherical(), s0, cls)
    return [[SYS.element_by_name(name) for name in g.members] for g in report.groups]


# ---------------------------------------------------------------------------
# order_at: the normalization lemma tables
# ---------------------------------------------------------------------------

def test_orders_heisenberg_trivial():
    rc1 = _expr("heisenberg", "sc2s", TR)
    rs = _expr("heisenberg", "s", TR)
    rsc1 = _expr("heisenberg", "c2s", TR)
    assert order_at(rc1, TR, Q(1)) == OrderValue.known(-1)
    assert order_at(rc1, TR, Q(2)) == OrderValue.known(-1)
    assert order_at(rs, TR, Q(0)) == OrderValue.known(-1)
    assert order_at(rsc1, TR, Q(0)) == OrderValue.known(-1)
    assert order_at(rsc1, TR, Q(1)) == OrderValue.known(-1)
    # no other poles for s >= 0
    for s8 in range(0, 33):
        s0 = Q(s8, 8)
        for e in (rc1, rs, rsc1):
            ov = order_at(e, TR, s0)
            if (e, s0) not in ((rc1, Q(1)), (rc1, Q(2)), (rs, Q(0)),
                               (rsc1, Q(0)), (rsc1, Q(1))):
                assert not may_be_negative(ov), (e.render(), s0)


def test_orders_heisenberg_nontrivial_nonnegative():
    for cls in (QU, OT):
        for wname in ("sc2s", "s", "c2s"):
            e = _expr("heisenberg", wname, cls)
            for s8 in range(-32, 33):
                s0 = Q(s8, 8)
                ov = order_at(e, cls, s0)
                if -2 < s0 < -1:
                    assert may_be_negative(ov)
                    assert not ov.is_known
                else:
                    assert definitely_nonnegative(ov), (wname, cls, s0)


def test_strip_window_trivial():
    rc1 = _expr("heisenberg", "sc2s", TR)
    ov = order_at(rc1, TR, Q(-3, 2))
    assert not ov.is_known
    assert ov.base == 0
    assert len(ov.deps) == 1
    assert ov.deps[0].coeff == -1
    assert "L(s+2,1)" in ov.deps[0].symbol
    assert ov.deps[0].point == Q(1, 2)


def test_orders_siegel_normalizations():
    c2t = _expr("siegel", "c2", TR)
    sc2t = _expr("siegel", "sc2", TR)
    c2sc2t = _expr("siegel", "c2sc2", TR)
    assert order_at(c2t, TR, Q(1, 2)) == OrderValue.known(-1)
    assert order_at(sc2t, TR, Q(1, 2)) == OrderValue.known(-2)
    assert order_at(c2sc2t, TR, Q(1, 2)) == OrderValue.known(-2)
    for wname in ("sc2", "c2sc2"):
        e = _expr("siegel", wname, QU)
        assert order_at(e, QU, Q(1, 2)) == OrderValue.known(-1)
    assert order_at(_expr("siegel", "c2", QU), QU, Q(1, 2)) == OrderValue.known(0)


def test_siegel_strip_windows():
    # possible poles below zero come from strip zeros of the denominators
    c2 = _expr("siegel", "c2", TR)
    sc2 = _expr("siegel", "sc2", TR)
    for s16 in range(-40, 1):
        s0 = Q(s16, 16)
        in_c2 = Q(-3, 2) < s0 < Q(-1, 2)
        assert may_be_negative(order_at(c2, TR, s0)) == in_c2, s0
        in_sc2 = in_c2 or Q(-1, 2) < s0 < 0
        assert may_be_negative(order_at(sc2, TR, s0)) == in_sc2, s0


def test_order_multiplicativity_and_inversion():
    points = [Q(0), Q(1), Q(2), Q(-1), Q(-2), Q(5, 2)]
    exprs = [_expr("heisenberg", w, TR) for w in ("sc2s", "s", "c2s")]
    for e1 in exprs:
        for e2 in exprs:
            for s0 in points:
                o1, o2 = order_at(e1, TR, s0), order_at(e2, TR, s0)
                both = order_at(e1 * e2, TR, s0)
                assert both.base == o1.base + o2.base
                if o1.is_known and o2.is_known:
                    assert both.is_known
    for e in exprs:
        for s0 in points:
            ov = order_at(e, TR, s0)
            negated = OrderValue.conditional(
                -ov.base, [StripDep(d.symbol, d.point, -d.coeff) for d in ov.deps])
            assert order_at(e.inverse(), TR, s0) == negated


# ---------------------------------------------------------------------------
# germs
# ---------------------------------------------------------------------------

def test_germ_examples():
    rc1 = _expr("heisenberg", "sc2s", TR)
    assert (order_at(rc1, TR, Q(0)), germ_at(rc1, TR, Q(0))[1].render()) == (OrderValue.known(0), "1")

    # completed zeta at argument s+1 around 0: simple pole, residue +1
    e = expr_of(1, {lsym(1, 1, 0): 1})
    assert (order_at(e, TR, Q(0)), germ_at(e, TR, Q(0))[1].render()) == (OrderValue.known(-1), "1")

    e = expr_of(1, {lsym(1, 2, 1, EPS): 1})
    assert order_at(e, QU, Q(0)) == OrderValue.known(0)
    assert germ_at(e, QU, Q(0))[1].render() == "eps[quadratic](2)"


def _head_or_error(fn):
    try:
        return fn()
    except GermError as exc:
        return type(exc)


@settings(max_examples=400)
@given(kind=st.sampled_from((L, EPS)), power=st.integers(0, 2), a=st.integers(-2, 2),
       b2=st.integers(-6, 6), cls=st.sampled_from((TR, QU, OT)), s8=st.integers(-48, 48))
@example(kind=EPS, power=1, a=1, b2=1, cls=QU, s8=0)    # eps(1/2) of a self-dual class
@example(kind=EPS, power=1, a=-1, b2=2, cls=QU, s8=-4)  # eps right of 1/2
@example(kind=L, power=1, a=2, b2=-2, cls=QU, s8=12)    # self-dual L right of 1/2
@example(kind=L, power=1, a=1, b2=-2, cls=QU, s8=-8)    # self-dual L left of 1/2
@example(kind=L, power=2, a=-2, b2=0, cls=QU, s8=-4)    # chi^2 is trivial: a zeta pole
@example(kind=L, power=0, a=0, b2=2, cls=OT, s8=0)      # constant symbol at a pole
@example(kind=L, power=1, a=1, b2=0, cls=OT, s8=4)      # strip argument
def test_symbol_head_matches_series_head(kind, power, a, b2, cls, s8):
    sym = lsym(a, Q(b2, 2), power, kind)
    expr = expr_of(1, {sym: 1})
    s0 = Q(s8, 8)
    direct = _head_or_error(lambda: germ_at(expr, cls, s0))
    series = _head_or_error(lambda: symbol_series(sym, cls, s0))
    if series is StripOrderUnknown:
        order, leading = direct
        assert order.kind == "conditional" and leading is None
        assert order == order_at(expr, cls, s0)
        return
    if isinstance(series, type) or isinstance(direct, type):
        assert direct is series
        return
    order, leading = direct
    assert (order, order_at(expr, cls, s0), series.coeffs[0].terms) == \
        (OrderValue.known(series.ord), OrderValue.known(series.ord), leading.terms)


def _rebase_value(kind, eff, u0: Q, der: str, data: tuple, a: Q) -> Series:
    head = FormalScalar.monomial(_value_atoms(kind, eff, u0.numerator, u0.denominator))
    return Series(0, (head, FormalScalar.atom((der, data), a)))


def _rebase_l(cls: CharClass, u0: Q, a: Q) -> Series:
    # right of 1/2: L(x) = eps(1-x) L(1-x), expanded at the reflected point
    if cls.is_real and u0 > Q(1, 2):
        return _rebase_eps(cls, 1 - u0, -a) * _rebase_l(cls, 1 - u0, -a)
    return _rebase_value(L, cls, u0, "lder", (cls.value, str(u0)), a)


def _rebase_eps(cls: CharClass, u0: Q, a: Q) -> Series:
    # right of 1/2: eps(x) = eps(1-x)^-1
    if cls.is_real and u0 > Q(1, 2):
        return _rebase_eps(cls, 1 - u0, -a).inverse()
    return _rebase_value(EPS, cls, u0, "epsder", (cls.value, str(u0)), a)


def rebase_series(sym: LSymbol, cls: CharClass, s0: Q) -> Series:
    """The reference jet of one symbol: a self-dual value right of 1/2 is
    rebuilt from the jets at the reflected point by ``Series`` products and
    inverses, in ``Fraction`` arithmetic."""
    eff, n, m, site = _classify(sym, cls, s0.numerator, s0.denominator)
    if site == "strip":
        raise StripOrderUnknown(sym.render())
    a, u0 = sym.arg.a, Q(n, m)
    if site == "pole":
        return Series(-1, (FormalScalar.rational(ZETA_POLE_RESIDUES[n // m] / a),
                           FormalScalar.atom(("zconst", ()))))
    if eff is CharClass.TRIVIAL:
        if sym.kind == EPS:
            return Series(0, (FormalScalar.rational(1), FormalScalar.zero()))
        v, sign = (u0, 1) if u0 >= 1 - u0 else (1 - u0, -1)
        return _rebase_value(L, eff, u0, "zder", (str(v),), sign * a)
    return (_rebase_eps if sym.kind == EPS else _rebase_l)(eff, u0, a)


@settings(max_examples=500)
@given(kind=st.sampled_from((L, EPS)), power=st.integers(0, 2), a=st.integers(-2, 2),
       b4=st.integers(-12, 12), cls=st.sampled_from((TR, QU, OT, CharClass.SGN)),
       s8=st.integers(-48, 48))
@example(kind=EPS, power=1, a=1, b4=0, cls=QU, s8=14)   # eps right of 1/2
@example(kind=L, power=1, a=-2, b4=0, cls=QU, s8=-8)    # self-dual L right of 1/2
@example(kind=L, power=1, a=0, b4=8, cls=QU, s8=0)      # constant self-dual L right of 1/2
@example(kind=L, power=1, a=1, b4=0, cls=CharClass.SGN, s8=-4)  # self-dual L left of 1/2
@example(kind=L, power=0, a=-1, b4=0, cls=OT, s8=0)     # zeta pole at 0, negative slope
@example(kind=L, power=0, a=1, b4=-12, cls=TR, s8=0)    # zeta left of 1/2
def test_symbol_series_matches_the_rebase_reference(kind, power, a, b4, cls, s8):
    sym = lsym(a, Q(b4, 4), power, kind)
    s0 = Q(s8, 8)
    got = _head_or_error(lambda: symbol_series(sym, cls, s0))
    want = _head_or_error(lambda: rebase_series(sym, cls, s0))
    if isinstance(want, type):
        assert got is want
        return
    assert (got.ord, [c.terms for c in got.coeffs]) == (want.ord, [c.terms for c in want.coeffs])


# every symbol of the 24 canonical factor expressions (2 cases x 4 elements x 3 classes)
FACTOR_SYMBOLS = sorted({(sym, cls) for case in ("heisenberg", "siegel") for cls in (TR, QU, OT)
                         for w in coset_representatives(case)
                         for sym, _ in factor_expression(case, w, cls).factors},
                        key=lambda it: (it[0].sort_key(), it[1].value))


def _fraction_site(sym: LSymbol, eff: CharClass, u: Q) -> str:
    """The site of a symbol with argument u, decided in ``Fraction`` arithmetic."""
    if sym.kind == EPS:
        return "value"
    if 0 < u < 1:
        return "strip"
    if eff is CharClass.TRIVIAL and u in (0, 1):
        return "pole"
    return "value"


def _fraction_atoms(kind: str, eff: CharClass, u: Q) -> tuple:
    """The oriented value atoms, written with ``Fraction`` values and ``str``."""
    if eff is CharClass.TRIVIAL:
        return () if kind == EPS else ((("zval", (str(max(u, 1 - u)),)), 1),)
    if eff.is_real and u < Q(1, 2):
        v = (eff.value, str(1 - u))
        return ((("epsv", v), -1),) if kind == EPS else ((("epsv", v), 1), (("lval", v), 1))
    return ((("epsv" if kind == EPS else "lval", (eff.value, str(u))), 1),)


@settings(max_examples=300)
@given(st.fractions(min_value=-6, max_value=6, max_denominator=49))
@example(Q(0))
@example(Q(1, 2))
@example(Q(-3, 2))
def test_integer_site_and_atoms_equal_fraction_arithmetic(s0):
    p, q = s0.numerator, s0.denominator
    for sym, cls in FACTOR_SYMBOLS:
        eff, n, m, site = _classify(sym, cls, p, q)
        u = sym.arg.a * s0 + sym.arg.b
        assert m > 0 and Q(n, m) == u
        assert site == _fraction_site(sym, eff, u)
        assert (2 * n < m) == (u < Q(1, 2))
        if site == "value":
            assert _value_atoms(sym.kind, eff, n, m) == _fraction_atoms(sym.kind, eff, u)


def test_germ_refuses_strip():
    """A strip symbol leaves the order conditional and no leading term;
    its series is refused."""
    rc1 = _expr("heisenberg", "sc2s", TR)
    order, leading = germ_at(rc1, TR, Q(-3, 2))
    assert order == order_at(rc1, TR, Q(-3, 2))
    assert order.kind == "conditional" and leading is None
    (sym,) = [sym for sym, _ in rc1.factors if Q(*sym.arg.ratio(-3, 2)) == Q(1, 2)]
    with pytest.raises(StripOrderUnknown):
        symbol_series(sym, TR, Q(-3, 2))


def test_degenerate_constant_symbol():
    e = expr_of(1, {lsym(0, 1): 1})  # completed zeta pinned at its pole
    with pytest.raises(DegenerateSymbol):
        germ_at(e, TR, Q(7))


def test_sum_heisenberg_origin():
    rs = _expr("heisenberg", "s", TR)
    rsc1 = _expr("heisenberg", "c2s", TR)
    order, lead = full_depth_sum([(rs, Q(1)), (rsc1, Q(1))], TR, Q(0))
    assert order == OrderValue.known(0)
    assert lead.render() == "2*Lam_c*Lam(2)^-1"


def test_sum_at_one():
    rc1 = _expr("heisenberg", "sc2s", TR)
    rsc1 = _expr("heisenberg", "c2s", TR)
    order, lead = full_depth_sum([(rsc1, Q(1)), (rc1, Q(1))], TR, Q(1))
    assert order == OrderValue.known(0)
    assert lead.render() == "2*Lam_c*Lam(3)^-1"


def test_sum_with_zero_weight_is_identity():
    e = _expr("heisenberg", "s", TR)
    order, lead = full_depth_sum([(e, Q(1)), (e, Q(0))], TR, Q(0))
    assert order == order_at(e, TR, Q(0))
    assert lead.render() == germ_at(e, TR, Q(0))[1].render()


def test_sum_vanishing_at_minus_one():
    rs = _expr("heisenberg", "s", TR)
    assert (order_at(rs, TR, Q(-1)), germ_at(rs, TR, Q(-1))[1].render()) == (OrderValue.known(0), "-1")
    # the identity summand cancels the value exactly; the next Laurent
    # coefficient only involves the certified zeta constant
    order, lead = full_depth_sum([(LExpression.build(Q(1), {}), Q(1)), (rs, Q(1))], TR, Q(-1))
    assert order == OrderValue.known(1)
    assert lead.render() == "2*Lam_c"


def test_sum_with_opaque_tail_gives_floor_only():
    # 1 - r(c1)^-1 at 0: the values cancel exactly but the next coefficient
    # involves an opaque derivative atom, so only a floor is reported
    rc1 = _expr("heisenberg", "sc2s", TR)
    order, _ = full_depth_sum([(LExpression.build(Q(1), {}), Q(1)), (rc1, Q(-1))], TR, Q(0))
    assert not order.is_known
    assert order.base >= 1  # value vanishes at the point


def test_sum_refuses_strip():
    rc1 = _expr("heisenberg", "sc2s", TR)
    with pytest.raises(StripOrderUnknown):
        full_depth_sum([(LExpression.build(Q(1), {}), Q(1)), (rc1, Q(-1))], TR, Q(-3, 2))


def test_quadratic_bracket_exact_vanishing():
    # L(-s,chi) - L(s,chi) vanishes to first order at 0 with a certified
    # nonzero derivative coefficient
    plus = expr_of(1, {lsym(-1, 0): 1})
    minus = expr_of(1, {lsym(1, 0): 1})
    order, lead = full_depth_sum([(plus, Q(1)), (minus, Q(-1))], QU, Q(0))
    assert order == OrderValue.known(1)
    assert lead.render() == "-2*Lhat[quadratic]^(1)(0)"


def test_double_pole_cancellation_siegel():
    sc2 = _expr("siegel", "sc2", TR)
    c2sc2 = _expr("siegel", "c2sc2", TR)
    order, lead = full_depth_sum([(sc2, Q(1)), (c2sc2, Q(1))], TR, Q(1, 2))
    # the double poles cancel, a simple pole with a nonzero coefficient remains
    assert order == OrderValue.known(-1)
    assert lead.render() == "Lam_c*Lam(2)^-2"


def test_total_cancellation_floors_at_the_cap():
    e = _expr("heisenberg", "s", TR)
    order, lead = full_depth_sum([(e, Q(1)), (e, Q(-1))], TR, Q(0))
    assert lead is None
    # the jets cancel through both coefficients: a floor past them
    assert order == OrderValue.at_least(order_at(e, TR, Q(0)).base + 2)


# ---------------------------------------------------------------------------
# heads first, then whole jets, gives the answers of whole jets
# ---------------------------------------------------------------------------

CASE_CLASSES = [(case, cls) for case in ("heisenberg", "siegel") for cls in (TR, QU, OT)]
GRID = [Q(k, 8) for k in range(-48, 49)]


def _render(x):
    return None if x is None else x.render()


@pytest.mark.parametrize("case, cls", CASE_CLASSES, ids=lambda x: getattr(x, "value", x))
def test_singleton_germ_matches_full_depth(case, cls):
    checked = 0
    for w in coset_representatives(case):
        expr = factor_expression(case, w, cls)
        for s0 in GRID:
            if order_at(expr, cls, s0).deps:
                continue
            lazy = germ_at(expr, cls, s0)[1]
            order, lead = known_part_series(expr, cls, s0).leading()
            assert (order_at(expr, cls, s0), lazy.render(), lazy.certified_nonzero()) == \
                (OrderValue.known(order), lead.render(), lead.certified_nonzero()), (w.name, s0)
            checked += 1
    assert checked > 100


def deepening_sum(terms: list, cls: CharClass, s0: Q):
    """The reference: the weighted sum of the heads (``germ_at``) at the lowest
    order, and the whole first-order jets only while those heads cancel formally."""
    heads = [(germ_at(e, cls, s0), w) for e, w in terms]
    ord0 = min(order.base for (order, _), _ in heads)
    head = FormalScalar.zero()
    for (order, lead), w in heads:
        if order.base == ord0:
            head = head + lead.scale(w)
    if head.is_zero():
        return full_depth_sum(terms, cls, s0)
    return OrderValue.known(ord0) if head.certified_nonzero() else OrderValue.at_least(ord0), head


def test_group_sum_matches_full_depth():
    # every sign pattern, since the rule table weights members by +-1
    checked = 0
    for (case, cls), s0 in itertools.product(CASE_CLASSES, GRID):
        for group in spherical_groups(case, s0, cls):
            if len(group) == 1:
                continue
            exprs = [factor_expression(case, w, cls) for w in group]
            inv = _common_factor(exprs).inverse()
            rems = [e * inv for e in exprs]
            orders = [order_at(r, cls, s0).base for r in rems]
            _, jets = _group_jets(case, tuple(group), cls, s0)
            for signs in itertools.product((Q(1), Q(-1)), repeat=len(group) - 1):
                weights = (Q(1),) + signs
                lazy_order, lazy_lead = deepening_sum(list(zip(rems, weights)), cls, s0)
                full_order, full_lead = sum_series(list(zip(jets, weights)))
                lazy_cancelled = lazy_order.base > min(orders)
                full_cancelled = full_order.base > min(x.ord for x in jets)
                assert (lazy_order, _render(lazy_lead), lazy_cancelled) == \
                    (full_order, _render(full_lead), full_cancelled), \
                    ([w.name for w in group], s0, weights)
                checked += 1
    assert checked == 28  # 14 same-target pairs, two sign patterns each


# ---------------------------------------------------------------------------
# exact renders of atoms and scalars that the golden reports never print
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case, cls, group, weights, want_order, want_lead", [
    ("heisenberg", TR, ["id", "sc2s"], (1, -1), ">= 1", "2*Lam^(1)(2)*Lam(2)^-1"),
    ("siegel", TR, ["id", "c2sc2"], (1, 1), ">= 1", "4*Lam_c+2*Lam^(1)(3/2)*Lam(3/2)^-1"),
    ("siegel", QU, ["id", "c2sc2"], (1, 1), ">= 0", "1-eps[quadratic](1/2)"),
    ("siegel", QU, ["id", "c2sc2"], (1, -1), ">= 0", "1+eps[quadratic](1/2)"),
])
def test_floor_leading_terms_at_zero(case, cls, group, weights, want_order, want_lead):
    (members,) = [g for g in spherical_groups(case, Q(0), cls) if [w.name for w in g] == group]
    exprs = [factor_expression(case, w, cls) for w in members]
    inv = _common_factor(exprs).inverse()
    order, lead = full_depth_sum([(e * inv, Q(w)) for e, w in zip(exprs, weights)], cls, Q(0))
    assert (order.render(), lead.render()) == (want_order, want_lead)


@pytest.mark.parametrize("sym, cls, s0", [
    (lsym(1, 0, 0), TR, Q(1)),            # zeta pole
    (lsym(-1, 0, 0), TR, Q(0)),           # zeta pole at 0, negative slope
    (lsym(1, 0, 0), TR, Q(5, 2)),         # zeta value
    (lsym(1, 0, 0), TR, Q(-3)),           # zeta value, reflected
    (lsym(1, 0), QU, Q(-2)),              # self-dual L left of 1/2
    (lsym(1, 0), QU, Q(3)),               # self-dual L right of 1/2
    (lsym(1, 0, 1, EPS), QU, Q(1, 4)),    # eps left of 1/2
    (lsym(1, 0, 1, EPS), QU, Q(7, 4)),    # eps right of 1/2
    (lsym(1, 0, 1, EPS), TR, Q(1)),       # trivial eps
])
def test_symbol_series_has_the_requested_depth(sym, cls, s0):
    # every jet is first-order: two coefficients
    assert len(symbol_series(sym, cls, s0).coeffs) == 2


@pytest.mark.parametrize("sym, cls, s0, coeffs", [
    (lsym(1, 0, 0), TR, Q(1), ["1", "Lam_c"]),
    (lsym(1, 0, 0), TR, Q(2), ["Lam(2)", "Lam^(1)(2)"]),
    (lsym(1, 0, 1, EPS), QU, Q(1, 4), ["eps[quadratic](3/4)^-1", "eps[quadratic]^(1)(1/4)"]),
    (lsym(1, 0, 1, EPS), QU, Q(7, 4), [
        "eps[quadratic](7/4)", "eps[quadratic]^(1)(-3/4)*eps[quadratic](7/4)^2"]),
    (lsym(1, 0), QU, Q(1), [
        "Lhat[quadratic](1)",
        "-eps[quadratic]^(1)(0)*eps[quadratic](1)*Lhat[quadratic](1)"
        "-eps[quadratic](1)^-1*Lhat[quadratic]^(1)(0)",
    ]),
])
def test_symbol_series_renders(sym, cls, s0, coeffs):
    assert [c.render() for c in symbol_series(sym, cls, s0).coeffs] == coeffs


# ---------------------------------------------------------------------------
# functional equation
# ---------------------------------------------------------------------------

def test_fe_rewrite_example():
    e = expr_of(1, {lsym(-1, 0): 1})  # L(-s, chi)
    out = apply_functional_equation(e, QU)
    assert out.as_dict() == {lsym(1, 1): 1, lsym(1, 1, 1, EPS): 1}
    assert out.render() == "L(s+1,chi)*eps(s+1,chi)"


def test_fe_oriented_symbol_unchanged():
    e = expr_of(1, {lsym(1, 0): 1})
    assert apply_functional_equation(e) == e


def test_fe_idempotent():
    e = expr_of(1, {lsym(-1, 0): 1, lsym(-2, Q(1, 2)): 2, lsym(1, -5): 1})
    once = apply_functional_equation(e, QU)
    assert apply_functional_equation(once, QU) == once


def test_fe_derives_eps_pair_identity():
    # multiply the two rewrites L(1-s,chi)=eps(s,chi)L(s,chi) and
    # L(-s,chi)=eps(1+s,chi)L(1+s,chi): the L-values cancel and the product
    # of epsilon factors at s=0 is forced to be 1
    e = expr_of(1, {lsym(-1, 1): 1, lsym(-1, 0): 1, lsym(1, 0): -1, lsym(1, 1): -1})
    rewritten = apply_functional_equation(e, QU)
    assert rewritten.as_dict() == {lsym(1, 0, 1, EPS): 1, lsym(1, 1, 1, EPS): 1}
    assert (order_at(rewritten, QU, Q(0)), germ_at(rewritten, QU, Q(0))[1].render()) == \
        (OrderValue.known(0), "1")
    # and the original expression is exactly 1 at the point as well
    assert (order_at(e, QU, Q(0)), germ_at(e, QU, Q(0))[1].render()) == (OrderValue.known(0), "1")


def _order_signature(ov: OrderValue):
    # strip orders at u and 1-u agree (the functional equation has an
    # entire nonvanishing factor), so deps compare up to point reflection
    return (ov.kind, ov.base,
            tuple(sorted((d.coeff, min(d.point, 1 - d.point)) for d in ov.deps)))


def test_fe_preserves_orders():
    for cls in (TR, QU):
        e = expr_of(1, {lsym(-1, Q(1, 2)): 1, lsym(2, 1, 2): -1})
        out = apply_functional_equation(e, cls)
        for s8 in range(-16, 17):
            s0 = Q(s8, 8)
            assert _order_signature(order_at(e, cls, s0)) == \
                _order_signature(order_at(out, cls, s0))


def test_other_class_keeps_inverse_powers():
    e = expr_of(1, {lsym(-1, 0): 1})
    out = apply_functional_equation(e)  # no class: chi stays abstract
    assert out.as_dict() == {lsym(1, 1, -1): 1, lsym(1, 1, -1, EPS): 1}
