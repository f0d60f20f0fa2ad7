"""Numeric layer: zeta, Dirichlet L, gamma, order estimation."""

import math
from fractions import Fraction as Q
from functools import cache, partial

import pytest

from sp4eis import numerics
from sp4eis.characters import AffineForm, CharClass, coset_representatives, heisenberg_lambda
from sp4eis.constant_term import factor_expression
from sp4eis.normfactor import L, Canonical, LExpression, LSymbol, canonicalize, inverse_norm_factor
from sp4eis.numerics import (
    IM_LIMIT, QUADRATIC_DISCRIMINANTS, RE_MIN, ZETA_M, NotEvaluable,
    NumericsError, PoleProximity, _em_coefficients, bernoulli_numbers, completed_dirichlet,
    completed_zeta, dirichlet_l, estimate_order, eval_expression, gamma, hurwitz_zeta,
    kronecker_symbol, table_for_modulus, zeta_direct, zeta_em,
)
from sp4eis.roots import SP4

TR, QU, OT = CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER
CATALAN = 0.915965594177219015

SYS = SP4


def test_bernoulli():
    b = bernoulli_numbers(9)
    assert b[0] == 1 and b[1] == Q(-1, 2) and b[2] == Q(1, 6)
    assert b[4] == Q(-1, 30) and b[6] == Q(1, 42) and b[8] == Q(-1, 30)
    assert b[3] == 0 and b[5] == 0


def test_em_coefficients_are_the_bernoulli_weights():
    b = bernoulli_numbers(2 * ZETA_M + 1)
    coeffs = _em_coefficients()
    assert len(coeffs) == ZETA_M == 22
    for k, c in enumerate(coeffs, start=1):
        assert c == float(b[2 * k]) / math.factorial(2 * k)


def test_gamma_values():
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-12
    assert abs(gamma(5.0) - 24.0) < 1e-10
    assert abs(gamma(-0.5) + 2 * math.sqrt(math.pi)) < 1e-10
    with pytest.raises(PoleProximity):
        gamma(-2.0)


def test_zeta_closed_forms():
    assert abs(zeta_em(2) - math.pi ** 2 / 6) < 1e-12
    assert abs(zeta_em(4) - math.pi ** 4 / 90) < 1e-12
    # classical special values on the real line
    assert abs(zeta_em(0) + 0.5) < 1e-12
    assert abs(zeta_em(-1) + Q(1, 12)) < 1e-12


def test_zeta_direct_agrees():
    for s in (2.5, 3.0, 3.5 + 1.0j, 4.0):
        assert abs(zeta_direct(s) - zeta_em(s)) < 1e-13
    with pytest.raises(NumericsError):
        zeta_direct(1.0)


def test_zeta_direct_refuses_points_past_the_imaginary_limit():
    # its truncation bound is proved only for |Im s| <= IM_LIMIT
    assert type(zeta_direct(complex(3.0, IM_LIMIT))) is complex
    for s in (complex(3.0, IM_LIMIT + 0.5), complex(3.0, -IM_LIMIT - 0.5)):
        with pytest.raises(NumericsError):
            zeta_direct(s)


def test_hurwitz():
    assert abs(hurwitz_zeta(2, 0.5) - math.pi ** 2 / 2) < 1e-12
    assert abs(hurwitz_zeta(3.0, 1.0) - zeta_em(3.0)) < 1e-13
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0)


def test_completed_zeta():
    assert abs(completed_zeta(2.0) - math.pi / 6) < 1e-9
    # exact reflection by construction, and true numerically at Re >= 1/2
    for s in (0.3, 0.3 + 2.0j, 0.45 - 5.0j):
        assert abs(completed_zeta(s) - completed_zeta(1 - s)) < 1e-9
    with pytest.raises(PoleProximity):
        completed_zeta(1.0 + 1e-12)
    with pytest.raises(PoleProximity):
        completed_zeta(1e-12)


def test_completed_zeta_reflects_without_reentry(monkeypatch):
    # a wrapper on the module name sees one call per value, also left of 1/2
    calls = []

    def counted(s):
        calls.append(s)
        return completed_zeta(s)

    monkeypatch.setattr(numerics, "completed_zeta", counted)
    value = numerics.completed_zeta(-0.5 + 1j)
    assert calls == [-0.5 + 1j]
    assert value == completed_zeta(1.5 - 1j)


def test_completed_zeta_residues():
    t = 1e-7
    assert abs(t * completed_zeta(1 + t) - 1.0) < 1e-5
    assert abs(t * completed_zeta(t) + 1.0) < 1e-5


def test_kronecker():
    # quadratic residues mod 5: 1 and 4
    assert [kronecker_symbol(5, n) for n in range(5)] == [0, 1, -1, -1, 1]
    assert [kronecker_symbol(-4, n) for n in range(1, 8, 2)] == [1, -1, 1, -1]
    assert kronecker_symbol(8, 3) == -1
    assert kronecker_symbol(12, 5) == -1
    # a negative n: (a|n) = (a|-1) (a|-n), where (a|-1) is the sign of a
    for a in range(-30, 31):
        for n in range(-30, 0):
            assert kronecker_symbol(a, n) == (-1 if a < 0 else 1) * kronecker_symbol(a, -n), (a, n)
    assert kronecker_symbol(-3, -1) == -1


def test_quadratic_tables():
    # each built-in table is a real primitive character by construction
    for q, d in QUADRATIC_DISCRIMINANTS.items():
        tbl = table_for_modulus(q)
        chi = tbl.values
        assert tbl.modulus == q == abs(d) and len(chi) == q
        units = [a for a in range(q) if math.gcd(a, q) == 1]
        assert all(chi[a] == 0 for a in range(q) if a not in units)
        assert all(chi[a] in (-1, 1) for a in units)
        assert all(chi[a * b % q] == chi[a] * chi[b] for a in range(q) for b in range(q))
        assert any(chi[a] == -1 for a in units)
        # a divisor m < q induces chi when chi is 1 on the units that are 1 mod m
        for m in range(1, q):
            if q % m == 0:
                assert any(chi[a] != 1 for a in units if a % m == 1 % m), (q, m)
        assert tbl.parity == (0 if d > 0 else 1) == (0 if chi[q - 1] == 1 else 1)
    with pytest.raises(ValueError):
        table_for_modulus(6)


def test_dirichlet_values():
    t4 = table_for_modulus(4)
    assert abs(dirichlet_l(t4, 1.0) - math.pi / 4) < 1e-12
    assert abs(dirichlet_l(t4, 2.0) - CATALAN) < 1e-12
    # completed value at an edge point is finite and nonzero
    assert abs(completed_dirichlet(t4, 1.0)) > 0.1


def test_completed_dirichlet_functional_equation():
    for q in (3, 4, 5, 8):
        tbl = table_for_modulus(q)
        vals = [completed_dirichlet(tbl, 1 - s) / completed_dirichlet(tbl, s)
                for s in (0.3, 1.7, 2.4)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-6
        assert abs(vals[0] - 1.0) < 1e-6  # real primitive: constant is 1


def test_euler_maclaurin_refuses_below_re_min():
    # the partial sum and its tail cancel there: zeta(-11) = 691/32760
    # came out as 3484.4
    with pytest.raises(NumericsError):
        zeta_em(-11)
    with pytest.raises(NumericsError):
        completed_dirichlet(table_for_modulus(4), -6.5)


@pytest.mark.parametrize("q", sorted(QUADRATIC_DISCRIMINANTS))
def test_completed_dirichlet_accurate_at_re_min(q):
    tbl = table_for_modulus(q)
    for im in (0.25, 3.0, IM_LIMIT):  # off the real axis: even characters have a trivial zero at -2
        s = complex(RE_MIN, im)
        assert abs(completed_dirichlet(tbl, s) / completed_dirichlet(tbl, 1 - s) - 1) < 1e-8


def test_trivial_zero_points_rejected():
    t4 = table_for_modulus(4)  # odd: gamma poles at s = -1, -3, ...
    with pytest.raises(PoleProximity):
        completed_dirichlet(t4, -1.0)
    t5 = table_for_modulus(5)  # even: gamma poles at s = 0, -2, ...
    with pytest.raises(PoleProximity):
        completed_dirichlet(t5, 0.0)
    assert abs(completed_dirichlet(t5, -1.0)) > 0  # fine for an even character


def test_estimate_order_basic():
    lam = heisenberg_lambda()
    rc1 = canonicalize(inverse_norm_factor(lam, SYS.element_by_name("c1")), TR)
    est = estimate_order(rc1, Q(2), completed_zeta)
    assert est.fitted == -1 and est.residual < 0.05
    est = estimate_order(rc1, Q(5), completed_zeta)
    assert est.fitted == 0 and est.residual < 0.05


@pytest.mark.parametrize("k", [145, -145, -400, 400])
def test_estimate_order_refuses_magnitudes_out_of_range(k):
    # zeta(s)^k near s = 1: past 1e280, past float range (k = 400), or
    # underflowing to 0, each is a NumericsError
    expr = Canonical.of(LExpression.build({LSymbol(L, AffineForm.of(1, 0), 0): k}), TR)
    with pytest.raises(NumericsError):
        estimate_order(expr, Q(1), completed_zeta)


def test_eval_expression_needs_table_for_quadratic():
    lam = heisenberg_lambda()
    rc1 = canonicalize(inverse_norm_factor(lam, SYS.element_by_name("c1")), QU)
    lval = partial(completed_dirichlet, table_for_modulus(4))
    with pytest.raises(NotEvaluable):
        eval_expression(rc1, 2.0, completed_zeta)
    with pytest.raises(NotEvaluable):
        eval_expression(canonicalize(rc1, OT), 2.0, completed_zeta, lval)
    v = eval_expression(rc1, 2.0, completed_zeta, lval)
    assert abs(v) > 0


def _quadratic_factors():
    """The quadratic-class factors of both constant terms, identity excluded."""
    return [factor_expression(case, w, QU) for case in ("heisenberg", "siegel")
            for w in coset_representatives(case) if w.length]


def test_shared_values_keep_tables_apart():
    # one zeta memo for two conductors at one point and an L memo each:
    # each conductor's values are its own, and they differ, so a memo
    # shared between the conductors would hand mod-4 values to mod 5
    zeta = cache(completed_zeta)
    s = 2.3 + 0.4j
    exprs = _quadratic_factors()
    assert exprs
    values = {}
    for q in (4, 5):
        lval = partial(completed_dirichlet, table_for_modulus(q))
        memo = cache(lval)
        values[q] = [eval_expression(expr, s, zeta, memo) for expr in exprs]
        assert values[q] == [eval_expression(expr, s, completed_zeta, lval) for expr in exprs]
    assert all(a != b for a, b in zip(values[4], values[5]))


def test_shared_values_are_computed_once():
    calls = []

    def counted(name, fn):
        def wrapper(s):
            calls.append((name, s))
            return fn(s)
        return wrapper

    lval = partial(completed_dirichlet, table_for_modulus(4))
    zeta, memo = cache(counted("zeta", completed_zeta)), cache(counted("L", lval))
    rows = [(expr, s0) for expr in _quadratic_factors() for s0 in (Q(5, 2), Q(-1, 2))]
    first = [estimate_order(expr, s0, zeta, memo) for expr, s0 in rows]
    assert calls and len(calls) == len(set(calls))  # no argument evaluated twice
    # zeta values left of 1/2 are asked for at the point completed_zeta
    # reflects to, so s and 1 - s share one value
    assert all(s.real >= 0.5 for name, s in calls if name == "zeta")
    before = len(calls)
    again = [estimate_order(expr, s0, zeta, memo) for expr, s0 in rows]
    assert len(calls) == before
    assert again == first == [estimate_order(expr, s0, completed_zeta, lval)
                              for expr, s0 in rows]
