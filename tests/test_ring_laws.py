"""Ring laws and canonical form of FormalScalar; identities of first-order jets (Series)."""

from functools import reduce

import pytest
from hypothesis import given, strategies as st

from sp4eis.germs import FormalScalar, IndeterminateLeading, Series, sum_series

# a few atoms of different kinds, including the self-dual eps(1/2) whose
# square reduces to 1
ATOMS = [
    ("zval", ("2",)),
    ("zder", ("1",)),
    ("lval", ("quadratic", "1")),
    ("epsv", ("quadratic", "1/2")),
]

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
monomials = st.dictionaries(st.sampled_from(ATOMS), st.integers(-2, 2), max_size=3) \
    .map(lambda d: tuple(d.items()))
scalars = st.dictionaries(monomials, coefficients, max_size=3).map(
    lambda d: reduce(FormalScalar.__add__,
                     (FormalScalar.monomial(m, c) for m, c in d.items()), FormalScalar()))
nonzero_monomials = st.builds(FormalScalar.monomial, monomials, coefficients.filter(bool))


@st.composite
def series(draw):
    """A first-order jet whose leading coefficient is an invertible monomial."""
    return Series(draw(st.integers(-2, 2)), [draw(nonzero_monomials), draw(scalars)])


ONE = Series(0, [FormalScalar.monomial(()), FormalScalar()])


@pytest.mark.parametrize("n", [0, 1, 3])
def test_a_jet_has_exactly_two_coefficients(n):
    with pytest.raises(ValueError):
        Series(0, [FormalScalar.monomial(())] * n)


def same_series(a: Series, b: Series) -> bool:
    return (a.ord, [c.terms for c in a.coeffs]) == (b.ord, [c.terms for c in b.coeffs])


@given(scalars, scalars, scalars)
def test_scalar_associativity(x, y, z):
    assert ((x + y) + z).terms == (x + (y + z)).terms
    assert ((x * y) * z).terms == (x * (y * z)).terms


@given(scalars, scalars)
def test_scalar_commutativity(x, y):
    assert (x + y).terms == (y + x).terms
    assert (x * y).terms == (y * x).terms


@given(scalars, scalars, scalars)
def test_scalar_distributivity(x, y, z):
    assert (x * (y + z)).terms == (x * y + x * z).terms


def assert_canonical(x: FormalScalar) -> None:
    """The form the trusting FormalScalar constructor relies on."""
    for m, c in x.terms.items():
        assert c != 0
        atoms = [a for a, _ in m]
        assert all(a1 < a2 for a1, a2 in zip(atoms, atoms[1:])), m
        for (kind, data), e in m:
            assert e != 0, m
            if kind == "epsv" and data[1] == "1/2" and data[0] != "other":
                assert e == 1, m


@given(scalars, scalars, nonzero_monomials)
def test_ring_operations_stay_canonical(x, y, m):
    for out in (x + y, x + (-x), (x + y) + (-y), x * y, (x + y) * (x + (-y)), -x,
                m.inverse(), m * m.inverse(), m * m):
        assert_canonical(out)
    assert x + FormalScalar() is x


@given(series(), series(), series())
def test_jet_product_is_commutative_associative_and_unital(a, b, c):
    assert same_series(a * b, b * a)
    assert same_series((a * b) * c, a * (b * c))
    assert same_series(a * ONE, a)


@given(series())
def test_series_inverse_times_self_is_one(s):
    assert same_series(s.inverse() * s, ONE)


def test_inverse_of_a_non_monomial_head_is_refused():
    two_terms = FormalScalar.monomial(()) + FormalScalar.atom(ATOMS[0])
    with pytest.raises(IndeterminateLeading):
        two_terms.inverse()
    with pytest.raises(IndeterminateLeading):
        Series(0, [FormalScalar(), FormalScalar.monomial(())]).inverse()


@given(series(), st.integers(-3, 3).filter(bool))
def test_series_power_is_repeated_product(s, e):
    base = s if e > 0 else s.inverse()
    assert same_series(s.power(e), reduce(Series.__mul__, [base] * abs(e)))


def signed_sum(terms: list) -> tuple:
    order, lead = sum_series(terms)
    return order, None if lead is None else lead.terms


@given(st.lists(st.tuples(series(), st.sampled_from((1, -1))), min_size=1, max_size=4),
       st.randoms())
def test_signed_sum_ignores_term_order(terms, rnd):
    shuffled = list(terms)
    rnd.shuffle(shuffled)
    assert signed_sum(terms) == signed_sum(shuffled)
