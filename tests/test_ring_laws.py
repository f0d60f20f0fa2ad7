"""Ring laws and canonical form of FormalScalar; identities of truncated Laurent Series."""

from functools import reduce

from hypothesis import given, strategies as st

from sp4eis.germs import FormalScalar, Series

# a few atoms of different kinds, including the self-dual eps(1/2) whose
# square reduces to 1
ATOMS = [
    ("zval", ("2",)),
    ("zder", ("1", "1")),
    ("lval", ("quadratic", "1")),
    ("epsv", ("quadratic", "1/2")),
]

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
monomials = st.dictionaries(st.sampled_from(ATOMS), st.integers(-2, 2), max_size=3) \
    .map(lambda d: tuple(d.items()))
scalars = st.dictionaries(monomials, coefficients, max_size=3).map(
    lambda d: reduce(FormalScalar.__add__,
                     (FormalScalar.monomial(m, c) for m, c in d.items()), FormalScalar.zero()))
nonzero_monomials = st.builds(FormalScalar.monomial, monomials, coefficients.filter(bool))


@st.composite
def series(draw):
    """A truncated series whose leading coefficient is an invertible monomial."""
    head = draw(nonzero_monomials)
    tail = draw(st.lists(scalars, max_size=3))
    return Series(draw(st.integers(-2, 2)), [head] + tail)


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


@given(scalars, scalars, coefficients, nonzero_monomials)
def test_ring_operations_stay_canonical(x, y, c, m):
    for out in (x + y, x - x, (x + y) - y, x * y, (x + y) * (x - y), -x, x.scale(c),
                m.inverse(), m * m.inverse(), m * m):
        assert_canonical(out)
    assert x + FormalScalar.zero() is x and x.scale(1) is x


@given(series())
def test_series_inverse_times_self_is_one(s):
    assert same_series(s.inverse() * s, Series.exact_one(len(s.coeffs)))


@given(series(), st.integers(-3, 3).filter(bool))
def test_series_power_is_repeated_product(s, e):
    base = s if e > 0 else s.inverse()
    assert same_series(s.power(e), reduce(Series.__mul__, [base] * abs(e)))


@given(st.lists(series(), min_size=1, max_size=4), st.randoms())
def test_series_add_ignores_term_order(items, rnd):
    shuffled = list(items)
    rnd.shuffle(shuffled)
    assert same_series(Series.add(items), Series.add(shuffled))
