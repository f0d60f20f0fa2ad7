"""The package's records: immutable, and equal on the fields that define them.

The records are NamedTuples.  Those that serve as cache keys must not
change after they are built: the class of the summand table ``summands``,
keyed on (case, class), and the class and point of the group memo
``_group_jets``, keyed on (case, member names, class, point).  A value
that follows from the fields, such as an affine form's integers, is a
property and takes no part in equality or hashing.  A rule row compares on
all its fields, the line it was read from included.
"""

from fractions import Fraction as Q
from math import lcm

import pytest

from sp4eis.characters import AffineForm, CharClass
from sp4eis.constant_term import Place, PlaceProfile, ProfileError
from sp4eis.germs import Leading, OrderValue, StripDep
from sp4eis.localrules import Condition, default_rules
from sp4eis.normfactor import L, LExpression, LSymbol, canonicalize
from sp4eis.numerics import table_for_modulus
from sp4eis.roots import SP4

RULES = default_rules()
FORM = AffineForm.of(Q(1, 2), Q(-3, 4))
SYMBOL = LSymbol(L, FORM, 1)
DEP = StripDep("L(s,1)", Q(1, 2), 1)

RECORDS = [
    (SP4.element_by_name("sc2s"), "perm", (0, 1)),
    (FORM, "a", Q(0)),
    (SYMBOL, "power", 0),
    (LExpression(((SYMBOL, 1),)), "factors", ()),
    (canonicalize(LExpression(((SYMBOL, 1),)), CharClass.QUADRATIC), "real", False),
    (Leading(1, 2, True, (("L", None, 3, 2, 1),)), "values", ()),
    (DEP, "coeff", -1),
    (OrderValue.conditional(1, (DEP,)), "base", 0),
    (Place("arch", CharClass.TRIVIAL), "choice", "steinberg"),
    (PlaceProfile.spherical(), "places", ()),
    (Condition.parse("int:1/2:odd:lt3"), "parity", 0),
    (RULES.poles[0], "order", 0),
    (RULES.actions[0], "line", 0),
    (table_for_modulus(4), "residues", ()),
]


@pytest.mark.parametrize("record, field, value", RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_a_field_cannot_be_assigned_or_deleted(record, field, value):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_a_profile_is_checked_when_it_is_built():
    with pytest.raises(ProfileError, match="exactly one archimedean place"):
        PlaceProfile((Place("nonarch", CharClass.TRIVIAL),))
    with pytest.raises(ProfileError, match="unknown section choice"):
        PlaceProfile((Place("arch", CharClass.TRIVIAL, "bogus"),))


def test_an_affine_form_carries_its_integers():
    for a in (Q(0), Q(1), Q(-3, 2), Q(5, 6)):
        for b in (Q(0), Q(-1, 2), Q(7, 4), Q(-5, 3)):
            form = AffineForm(a, b)
            num_a, num_b, d = form.ints
            assert d > 0 and Q(num_a, d) == a and Q(num_b, d) == b
            assert d == lcm(a.denominator, b.denominator)
            assert form == AffineForm(a, b) and hash(form) == hash(AffineForm(a, b))

