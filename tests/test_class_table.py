"""Where each character class may occur: ``localrules.LOCAL_CLASSES``.

A global character of class g has at a place of kind k one of the local
classes the table lists under g and k: a trivial character is trivial at
every place, a quadratic one is nowhere of class ``other``, and a real
place's quadratic class is ``sgn``, which is no global class and has no
row.  Every (global class, place kind, local class) triple over
``CharClass`` is tried against a literal copy of the table, kept here
independently of the engine's, in the engine and on the command line.
"""

from fractions import Fraction as Q
from itertools import product

import pytest

from sp4eis.characters import CharClass
from sp4eis.cli import main
from sp4eis.constant_term import Place, PlaceProfile, ProfileError, eisenstein_order
from sp4eis.localrules import ARCH, LOCAL_CLASSES, NONARCH

TABLE = {
    "trivial": {"nonarch": ("trivial",), "arch": ("trivial",)},
    "quadratic": {"nonarch": ("trivial", "quadratic"), "arch": ("trivial", "sgn")},
    "other": {"nonarch": ("trivial", "quadratic", "other"),
              "arch": ("trivial", "sgn", "other")},
}
TRIPLES = list(product(CharClass, (NONARCH, ARCH), CharClass))


def allowed(cls: str, kind: str, local: str) -> bool:
    return cls in TABLE and local in TABLE[cls][kind]


def places(kind: str, local: CharClass) -> tuple[Place, ...]:
    """One place of ``kind`` with class ``local``, beside a trivial real place
    when it is nonarchimedean."""
    if kind == ARCH:
        return (Place(ARCH, local),)
    return Place(ARCH, CharClass.TRIVIAL), Place(NONARCH, local)


def test_the_table_is_stated_once_as_written_here():
    assert LOCAL_CLASSES == TABLE


def test_a_class_is_its_name():
    assert CharClass.__hash__ is str.__hash__
    assert [f"{c}" for c in CharClass] == [c.name.lower() for c in CharClass]
    assert {c: c for c in CharClass}["sgn"] is CharClass.SGN


@pytest.mark.parametrize("case", ["heisenberg", "siegel"])
@pytest.mark.parametrize("cls, kind, local", TRIPLES)
def test_engine_refuses_exactly_what_the_table_leaves_out(cls, kind, local, case):
    if allowed(cls, kind, local):
        report = eisenstein_order(case, PlaceProfile(places(kind, local)), Q(2), cls)
        assert report.char_class is cls
    else:
        with pytest.raises(ProfileError):
            eisenstein_order(case, PlaceProfile(places(kind, local)), Q(2), cls)


@pytest.mark.parametrize("cls, kind, local", TRIPLES)
def test_cli_refuses_exactly_what_the_table_leaves_out(capsys, cls, kind, local):
    given = [f"{p.kind}:{p.local_class}:spherical" for p in places(kind, local)]
    code = main(["poles", "--case", "heisenberg", "--char-class", str(cls), "--s0", "2",
                 "--place", *given])
    captured = capsys.readouterr()
    if allowed(cls, kind, local):
        assert (code, captured.err) == (0, "")
        return
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = "ScenarioError" if cls not in TABLE else "ProfileError"
    assert lines[0].startswith(f"sp4eis: {error}: "), lines[0]


def test_a_plain_string_is_no_class():
    # "trivial" equals CharClass.TRIVIAL but fails the `is` tests that reduce
    # chi powers, so it would give wrong labels rather than an error
    with pytest.raises(ProfileError, match=r"^class 'trivial' is not a CharClass member$"):
        PlaceProfile((Place(ARCH, "trivial"),))
    with pytest.raises(ProfileError, match=r"^class 'trivial' is not a CharClass member$"):
        PlaceProfile((Place(ARCH, CharClass.TRIVIAL), Place(NONARCH, "trivial")))
    with pytest.raises(ProfileError, match=r"^class 'quadratic' is not a CharClass member$"):
        eisenstein_order("siegel", PlaceProfile.spherical(), Q(2), "quadratic")


def test_a_profile_names_the_class_and_the_kind_it_refuses():
    with pytest.raises(ProfileError, match=r"^class 'quadratic' cannot occur at place 'arch'$"):
        PlaceProfile((Place(ARCH, CharClass.QUADRATIC),))
    with pytest.raises(ProfileError, match=r"^class 'sgn' cannot occur at place 'nonarch'$"):
        PlaceProfile((Place(ARCH, CharClass.TRIVIAL), Place(NONARCH, CharClass.SGN)))
