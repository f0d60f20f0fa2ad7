"""Same behaviour off the (1/8)Z grid: seeded rational points replay pinned digests.

``data/offgrid_pins.tsv`` holds one report digest (or typed-error class)
per point of the 30 sweep cells (case x class x choice, the choice at the
real place) at s0 = k/d for d in ``DENOMINATORS`` and |s0| <= 6: eight
seeded numerators per cell and denominator, plus 0 and 1/2, where the
typed errors of the space sit.  ``pins.py`` defines the digest, replays
the store and regenerates it when outputs change on purpose.
"""

import random
from fractions import Fraction as Q

import pins
from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.scenario import default_arch_class

SEED = 20261018
DENOMINATORS = (3, 5, 6, 7, 9, 12, 16, 24, 49)
PER_DENOMINATOR = 8
CELLS = [(case, cls, choice) for case in ("heisenberg", "siegel")
         for cls in ("trivial", "quadratic", "other")
         for choice in ("spherical", "langlands", "steinberg", "t1", "carrier")]


def points() -> list[tuple[str, str, str, str]]:
    """The pinned keys (case, class, choice, s0), in file order, without repeats."""
    rng = random.Random(SEED)
    out = []
    for cell in CELLS:
        for d in DENOMINATORS:
            for _ in range(PER_DENOMINATOR):
                out.append(cell + (str(Q(rng.randint(-6 * d, 6 * d), d)),))
        out += [cell + ("0",), cell + ("1/2",)]
    return list(dict.fromkeys(out))


def outcome(case: str, cls_name: str, choice: str, s0: str) -> str:
    """The pinned value of a sweep point: the choice at the real place."""
    cls = CharClass(cls_name)
    profile = PlaceProfile((Place("arch", default_arch_class(cls), choice),))
    return pins.outcome(eisenstein_order, case, profile, Q(s0), cls)


STORE = pins.Store(pins.DATA / "offgrid_pins.tsv", "case\tclass\tchoice\ts0\t"
                   "report digest, or error:<typed error class>", 4,
                   lambda: [key + (outcome(*key),) for key in points()])


def test_offgrid_points_replay_pins():
    assert {key[:3] for key in points()} == set(CELLS)
    assert any(row[-1].startswith("error:") for row in pins.read(STORE.path))
    pins.replay(STORE)
