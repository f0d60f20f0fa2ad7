"""Seeded robustness property: every valid input gets a report or a typed refusal.

Each input is one real place plus up to three nonarchimedean places, each
place's class one that its kind may carry under the global class
(``LOCAL_CLASSES``) and its section choice any of ``CHOICES``, at
s0 = p/q with q <= 1,000,003 and |s0| <= 14.  Half of the denominators
are small, so the special points of both cases come up; the rest are off
any grid.  The outcome must be a report, which serializes, or one of
``UncoveredKey``, ``UnknownChoice`` and ``ProfileError``; anything else
fails, a traceback included.  A refusal may only sit at a pinned hole.
"""

import random
from collections import Counter
from fractions import Fraction as Q

from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, ProfileError, eisenstein_order
from sp4eis.localrules import ARCH, CHOICES, LOCAL_CLASSES, NONARCH, UncoveredKey, UnknownChoice

SEED = 15
INPUTS = 3000
MAX_DENOMINATOR = 1_000_003
SMALL_DENOMINATORS = (1, 2, 3, 4, 8)

# the points where the rule table leaves keys uncovered or choices unnamed
HOLES = {
    "heisenberg": {Q(0)},
    "siegel": {Q(0), Q(1, 2), Q(-1, 2)},
}


def draw(rng: random.Random):
    case = rng.choice(sorted(HOLES))
    cls = rng.choice(sorted(LOCAL_CLASSES))
    by_kind = LOCAL_CLASSES[cls]
    places = [Place(ARCH, rng.choice(by_kind[ARCH]), rng.choice(CHOICES))]
    places += [Place(NONARCH, rng.choice(by_kind[NONARCH]), rng.choice(CHOICES))
               for _ in range(rng.randint(0, 3))]
    q = rng.choice(SMALL_DENOMINATORS) if rng.random() < 0.5 else rng.randint(1, MAX_DENOMINATOR)
    s0 = Q(rng.randint(-14 * q, 14 * q), q)
    return case, PlaceProfile(tuple(places)), s0, cls


def test_every_valid_input_gets_a_report_or_a_typed_refusal():
    rng = random.Random(SEED)
    outcomes = Counter()
    for _ in range(INPUTS):
        case, profile, s0, cls = draw(rng)
        try:
            report = eisenstein_order(case, profile, s0, cls)
        except (UncoveredKey, UnknownChoice, ProfileError) as exc:
            assert s0 in HOLES[case], (type(exc).__name__, case, cls, s0, profile)
            outcomes[type(exc).__name__] += 1
            continue
        assert report.to_json()["s0"] == str(s0)
        outcomes["report"] += 1
    # the draw meets the holes and the off-grid points alike
    assert outcomes["report"] > 0.9 * INPUTS
    assert outcomes["UncoveredKey"] and outcomes["UnknownChoice"], outcomes
    assert sum(outcomes.values()) == INPUTS
