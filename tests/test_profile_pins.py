"""Same behaviour on profiles with nonarchimedean places: seeded profiles replay pinned digests.

``data/profile_pins.tsv`` holds one report digest (or typed-error class)
per seeded key (case, global class, places, s0).  Every key has one to
three nonarchimedean places next to its real place, so the nonarch pole
rows, the nonarch action rows and the image labels they fix are pinned
beyond the 75 theorem-grid rows.  The cells are case x global class x
the first nonarch place's (local class, choice), over every local class
the global class allows and all six choices; the other places and s0 in
(1/2)Z with |s0| <= 6 are drawn from a seeded generator.  ``pins.py``
defines the digest, replays the store and regenerates it when outputs
change on purpose.
"""

import random
from fractions import Fraction as Q

import pins
from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import ARCH, CHOICES, LOCAL_CLASSES, NONARCH

SEED = 20261019
PER_CELL = 110
POINTS = [str(Q(k, 2)) for k in range(-12, 13)]
# the local classes a global character of each class can have, per place kind
NONARCH_CLASSES = {cls: by_kind[NONARCH] for cls, by_kind in LOCAL_CLASSES.items()}
ARCH_CLASSES = {cls: by_kind[ARCH] for cls, by_kind in LOCAL_CLASSES.items()}
CELLS = [(case, cls, local, choice) for case in ("heisenberg", "siegel")
         for cls in NONARCH_CLASSES for local in NONARCH_CLASSES[cls] for choice in CHOICES]


def keys() -> list[tuple[str, str, str, str]]:
    """The pinned keys (case, class, places, s0), in file order, without repeats.

    ``places`` lists kind:class:choice per place, comma-separated, in
    profile order; the first nonarch place is the cell's.
    """
    rng = random.Random(SEED)
    out = []
    for case, cls, local, choice in CELLS:
        for _ in range(PER_CELL):
            places = [f"nonarch:{local}:{choice}"]
            places += [f"nonarch:{rng.choice(NONARCH_CLASSES[cls])}:{rng.choice(CHOICES)}"
                       for _ in range(rng.choice((0, 0, 1, 2)))]
            places.insert(rng.randint(0, len(places)),
                          f"arch:{rng.choice(ARCH_CLASSES[cls])}:{rng.choice(CHOICES)}")
            out.append((case, cls, ",".join(places), rng.choice(POINTS)))
    return list(dict.fromkeys(out))


def outcome(case: str, cls_name: str, places: str, s0: str) -> str:
    profile = PlaceProfile(tuple(Place(kind, CharClass(local), choice)
                                 for kind, local, choice in
                                 (p.split(":") for p in places.split(","))))
    return pins.outcome(eisenstein_order, case, profile, Q(s0), CharClass(cls_name))


STORE = pins.Store(pins.DATA / "profile_pins.tsv",
                   "case\tclass\tplaces (kind:class:choice,...)\ts0\t"
                   "report digest, or error:<typed error class>", 4,
                   lambda: [key + (outcome(*key),) for key in keys()])


def test_profile_keys_replay_pins():
    ks = keys()
    firsts = [next(p for p in k[2].split(",") if p.startswith("nonarch:")) for k in ks]
    assert {(k[0], k[1], *p.split(":")[1:]) for k, p in zip(ks, firsts)} == set(CELLS)
    assert any(row[-1].startswith("error:") for row in pins.read(STORE.path))
    pins.replay(STORE)
