"""Same behaviour on profiles with nonarchimedean places: seeded profiles replay pinned digests.

``data/profile_pins.tsv`` holds one report digest (or typed-error class)
per seeded key (case, global class, places, s0).  Every key has one to
three nonarchimedean places next to its real place, so the nonarch pole
rows, the nonarch action rows and the image labels they fix are pinned
beyond the 75 theorem-grid rows.  The cells are case x global class x
the first nonarch place's (local class, choice), over every local class
the global class allows and all six choices; the other places and s0 in
(1/2)Z with |s0| <= 6 are drawn from a seeded generator.  A digest is
the first 16 hex characters of the sha256 of the report's canonical
JSON, as in ``test_golden.py``.

Regenerate the file only when outputs change on purpose:

    PYTHONPATH=src python tests/test_profile_pins.py
"""

import hashlib
import json
import random
from fractions import Fraction as Q
from pathlib import Path

from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import ARCH, CHOICES, LOCAL_CLASSES, NONARCH, default_rules

PINS = Path(__file__).resolve().parent / "data" / "profile_pins.tsv"
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


def outcome(case: str, cls_name: str, places: str, s0: str, rules) -> str:
    profile = PlaceProfile(tuple(Place(kind, CharClass(local), choice)
                                 for kind, local, choice in
                                 (p.split(":") for p in places.split(","))))
    try:
        report = eisenstein_order(case, profile, Q(s0), CharClass(cls_name), rules)
    except Exception as exc:  # noqa: BLE001 - typed errors are part of the pins
        if not type(exc).__module__.startswith("sp4eis."):
            raise
        return "error:" + type(exc).__name__
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_profile_keys_replay_pins():
    rules = default_rules()
    pinned = {}
    for line in PINS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            *key, value = line.split("\t")
            pinned[tuple(key)] = value
    ks = keys()
    assert list(pinned) == ks
    firsts = [next(p for p in k[2].split(",") if p.startswith("nonarch:")) for k in ks]
    assert {(k[0], k[1], *p.split(":")[1:]) for k, p in zip(ks, firsts)} == set(CELLS)
    assert any(v.startswith("error:") for v in pinned.values())
    mismatches = [(key, pinned[key], got) for key in ks
                  if (got := outcome(*key, rules)) != pinned[key]]
    assert not mismatches, mismatches[:10]


if __name__ == "__main__":
    rules = default_rules()
    lines = ["# case\tclass\tplaces (kind:class:choice,...)\ts0\t"
             "report digest, or error:<typed error class>"]
    lines += ["\t".join(key + (outcome(*key, rules),)) for key in keys()]
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text("\n".join(lines) + "\n", encoding="utf-8")
