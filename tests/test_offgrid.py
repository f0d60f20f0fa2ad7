"""Same behaviour off the (1/8)Z grid: seeded rational points replay pinned digests.

``data/offgrid_pins.tsv`` holds one report digest (or typed-error class)
per point of the 30 sweep cells (case x class x choice, the choice at the
real place) at s0 = k/d for d in ``DENOMINATORS`` and |s0| <= 6: eight
seeded numerators per cell and denominator, plus 0 and 1/2, where the
typed errors of the space sit.  A digest is the first 16 hex characters
of the sha256 of the report's canonical JSON, as in ``test_golden.py``.

Regenerate the file only when outputs change on purpose:

    PYTHONPATH=src python tests/test_offgrid.py
"""

import hashlib
import json
import random
from fractions import Fraction as Q
from pathlib import Path

from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import default_rules

PINS = Path(__file__).resolve().parent / "data" / "offgrid_pins.tsv"
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


def outcome(case: str, cls_name: str, choice: str, s0: str, rules) -> str:
    cls = CharClass(cls_name)
    arch = CharClass.OTHER if cls is CharClass.OTHER else CharClass.TRIVIAL
    profile = PlaceProfile((Place("arch", arch, choice),))
    try:
        report = eisenstein_order(case, profile, Q(s0), cls, rules)
    except Exception as exc:  # noqa: BLE001 - typed errors are part of the pins
        if not type(exc).__module__.startswith("sp4eis."):
            raise
        return "error:" + type(exc).__name__
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_offgrid_points_replay_pins():
    rules = default_rules()
    pinned = {}
    for line in PINS.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            *key, value = line.split("\t")
            pinned[tuple(key)] = value
    keys = points()
    assert list(pinned) == keys
    assert {tuple(k[:3]) for k in keys} == set(CELLS)
    assert any(v.startswith("error:") for v in pinned.values())
    mismatches = [(key, pinned[key], got) for key in keys
                  if (got := outcome(*key, rules)) != pinned[key]]
    assert not mismatches, mismatches[:10]


if __name__ == "__main__":
    rules = default_rules()
    lines = ["# case\tclass\tchoice\ts0\treport digest, or error:<typed error class>"]
    lines += ["\t".join(key + (outcome(*key, rules),)) for key in points()]
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text("\n".join(lines) + "\n", encoding="utf-8")
