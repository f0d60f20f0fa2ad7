"""Scenario files: TOML descriptions of what to compute, read by ``tomllib``.

Schema (all keys optional unless noted):

    case = "heisenberg"            # required: "heisenberg" | "siegel"
    char_class = "trivial"         # "trivial" | "quadratic" | "other"
    modulus = 4                    # Dirichlet modulus for numeric checks
    s0 = ["2", "-1/2"]             # rational points, as strings; at least one
    checks = ["poles"]             # any of "poles", "verify", "numcheck"
    theorems = ["H+", "H-"]        # any strings

    [[places]]                     # the ramified set S; default: one
    kind = "arch"                  # spherical archimedean place
    class = "trivial"              # "trivial"|"quadratic"|"sgn"|"other"
    choice = "spherical"           # "spherical"|"langlands"|"steinberg"|
                                   # "t1"|"t2"|"carrier"

Exactly one archimedean place is required when places are given.  A key
outside this schema, at top level or in a place, is an error.

``checks`` and ``theorems`` select nothing: ``checks`` is validated, both
are echoed in ``poles --json``, and no command runs a check or theorem
they name.  Dropping the two keys moves the ``poles --json`` digests
pinned in ``perfbench/refs/grids.json``, so it waits for a change that
regenerates the benchmark references.
"""

from __future__ import annotations

from fractions import Fraction as Q
from pathlib import Path
from typing import NamedTuple

from .characters import CASES, CharClass, parse_class
from .constant_term import Place, PlaceProfile
from .localrules import LOCAL_CLASSES

VALID_CHECKS = ("poles", "verify", "numcheck")
SCENARIO_KEYS = ("case", "char_class", "modulus", "s0", "checks", "theorems", "places")
PLACE_KEYS = ("kind", "class", "choice")


class ScenarioError(ValueError):
    pass


class Scenario(NamedTuple):
    case: str
    char_class: CharClass
    s0_list: list[Q]
    profile: PlaceProfile
    modulus: int | None
    checks: list[str]
    theorems: list[str]

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "char_class": self.char_class,
            "s0": [str(s) for s in self.s0_list],
            "profile": self.profile.to_json(),
            "modulus": self.modulus,
            "checks": self.checks,
            "theorems": self.theorems,
        }


def _list(data: dict, key: str, default: list, source: str) -> list:
    """The array under ``key``; a scalar would otherwise be iterated."""
    value = data.get(key, default)
    if not isinstance(value, list):
        raise ScenarioError(f"{source}: {key!r} must be an array, not {value!r}")
    return value


def _class(text: str, source: str) -> CharClass:
    if not isinstance(text, str):
        raise ScenarioError(f"{source}: a character class must be a string, not {text!r}")
    try:
        return parse_class(text)
    except ValueError as exc:
        raise ScenarioError(f"{source}: {exc}") from None


def _known_keys(data: dict, keys: tuple[str, ...], where: str, source: str) -> None:
    """Refuse a misspelt key, which would otherwise leave its default in force."""
    for key in data:
        if key not in keys:
            raise ScenarioError(f"{source}: unknown {where} key {key!r} "
                                f"(expected one of {', '.join(keys)})")


def default_arch_class(cls: CharClass) -> CharClass:
    return CharClass.OTHER if cls is CharClass.OTHER else CharClass.TRIVIAL


def scenario_from_dict(data: dict, source: str = "<scenario>") -> Scenario:
    _known_keys(data, SCENARIO_KEYS, "scenario", source)
    try:
        case = data["case"]
    except KeyError:
        raise ScenarioError(f"{source}: missing required key 'case'") from None
    if case not in CASES:
        raise ScenarioError(f"{source}: unknown case {case!r}")
    cls = _class(data.get("char_class", "trivial"), source)
    if cls not in LOCAL_CLASSES:
        raise ScenarioError(f"{source}: '{cls}' is a local class; use char_class='quadratic'")
    try:
        s0_list = [Q(str(x)) for x in _list(data, "s0", ["0"], source)]
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{source}: bad s0 entry: {exc}") from None
    if not s0_list:
        raise ScenarioError(f"{source}: 's0' lists no point")
    places_data = _list(data, "places", [], source)
    if places_data:
        places = []
        for p in places_data:
            if not isinstance(p, dict):
                raise ScenarioError(f"{source}: each place must be a table, not {p!r}")
            _known_keys(p, PLACE_KEYS, "place", source)
            places.append(Place(p.get("kind", "nonarch"),
                                _class(p.get("class", "trivial"), source),
                                p.get("choice", "spherical")))
        profile = PlaceProfile(tuple(places))
    else:
        profile = PlaceProfile.spherical(default_arch_class(cls))
    checks = _list(data, "checks", ["poles"], source)
    for c in checks:
        if c not in VALID_CHECKS:
            raise ScenarioError(f"{source}: unknown check {c!r}")
    theorems = [str(t) for t in _list(data, "theorems", ["H+", "H-", "S+", "S-"], source)]
    modulus = data.get("modulus")
    if modulus is not None:
        try:
            # int() would truncate a float and read a boolean as 0 or 1
            if isinstance(modulus, (bool, float)):
                raise ValueError
            modulus = int(modulus)
        except (TypeError, ValueError):
            raise ScenarioError(f"{source}: bad modulus {modulus!r}") from None
    return Scenario(case=case, char_class=cls, s0_list=s0_list, profile=profile,
                    modulus=modulus, checks=checks, theorems=theorems)


def load_scenario(path: str | Path) -> Scenario:
    """Read a scenario file with ``tomllib``, imported here so that importing
    the CLI does not load it."""
    import tomllib

    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{p}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"{p}: {exc}") from None
    return scenario_from_dict(data, source=str(p))
