"""Same behaviour: every stored benchmark reference replays exactly.

The references under ``perfbench/refs/`` are read, never written:

* ``sweep.tsv``: one report digest (or typed-error class) per point of
  case x class x choice x s0, s0 in (1/8)Z within [-6, 6];
* ``grids.json``: one report digest per theorem-grid row, the sha256 of
  ``verify --json`` and of ``poles --scenario F --json`` per scenario.

A report digest is the first 16 hex characters of the sha256 of the
report's canonical JSON (sorted keys, compact separators).
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as Q
from pathlib import Path

from sp4eis import cli
from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile, eisenstein_order
from sp4eis.localrules import default_rules
from sp4eis.theorems import theorem_ids, verify_theorem

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"


def _digest(report) -> str:
    text = json.dumps(report.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _cli_sha256(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _sweep_profile(cls: CharClass, choice: str) -> PlaceProfile:
    # the choice sits at the real place, which carries the global class'
    # archimedean stand-in: trivial, or the infinite-order class
    arch = CharClass.OTHER if cls is CharClass.OTHER else CharClass.TRIVIAL
    return PlaceProfile((Place("arch", arch, choice),))


def test_sweep_replays_reference():
    rules = default_rules()
    mismatches, points = [], 0
    for line in (REFS / "sweep.tsv").read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        case, cls_name, choice, s0, expected = line.split("\t")
        cls = CharClass(cls_name)
        try:
            got = _digest(eisenstein_order(case, _sweep_profile(cls, choice), Q(s0), cls, rules))
        except Exception as exc:  # noqa: BLE001 - typed errors are part of the reference
            if not type(exc).__module__.startswith("sp4eis."):
                raise
            got = "error:" + type(exc).__name__
        points += 1
        if got != expected:
            mismatches.append((case, cls_name, choice, s0, expected, got))
    assert points == 2910
    assert not mismatches, mismatches[:10]


def test_grid_rows_replay_reference():
    ref = json.loads((REFS / "grids.json").read_text(encoding="utf-8"))
    expected = {(r["theorem"], r["clause"], r["row"]): (r["pass"], r["report"])
                for r in ref["rows"]}
    got = {(tid, r.clause, r.label): (r.ok, _digest(r.report))
           for tid in theorem_ids() for r in verify_theorem(tid).rows}
    assert len(expected) == 75
    assert got == expected


def test_cli_outputs_replay_reference():
    ref = json.loads((REFS / "grids.json").read_text(encoding="utf-8"))
    assert _cli_sha256("verify", "--json") == ref["verify_json_sha256"]
    scenarios = sorted((ROOT / "scenarios").glob("*.toml"))
    assert len(scenarios) == len(ref["poles_json_sha256"]) == 4
    for path in scenarios:
        assert _cli_sha256("poles", "--scenario", str(path), "--json") == \
            ref["poles_json_sha256"][path.name], path.name
