"""Same behaviour: every stored benchmark reference replays exactly.

The references under ``perfbench/refs/`` are read, never written:

* ``sweep.tsv``: one report digest (or typed-error class) per point of
  case x class x choice x s0, s0 in (1/8)Z within [-6, 6];
* ``grids.json``: one report digest per theorem-grid row, the sha256 of
  ``verify --json`` and of ``poles --scenario F --json`` per scenario;
* ``numeric.json``: for each built-in conductor, the ``[check, ok]`` pairs
  of each family call ``[family, arg]`` of its numeric battery.

Digests and typed-error classes are those of ``pins.py``.
"""

import json
from pathlib import Path

import pins
from sp4eis import checks
from sp4eis.numerics import QUADRATIC_DISCRIMINANTS
from sp4eis.theorems import theorem_ids, verify_theorem
from test_offgrid import outcome

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs"


def test_sweep_replays_reference():
    rows = pins.read(REFS / "sweep.tsv")
    mismatches = [(*key, expected, got) for *key, expected in rows
                  if (got := outcome(*key)) != expected]
    assert len(rows) == 2910
    assert not mismatches, mismatches[:10]


def test_grid_rows_replay_reference():
    ref = json.loads((REFS / "grids.json").read_text(encoding="utf-8"))
    expected = {(r["theorem"], r["clause"], r["row"]): (r["pass"], r["report"])
                for r in ref["rows"]}
    got = {(tid, r.clause, r.label): (r.ok, pins.digest(r.report.to_json()))
           for tid in theorem_ids() for r in verify_theorem(tid).rows}
    assert len(expected) == 75
    assert got == expected


def test_cli_outputs_replay_reference():
    ref = json.loads((REFS / "grids.json").read_text(encoding="utf-8"))
    assert pins.cli_sha256(["verify", "--json"]) == ref["verify_json_sha256"]
    scenarios = sorted((ROOT / "scenarios").glob("*.toml"))
    assert len(scenarios) == len(ref["poles_json_sha256"]) == 4
    for path in scenarios:
        assert pins.cli_sha256(["poles", "--scenario", str(path), "--json"]) == \
            ref["poles_json_sha256"][path.name], path.name


def test_numeric_battery_replays_reference():
    ref = json.loads((REFS / "numeric.json").read_text(encoding="utf-8"))
    assert sorted(map(int, ref)) == sorted(QUADRATIC_DISCRIMINANTS)
    for modulus, calls in ref.items():
        for family, arg, expected in calls:
            result = getattr(checks, family)(*([] if arg is None else [arg]))
            assert [[r.name, r.ok] for r in result] == expected, (modulus, family, arg)
