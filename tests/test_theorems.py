"""Theorem grids: every clause row passes; corrupted tables are caught."""

import pytest

from sp4eis.localrules import parse_rules, default_rules
from sp4eis.theorems import theorem_ids, verify_theorem


@pytest.mark.parametrize("tid", theorem_ids())
def test_theorem_passes(tid):
    report = verify_theorem(tid)
    assert report.passed, "\n".join(report.render_lines())


def test_unknown_theorem_id():
    with pytest.raises(KeyError):
        verify_theorem("Z+")


def test_report_shapes():
    report = verify_theorem("S+")
    data = report.to_json()
    assert data["passed"] is True
    assert {r["clause"] for r in data["rows"]} == {"clause-1", "clause-2", "clause-3"}
    lines = report.render_lines()
    assert lines[-1].startswith("PASS S+ overall")


def _corrupted_rules():
    """Shift the nonarchimedean Heisenberg pole to the wrong point."""
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    text = text.replace(
        "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-2|1|st_gl2|steinberg|",
        "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-3|1|st_gl2|steinberg|")
    return parse_rules(text, source="<corrupted>")


def test_corrupted_table_fails_rows():
    bad = _corrupted_rules()
    report = verify_theorem("H-", rules=bad)
    assert not report.passed
    failing = [r for r in report.rows if not r.ok]
    assert failing
    # the Steinberg-counting clause is the one that breaks
    assert any(r.clause == "clause-5" for r in failing)
    # and reporting still works
    lines = report.render_lines()
    assert any(line.startswith("FAIL") for line in lines)
    # the shipped table is intact
    assert default_rules() is not bad
