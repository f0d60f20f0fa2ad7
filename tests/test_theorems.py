"""Theorem grids: every clause row passes; corrupted tables are caught."""

import importlib.resources
from fractions import Fraction as Q

import pytest

from sp4eis.cli import main
from sp4eis.constant_term import eisenstein_order
from sp4eis.localrules import parse_rules, default_rules
from sp4eis.theorems import TR, Expected, _arch, _check_row, _prof, theorem_ids, verify_theorem


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


def test_check_row_reports_conditional_failures():
    # a dependency on a symbol the order does not have
    report = eisenstein_order("heisenberg", _prof(_arch()), Q(-3, 2), TR)
    assert _check_row(report, Expected(conditional_symbol="L(s+9,1)")) == [
        "missing dependency on 'L(s+9,1)' (got ['L(s+2,1)'])"]
    # a pole where a conditional order is expected
    report = eisenstein_order("heisenberg", _prof(_arch()), Q(2), TR)
    problems = _check_row(report, Expected(conditional_symbol="L(s+2,1)"))
    assert "expected a conditional order, got pole 1" in problems


def test_verify_reports_a_wrong_vanishing_flag(tmp_path, capsys):
    # the twisted-Steinberg summand is no longer killed at s = 0
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    row = ("action|heisenberg|s|base|*|trivial|eq:0|"
           "spherical=iso,langlands=iso,steinberg=kernel|")
    assert text.count(row) == 1
    p = tmp_path / "steinberg_iso.txt"
    p.write_text(text.replace(row, row.replace("steinberg=kernel", "steinberg=iso")),
                 encoding="utf-8")
    assert main(["verify", "H+", "--rules", str(p)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL H+ clause")]
    assert failed == [
        "FAIL H+ clause-1: s=0 one twisted-Steinberg constituent  "
        "[vanishing flag False != expected True]",
        "FAIL H+ clause-1: s=0 three twisted-Steinberg constituents  "
        "[vanishing flag False != expected True]",
    ]
