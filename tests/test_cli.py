"""Command-line interface: output shapes, determinism, exit codes."""

import importlib.resources
import json
import os
import subprocess
import sys
import tomllib
from functools import cache
from pathlib import Path

import pytest

import pins
from sp4eis.cli import main
from sp4eis.numerics import QUADRATIC_DISCRIMINANTS
from sp4eis.scenario import ScenarioError, scenario_from_dict

SHIPPED_RULES = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()

SCENARIO = """\
# pole scan for the Siegel family at its half-integer point
case = "siegel"
char_class = "quadratic"
modulus = 4
s0 = ["1/2"]
checks = ["poles"]

[[places]]
kind = "arch"
class = "trivial"
choice = "spherical"

[[places]]
kind = "nonarch"
class = "quadratic"
choice = "t2"

[[places]]
kind = "nonarch"
class = "quadratic"
choice = "t2"
"""


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_weyl_text(capsys):
    code, out = run(capsys, "weyl", "--case", "heisenberg")
    assert code == 0
    assert "sc2s" in out and "length=3" in out


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# stdout pinned byte for byte by its sha256 in data/cli_pins.tsv: the Weyl
# tables and group, every conductor's numcheck --json (check names, pass
# flags, values and bounds), and what no other pin covers: the text of each
# subcommand (siegel_strip_window.toml renders a strip-conditional order,
# `0 -ord[L(s+3/2,1) at 1/2]`) and normfactor --json
WEYL_FULL = "weyl --case all --full --json"
NUMCHECK = {m: f"numcheck --modulus {m} --json" for m in sorted(QUADRATIC_DISCRIMINANTS)}
OUTPUTS = (*(f"poles --scenario {p.name}" for p in sorted(SCENARIOS.glob("*.toml"))),
           "verify", "weyl --full", "numcheck --modulus 4",
           "normfactor --case siegel --w c2sc2s --char-class quadratic --json")


def _argv(command: str) -> list[str]:
    return [str(SCENARIOS / a) if a.endswith(".toml") else a for a in command.split()]


@cache
def output_sha256(command: str) -> str:
    """The sha256 of a pinned command's stdout, run once per session: the
    store's replay and the per-command tests share it."""
    return pins.cli_sha256(_argv(command))


STORE = pins.Store(pins.DATA / "cli_pins.tsv", "command\tsha256 of stdout", 1,
                   lambda: [(c, output_sha256(c))
                            for c in (WEYL_FULL, *NUMCHECK.values(), *OUTPUTS)])


def pinned(command: str) -> str:
    return dict(pins.read(STORE.path))[command]


def test_cli_outputs_replay_pins():
    pins.replay(STORE)


def test_weyl_json_deterministic(capsys):
    # this run and the shared one give the same bytes, the pinned ones
    _, out = run(capsys, *WEYL_FULL.split())
    assert pins.sha256(out) == output_sha256(WEYL_FULL) == pinned(WEYL_FULL)
    data = json.loads(out)
    assert [r["name"] for r in data["cases"]["siegel"]] == ["id", "c2", "sc2", "c2sc2"]
    assert len(data["group"]) == 8


@pytest.mark.parametrize("modulus", NUMCHECK)
def test_numcheck_json_pinned(modulus):
    assert output_sha256(NUMCHECK[modulus]) == pinned(NUMCHECK[modulus])


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_output_pinned(command):
    assert output_sha256(command) == pinned(command)


@pytest.mark.parametrize("command", [
    "weyl --case siegel",
    "normfactor --case heisenberg --w c1 --char-class quadratic",
    "poles --scenario siegel_strip_window.toml",
    "verify H+",
    "numcheck --modulus 5",
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_out_writes_what_stdout_would(tmp_path, capsys, command, json_flag):
    argv = _argv(command) + json_flag
    code, out = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "")
    assert target.read_text(encoding="utf-8") == out


def test_closed_pipe_exits_141_quietly(monkeypatch, capsys):
    # a pipe whose reading end is already closed: every write fails with
    # EPIPE, as after `sp4eis numcheck | head -1` once head has exited
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    with open(write_fd, "w", encoding="utf-8") as closed, monkeypatch.context() as m:
        m.setattr(sys, "stdout", closed)
        assert main(["numcheck"]) == 141
        # stdout now leads to devnull, so the flush at exit succeeds
        closed.write("more\n")
        closed.flush()
    assert capsys.readouterr().err == ""


def test_normfactor_golden(capsys):
    code, out = run(capsys, "normfactor", "--case", "heisenberg", "--w", "c1")
    assert code == 0
    assert out.strip() == \
        "L(s-1,chi) / (L(s+2,chi)*eps(s,chi)*eps(s+1,chi)*eps(s+2,chi))"
    code, out = run(capsys, "normfactor", "--case", "heisenberg", "--w", "id")
    assert out.strip() == "1"
    code, out = run(capsys, "normfactor", "--case", "siegel", "--w", "c2sc2",
                    "--char-class", "trivial")
    assert out.strip() == "L(s-1/2,1)*L(2s,1) / (L(s+3/2,1)*L(2s+1,1))"


def test_poles_inline_and_json(capsys):
    code, out = run(capsys, "poles", "--case", "heisenberg",
                    "--char-class", "trivial", "--s0", "2", "-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "sp4eis-poles/1"
    r2, rm1 = data["reports"]
    assert r2["combined"]["pole_order"] == 1
    assert rm1["combined"]["vanishes_at_point"] is True
    # determinism
    _, out2 = run(capsys, "poles", "--case", "heisenberg",
                  "--char-class", "trivial", "--s0", "2", "-1", "--json")
    assert out == out2


def test_poles_negative_fractions(tmp_path, capsys):
    # argparse's own negative-number pattern knows -2 and -0.5 but not -1/2
    code, out = run(capsys, "poles", "--case", "siegel", "--s0", "-1/2", "-3/2", "2", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["s0"] for r in reports] == ["-1/2", "-3/2", "2"]
    p = tmp_path / "points.toml"
    p.write_text('case = "siegel"\ns0 = ["-1/2", "-3/2", "2"]\n', encoding="utf-8")
    code, out = run(capsys, "poles", "--scenario", str(p), "--json")
    assert code == 0
    assert json.loads(out)["reports"] == reports


def test_poles_place_flags(capsys):
    code, out = run(capsys, "poles", "--case", "heisenberg", "--s0", "-2",
                    "--place", "arch:trivial:spherical",
                    "nonarch:trivial:steinberg", "nonarch:trivial:steinberg",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["combined"]["pole_order"] == 1


def test_poles_repeated_options_accumulate(capsys):
    # a repeated --s0 or --place adds to its earlier uses
    once = run(capsys, "poles", "--case", "siegel", "--s0", "1/2", "3/2", "--json")
    twice = run(capsys, "poles", "--case", "siegel", "--s0", "1/2", "--s0", "3/2", "--json")
    assert twice == once
    assert [r["s0"] for r in json.loads(twice[1])["reports"]] == ["1/2", "3/2"]
    once = run(capsys, "poles", "--case", "siegel", "--s0", "1/2",
               "--place", "arch:trivial:spherical", "nonarch:trivial:t2")
    twice = run(capsys, "poles", "--case", "siegel", "--s0", "1/2",
                "--place", "arch:trivial:spherical", "--place", "nonarch:trivial:t2")
    assert twice == once
    assert once[0] == 0


def test_poles_scenario_excludes_profile_flags(capsys):
    code = main(["poles", "--scenario", str(SCENARIOS / "heisenberg_poles.toml"),
                 "--case", "siegel", "--s0", "5", "--place", "arch:trivial:carrier"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("sp4eis: ScenarioError: --scenario cannot be combined "
                            "with --case, --s0, --place\n")
    # a bare --s0 is given too; without a file it lists no point, as an
    # empty s0 array in a scenario file does
    assert main(["poles", "--scenario", str(SCENARIOS / "heisenberg_poles.toml"), "--s0"]) == 2
    assert "with --s0\n" in capsys.readouterr().err
    assert main(["poles", "--s0", "--json"]) == 2
    assert capsys.readouterr().err == "sp4eis: ScenarioError: <args>: 's0' lists no point\n"


def test_numcheck_scenario_excludes_modulus(tmp_path, capsys):
    # --modulus beside a scenario file was once ignored for the file's modulus
    code = main(["numcheck", "--scenario", str(SCENARIOS / "siegel_half_quadratic.toml"),
                 "--modulus", "5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "sp4eis: ScenarioError: --scenario cannot be combined with --modulus\n"
    # a file without a modulus and a bare numcheck both run conductor 4
    p = tmp_path / "no_modulus.toml"
    p.write_text('case = "siegel"\n', encoding="utf-8")
    for argv in (["--scenario", str(p)], []):
        code, out = run(capsys, "numcheck", *argv, "--json")
        assert code == 0
        assert pins.sha256(out) == pinned(NUMCHECK[4])


def test_empty_s0_is_refused(tmp_path, capsys):
    # an empty s0 once computed nothing and exited 0
    with pytest.raises(ScenarioError, match="'s0' lists no point"):
        scenario_from_dict({"case": "siegel", "s0": []})
    p = tmp_path / "no_point.toml"
    p.write_text('case = "siegel"\ns0 = []\n', encoding="utf-8")
    code = main(["poles", "--scenario", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"sp4eis: ScenarioError: {p}: 's0' lists no point\n"


def test_poles_scenario_file(tmp_path, capsys):
    p = tmp_path / "scan.toml"
    p.write_text(SCENARIO, encoding="utf-8")
    code, out = run(capsys, "poles", "--scenario", str(p), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["scenario"]["modulus"] == 4
    assert data["reports"][0]["combined"]["pole_order"] == 1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "weyl.json"
    code, _ = run(capsys, "weyl", "--json", "--out", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["schema"] == "sp4eis-weyl/1"


def test_verify_exit_codes(tmp_path, capsys):
    code, out = run(capsys, "verify", "H+")
    assert code == 0
    assert "PASS H+ overall" in out
    # a corrupted rule table makes verification fail with exit code 1
    bad = SHIPPED_RULES.replace(
        "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-2|1|st_gl2|steinberg|",
        "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-3|1|st_gl2|steinberg|")
    p = tmp_path / "bad_rules.txt"
    p.write_text(bad, encoding="utf-8")
    code, out = run(capsys, "verify", "H-", "--rules", str(p))
    assert code == 1
    assert "FAIL" in out


def test_scenario_parsing():
    data = tomllib.loads(SCENARIO)
    assert data["case"] == "siegel"
    assert data["s0"] == ["1/2"]
    assert len(data["places"]) == 3
    sc = scenario_from_dict(data)
    assert sc.modulus == 4
    assert len(sc.profile.places) == 3


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "klingen"})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "siegel", "s0": ["x"]})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "siegel", "checks": ["podium"]})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "siegel", "char_class": "sgn"})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "siegel", "places": [{"kind": "arch", "class": "bogus"}]})
    with pytest.raises(ScenarioError):
        scenario_from_dict({"case": "siegel", "modulus": "x"})
    # a scalar where an array belongs is refused, not iterated
    with pytest.raises(ScenarioError, match="'checks' must be an array"):
        scenario_from_dict({"case": "siegel", "checks": "poles"})


def test_scenario_rejects_unknown_keys():
    # a misspelt key would otherwise leave its default in force
    with pytest.raises(ScenarioError, match="unknown scenario key 'char-class'"):
        scenario_from_dict({"case": "siegel", "char-class": "quadratic"})
    with pytest.raises(ScenarioError, match="unknown place key 'clas'"):
        scenario_from_dict({"case": "siegel", "places": [{"kind": "arch", "clas": "sgn"}]})
    sc = scenario_from_dict(tomllib.loads(SCENARIO))
    assert sc.char_class.value == "quadratic" and len(sc.profile.places) == 3


def test_scenario_default_profile():
    sc = scenario_from_dict({"case": "heisenberg", "char_class": "other"})
    assert sc.profile.places[0].kind == "arch"
    assert sc.profile.places[0].local_class.value == "other"


# scenario files with a value of the wrong type or an unknown value, after
# a valid case line
WRONG_TYPES = {
    "class_int.toml": "char_class = 1\n",
    "place_class_int.toml": '[[places]]\nkind = "arch"\nclass = 3\n',
    "place_int.toml": "places = [1]\n",
    "s0_int.toml": "s0 = 2\n",
    "checks_str.toml": 'checks = "poles"\n',
    "modulus_float.toml": "modulus = 4.5\n",
    "modulus_zero.toml": "modulus = 0\n",
    "place_kind.toml": '[[places]]\nkind = "arch"\n\n[[places]]\nkind = "finite"\n',
    "unknown_key.toml": 'char-class = "quadratic"\n',
    "place_unknown_key.toml": '[[places]]\nkind = "arch"\nclas = "sgn"\n',
}


# rule tables with one malformed field: condition points with a zero
# denominator, a misspelt parity, an unknown condition kind, a misspelt
# carrier, a restated carrier choice and a kernel on a relative row; and
# one with a relative row naming the wrong base; two with a class foreign to
# the row's place
RULE_EDITS = {
    "zero_eq.txt": ("|nonarch|trivial|eq:-2|", "|nonarch|trivial|eq:-2/0|"),
    "zero_shift.txt": ("|arch|trivial|int:0:even:lt-1|", "|arch|trivial|int:1/0:even:lt-1|"),
    "zero_bound.txt": ("|arch|trivial|int:0:even:lt-1|", "|arch|trivial|int:0:even:lt1/0|"),
    "bad_parity.txt": ("|arch|trivial|int:0:even:lt-1|", "|arch|trivial|int:0:evn:lt-1|"),
    "bad_condition.txt": ("|nonarch|trivial|eq:-2|", "|nonarch|trivial|ne:-2|"),
    "carrier_typo.txt": ("|st_gl2|", "|st_gl3|"),
    "carrier_listed.txt": ("|st_gl2|steinberg|", "|st_gl2|steinberg,carrier|"),
    "relative_kernel.txt": ("|c2s|s|*|trivial|eq:0|spherical=+1,langlands=+1,steinberg=+1|",
                            "|c2s|s|*|trivial|eq:0|spherical=+1,langlands=+1,steinberg=kernel|"),
    "wrong_base.txt": ("|c2s|s|*|trivial|eq:0|", "|c2s|sc2s|*|trivial|eq:0|"),
    "repeated_choice.txt": ("|spherical=iso,langlands=iso,steinberg=kernel|",
                            "|spherical=iso,langlands=iso,steinberg=kernel,steinberg=+1|"),
    "arch_quadratic.txt": ("|arch|sgn|int:0:odd:lt-1|", "|arch|sgn,quadratic|int:0:odd:lt-1|"),
    "nonarch_sgn.txt": ("|nonarch|trivial|eq:-2|", "|nonarch|trivial,sgn|eq:-2|"),
}


@pytest.mark.parametrize("argv, error", [
    (["poles", "--case", "siegel", "--char-class", "trivial", "--s0", "0",
      "--place", "arch:trivial:steinberg"], "UncoveredKey"),
    (["poles", "--case", "siegel", "--s0", "1/2", "--place", "arch:trivial:t1"],
     "UnknownChoice"),
    (["poles", "--char-class", "sgn"], "ScenarioError"),
    (["poles", "--place", "arch:trivial"], "ScenarioError"),
    (["poles", "--place", "nonarch:trivial:spherical"], "ProfileError"),
    (["poles", "--char-class", "bogus"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/missing.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/malformed.toml"], "ScenarioError"),
    (["verify", "--rules", "{tmp}/missing.txt"], "RuleTableError"),
    (["verify", "--rules", "{tmp}/malformed.txt"], "RuleTableError"),
    (["numcheck", "--modulus", "6"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/latin1.toml"], "ScenarioError"),
    (["verify", "--rules", "{tmp}/latin1.txt"], "RuleTableError"),
    (["poles", "--scenario", "{tmp}/class_int.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/place_class_int.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/place_int.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/s0_int.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/checks_str.toml"], "ScenarioError"),
    (["numcheck", "--scenario", "{tmp}/modulus_float.toml"], "ScenarioError"),
    (["numcheck", "--scenario", "{tmp}/modulus_zero.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/unknown_key.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/place_unknown_key.toml"], "ScenarioError"),
    (["weyl", "--out", "{tmp}/missing/weyl.txt"], "OutputError"),
    (["weyl", "--out", "{tmp}"], "OutputError"),
    (["verify", "H-", "--rules", "{tmp}/zero_eq.txt"], "RuleTableError"),
    (["poles", "--rules", "{tmp}/zero_shift.txt"], "RuleTableError"),
    (["verify", "H-", "--rules", "{tmp}/zero_bound.txt"], "RuleTableError"),
    (["poles", "--rules", "{tmp}/zero_bound.txt"], "RuleTableError"),
    (["poles", "--case", "heisenberg", "--s0", "-2", "--place", "arch:trivial:spherical",
      "nonarch:trivial:steinberg", "nonarch:trivial:steinberg",
      "--rules", "{tmp}/carrier_typo.txt"], "RuleTableError"),
    (["verify", "H-", "--rules", "{tmp}/carrier_listed.txt"], "RuleTableError"),
    (["verify", "H+", "--rules", "{tmp}/relative_kernel.txt"], "RuleTableError"),
    # c2s is signed relative to s, the base of its group at 0; a row naming
    # sc2s covers no member, so a non-spherical choice there is uncovered
    (["poles", "--case", "heisenberg", "--s0", "0", "--place", "arch:trivial:spherical",
      "nonarch:trivial:steinberg", "--rules", "{tmp}/wrong_base.txt"], "UncoveredKey"),
    # no global character of the class has these local classes
    (["poles", "--case", "heisenberg", "--char-class", "trivial", "--s0", "0",
      "--place", "arch:sgn:spherical", "nonarch:quadratic:t2"], "ProfileError"),
    (["poles", "--case", "siegel", "--char-class", "quadratic", "--s0", "1/2",
      "--place", "arch:trivial:spherical", "nonarch:other:spherical"], "ProfileError"),
    # new rows go last, so the earlier rows keep their test ids
    (["poles", "--scenario", "{tmp}/no_case.toml"], "ScenarioError"),
    (["poles", "--scenario", "{tmp}/place_kind.toml"], "ProfileError"),
    (["verify", "H-", "--rules", "{tmp}/bad_parity.txt"], "RuleTableError"),
    (["verify", "H-", "--rules", "{tmp}/bad_condition.txt"], "RuleTableError"),
    (["verify", "--rules", "{tmp}/repeated_choice.txt"], "RuleTableError"),
    # a class its place cannot have would make the row match nothing
    (["verify", "--rules", "{tmp}/arch_quadratic.txt"], "RuleTableError"),
    (["poles", "--rules", "{tmp}/nonarch_sgn.txt"], "RuleTableError"),
    # an option given an empty value is refused, not read as absent
    (["poles", "--case", "siegel", "--s0"], "ScenarioError"),
    (["poles", "--scenario", ""], "ScenarioError"),
    (["numcheck", "--scenario", ""], "ScenarioError"),
    (["verify", "--rules", ""], "RuleTableError"),
    (["weyl", "--out", ""], "OutputError"),
    # ... and its message says so
    (["poles", "--scenario", ""], "ScenarioError: --scenario is empty"),
    (["verify", "--rules", ""], "RuleTableError: --rules is empty"),
    (["weyl", "--out", ""], "OutputError: --out is empty"),
])
def test_typed_errors_one_line_exit_2(tmp_path, capsys, argv, error):
    for name, text in WRONG_TYPES.items():
        (tmp_path / name).write_text('case = "siegel"\n' + text, encoding="utf-8")
    for name, (old, new) in RULE_EDITS.items():
        assert old in SHIPPED_RULES
        (tmp_path / name).write_text(SHIPPED_RULES.replace(old, new), encoding="utf-8")
    (tmp_path / "malformed.toml").write_text("case = \n", encoding="utf-8")
    (tmp_path / "no_case.toml").write_text('char_class = "trivial"\n', encoding="utf-8")
    (tmp_path / "malformed.txt").write_text("nonsense|row\n", encoding="utf-8")
    (tmp_path / "latin1.toml").write_bytes(b"\xff\xfe")
    (tmp_path / "latin1.txt").write_bytes(b"\xff\xfe")
    code = main([a.format(tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    name, _, message = error.partition(": ")  # a row may pin its message's start
    assert lines[0].startswith(f"sp4eis: {name}: {message}"), lines[0]


def test_unknown_theorem_id_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "X+"])
    assert exc.value.code == 2
    assert "unknown theorem id 'X+'" in capsys.readouterr().err


def test_unknown_weyl_word_is_a_usage_error(capsys):
    # --w takes an element name or alias; a word such as `ss` is not parsed
    for name in ("zz", "ss", ""):
        with pytest.raises(SystemExit) as exc:
            main(["normfactor", "--case", "heisenberg", "--w", name])
        assert exc.value.code == 2
        assert f"unknown Weyl element {name!r}" in capsys.readouterr().err


def test_misspelt_rule_token_exit_2(tmp_path, capsys):
    # with 'steinbreg' the arch Steinberg row matched no choice, so the pole
    # at -4 silently became order 0 and the run exited 0
    row = "pole|heisenberg|s,c2s,sc2s|arch|trivial|int:0:even:lt-1|1|arch_nonlanglands|" \
        "steinberg|"
    assert row in SHIPPED_RULES
    lineno = SHIPPED_RULES[:SHIPPED_RULES.index(row)].count("\n") + 1
    p = tmp_path / "typo_rules.txt"
    p.write_text(SHIPPED_RULES.replace(row, row.replace("|steinberg|", "|steinbreg|")),
                 encoding="utf-8")
    code = main(["poles", "--case", "heisenberg", "--s0", "-4",
                 "--place", "arch:trivial:steinberg", "--rules", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"sp4eis: RuleTableError: {p}:{lineno}: unknown pole choice 'steinbreg'\n"


def test_carrier_meets_the_finite_place_pole(capsys):
    # at Heisenberg s=-2 the finite-place pole is carried by the twisted
    # Steinberg constituent, so carrier sections meet it as steinberg ones do
    reports = {}
    for choice in ("carrier", "steinberg"):
        argv = ["poles", "--case", "heisenberg", "--s0", "-2", "--place",
                "arch:trivial:spherical", f"nonarch:trivial:{choice}",
                f"nonarch:trivial:{choice}", "--json"]
        assert main(argv) == 0
        (reports[choice],) = json.loads(capsys.readouterr().out)["reports"]
    carrier, steinberg = reports["carrier"], reports["steinberg"]
    assert carrier["combined"]["pole_order"] == 1
    assert carrier["combined"] == steinberg["combined"]
    assert carrier["image"] == steinberg["image"]
    assert [e["structure"] for e in carrier["image"]] == \
        ["length-two", "irreducible-constituent", "irreducible-constituent"]


def test_indeterminate_leading_exit_2(tmp_path, capsys):
    # a local pole on one member of the Siegel pair at 1/2 but not on the
    # other leaves the pair's cancellation unanalyzed
    catch_all = "pole|siegel|c2,sc2,c2sc2|*|*|always|0|||holomorphic otherwise\n"
    assert catch_all in SHIPPED_RULES
    p = tmp_path / "uneven_rules.txt"
    p.write_text(SHIPPED_RULES.replace(
        catch_all, "pole|siegel|c2sc2|arch|sgn|eq:1/2|1|st_sl2|t1|uneven\n" + catch_all),
        encoding="utf-8")
    code = main(["poles", "--case", "siegel", "--char-class", "quadratic", "--s0", "1/2",
                 "--place", "arch:sgn:t1", "--rules", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("sp4eis: IndeterminateLeading: ") and err.count("\n") == 1


def test_bad_pole_order_names_its_line(tmp_path, capsys):
    row = "pole|heisenberg|s,c2s,sc2s|nonarch|trivial|eq:-2|1|st_gl2|steinberg|"
    assert row in SHIPPED_RULES
    lineno = SHIPPED_RULES[:SHIPPED_RULES.index(row)].count("\n") + 1
    p = tmp_path / "order2_rules.txt"
    p.write_text(SHIPPED_RULES.replace(row, row.replace("|eq:-2|1|", "|eq:-2|2|")),
                 encoding="utf-8")
    code = main(["verify", "H-", "--rules", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == \
        f"sp4eis: RuleTableError: {p}:{lineno}: pole order must be 0 or 1, got 2\n"


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    """A new interpreter run with ``argv``, the checkout's ``src`` first on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def test_cli_import_leaves_out_toml_and_theorems():
    # only load_scenario reads TOML and only verify reads the theorem grids
    code = "import sys, sp4eis.cli; print(sorted({'tomllib', 'sp4eis.theorems'} & set(sys.modules)))"
    done = _fresh_python("-c", code)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_cli_and_theorems_imports_leave_out_dataclasses():
    # the records are NamedTuples or __slots__ classes, so no import of the
    # package loads dataclasses, or inspect, which dataclasses would load
    for module in ("sp4eis.cli", "sp4eis.theorems"):
        code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        done = _fresh_python("-c", code)
        assert (done.returncode, done.stdout) == (0, "[]\n"), (module, done.stderr)


def test_python_m_sp4eis_runs_main_and_returns_its_exit_code():
    done = _fresh_python("-m", "sp4eis", "numcheck", "--modulus", "4", "--json")
    assert done.returncode == 0, done.stderr
    assert pins.sha256(done.stdout) == pinned(NUMCHECK[4])
    done = _fresh_python("-m", "sp4eis", "verify", "XX")
    assert (done.returncode, done.stdout) == (2, "")
    assert "error: argument theorem: unknown theorem id 'XX'" in done.stderr
