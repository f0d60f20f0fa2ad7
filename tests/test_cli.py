"""Command-line interface: output shapes, determinism, exit codes."""

import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from sp4eis.cli import main
from sp4eis.scenario import ScenarioError, scenario_from_dict

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


# sha256 of `sp4eis weyl --case all --full --json`: coset tables, negative
# root sets, targets and the whole group, pinned byte for byte
WEYL_FULL_SHA256 = "195ec2005718397f58623756fceeb8b5b4d46decb3ecbf73238fb1208d5567b2"


def test_weyl_json_deterministic(capsys):
    _, out1 = run(capsys, "weyl", "--case", "all", "--full", "--json")
    _, out2 = run(capsys, "weyl", "--case", "all", "--full", "--json")
    assert out1 == out2
    assert hashlib.sha256(out1.encode("utf-8")).hexdigest() == WEYL_FULL_SHA256
    data = json.loads(out1)
    assert [r["name"] for r in data["cases"]["siegel"]] == ["id", "c2", "sc2", "c2sc2"]
    assert len(data["group"]) == 8


# sha256 of `sp4eis numcheck --modulus Q --json`: every check name, pass
# flag, measured value and bound, pinned byte for byte
NUMCHECK_SHA256 = {
    3: "955d45b6751f7642c09ae106c04c9ebd07f0457fb87f7d353de4787ef36b8067",
    4: "591b2c7a0b555c61cf0cdd0ffaaaedbf9be99d3cecee6ced8fbb358b34ceb5cd",
    5: "bd6b58d9309226b2ce0ff16f8f59ece704f921ea6bcb8b898e40b2e25ded6d0f",
    7: "6822d01f260c90e011e68fdc0e012556fa2985a59ad5216c113badaac7bc1fa5",
    8: "8ab01536454935b56811dcb43d2febbd2982329b10dc08906da8ce26c8a6ee65",
    11: "791d395ca59108a569889e4f4dba05e78ec8b527960fa563695a679462a39666",
    12: "6d5e26b1486cff4ae23224e783061b5774636eaf9a56ed8b3ca49fce8208c99e",
}


@pytest.mark.parametrize("modulus", sorted(NUMCHECK_SHA256))
def test_numcheck_json_pinned(capsys, modulus):
    code, out = run(capsys, "numcheck", "--modulus", str(modulus), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NUMCHECK_SHA256[modulus]


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# sha256 of stdout for the outputs no other pin covers: the text of every
# subcommand (siegel_strip_window.toml renders a strip-conditional order,
# `0 -ord[L(s+3/2,1) at 1/2]`), normfactor --json, and an element named
# by a word that is neither a canonical name nor an alias (`ss`)
OUTPUT_SHA256 = {
    "poles --scenario heisenberg_poles.toml":
        "857d74cec3afad884ae274aced4a1c9aa66af04f1d14df1cd55d7f95467c6778",
    "poles --scenario heisenberg_steinberg_tower.toml":
        "0810f5b8fbfe20badcfc7c7fb30204b1f399b39f03834200654441efea6f38ef",
    "poles --scenario siegel_half_quadratic.toml":
        "9812f97c7618685ad9f61ac7417a598d9a896dcf0da944e0ef7351a955ea5449",
    "poles --scenario siegel_strip_window.toml":
        "c5c0ab38b2ac4fad29de96d6782d712f574b1e4b01268c6216dbf64f70e961aa",
    "verify": "49dd7de03f8285d30c8fc3cd7a4215e760f46fb287e83409ec1c8f8bfbef69cd",
    "weyl --full": "e8fb3f20eed0b88c6fd537ed9568e4d29a98e07722c50717c27109a1bd9ebc73",
    "numcheck --modulus 4": "32e07f504e61957cf8d3c634cd019d857f84b3e7c7eb6d28f354c9acca405aaf",
    "normfactor --case siegel --w c2sc2s --char-class quadratic --json":
        "a4f13a3de27862f61a7248d3703a59d156c9235889dcd6b394bd409190becdcb",
    "normfactor --case siegel --w ss":
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
}


def _argv(command: str) -> list[str]:
    return [str(SCENARIOS / a) if a.endswith(".toml") else a for a in command.split()]


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_output_pinned(capsys, command):
    code, out = run(capsys, *_argv(command))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == OUTPUT_SHA256[command]


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
    # a bare --s0 is given too, and still means s0 = 0 without a file
    assert main(["poles", "--scenario", str(SCENARIOS / "heisenberg_poles.toml"), "--s0"]) == 2
    assert "with --s0\n" in capsys.readouterr().err
    code, out = run(capsys, "poles", "--s0", "--json")
    assert code == 0
    assert [r["s0"] for r in json.loads(out)["reports"]] == ["0"]


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
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NUMCHECK_SHA256[4]


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
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    bad = text.replace(
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


SHIPPED_RULES = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()

# rule tables with one malformed field: condition points with a zero
# denominator, a misspelt parity, an unknown condition kind, a misspelt
# carrier, a restated carrier choice and a kernel on a relative row; and
# one with a relative row naming the wrong base
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
    assert lines[0].startswith(f"sp4eis: {error}: "), lines[0]


def test_unknown_theorem_id_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "X+"])
    assert exc.value.code == 2
    assert "unknown theorem id 'X+'" in capsys.readouterr().err


def test_unknown_weyl_word_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["normfactor", "--case", "heisenberg", "--w", "zz"])
    assert exc.value.code == 2
    assert "cannot parse Weyl word 'zz'" in capsys.readouterr().err


def test_misspelt_rule_token_exit_2(tmp_path, capsys):
    # with 'steinbreg' the arch Steinberg row matched no choice, so the pole
    # at -4 silently became order 0 and the run exited 0
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    row = "pole|heisenberg|s,c2s,sc2s|arch|trivial|int:0:even:lt-1|1|arch_nonlanglands|" \
        "steinberg|"
    assert row in text
    lineno = text[:text.index(row)].count("\n") + 1
    p = tmp_path / "typo_rules.txt"
    p.write_text(text.replace(row, row.replace("|steinberg|", "|steinbreg|")), encoding="utf-8")
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
    import importlib.resources
    text = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()
    catch_all = "pole|siegel|c2,sc2,c2sc2|*|*|always|0|||holomorphic otherwise\n"
    assert catch_all in text
    p = tmp_path / "uneven_rules.txt"
    p.write_text(text.replace(
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


def test_cli_import_leaves_out_toml_and_theorems():
    # only load_scenario reads TOML and only verify reads the theorem grids
    code = "import sys, sp4eis.cli; print(sorted({'tomllib', 'sp4eis.theorems'} & set(sys.modules)))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
