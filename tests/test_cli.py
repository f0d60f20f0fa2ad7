"""Command-line interface: output shapes, determinism, exit codes."""

import hashlib
import importlib.resources
import json
import os
import subprocess
import sys
import tomllib

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
    4: "591b2c7a0b555c61cf0cdd0ffaaaedbf9be99d3cecee6ced8fbb358b34ceb5cd",
    5: "bd6b58d9309226b2ce0ff16f8f59ece704f921ea6bcb8b898e40b2e25ded6d0f",
}


@pytest.mark.parametrize("modulus", sorted(NUMCHECK_SHA256))
def test_numcheck_json_pinned(capsys, modulus):
    code, out = run(capsys, "numcheck", "--modulus", str(modulus), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == NUMCHECK_SHA256[modulus]


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


def test_poles_place_flags(capsys):
    code, out = run(capsys, "poles", "--case", "heisenberg", "--s0", "-2",
                    "--place", "arch:trivial:spherical",
                    "nonarch:trivial:steinberg", "nonarch:trivial:steinberg",
                    "--json")
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["combined"]["pole_order"] == 1


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


# scenario files with a value of the wrong type, after a valid case line
WRONG_TYPES = {
    "class_int.toml": "char_class = 1\n",
    "place_class_int.toml": '[[places]]\nkind = "arch"\nclass = 3\n',
    "place_int.toml": "places = [1]\n",
    "s0_int.toml": "s0 = 2\n",
    "checks_str.toml": 'checks = "poles"\n',
    "modulus_float.toml": "modulus = 4.5\n",
    "modulus_zero.toml": "modulus = 0\n",
    "unknown_key.toml": 'char-class = "quadratic"\n',
    "place_unknown_key.toml": '[[places]]\nkind = "arch"\nclas = "sgn"\n',
}


SHIPPED_RULES = importlib.resources.files("sp4eis").joinpath("data/local_rules.txt").read_text()

# rule tables with one malformed field: condition points with a zero
# denominator, and a misspelt carrier
RULE_EDITS = {
    "zero_eq.txt": ("|nonarch|trivial|eq:-2|", "|nonarch|trivial|eq:-2/0|"),
    "zero_shift.txt": ("|arch|trivial|int:0:even:lt-1|", "|arch|trivial|int:1/0:even:lt-1|"),
    "zero_bound.txt": ("|arch|trivial|int:0:even:lt-1|", "|arch|trivial|int:0:even:lt1/0|"),
    "carrier_typo.txt": ("|st_gl2|", "|st_gl3|"),
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
])
def test_typed_errors_one_line_exit_2(tmp_path, capsys, argv, error):
    for name, text in WRONG_TYPES.items():
        (tmp_path / name).write_text('case = "siegel"\n' + text, encoding="utf-8")
    for name, (old, new) in RULE_EDITS.items():
        assert old in SHIPPED_RULES
        (tmp_path / name).write_text(SHIPPED_RULES.replace(old, new), encoding="utf-8")
    (tmp_path / "malformed.toml").write_text("case = \n", encoding="utf-8")
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
        "steinberg,carrier|"
    assert row in text
    lineno = text[:text.index(row)].count("\n") + 1
    p = tmp_path / "typo_rules.txt"
    p.write_text(text.replace(row, row.replace("steinberg,", "steinbreg,")), encoding="utf-8")
    code = main(["poles", "--case", "heisenberg", "--s0", "-4",
                 "--place", "arch:trivial:steinberg", "--rules", str(p)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"sp4eis: RuleTableError: {p}:{lineno}: unknown pole choice 'steinbreg'\n"


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
