"""A grammar fuzz of the command line: no argv escapes the exit contract.

Seeded argv are drawn from a small grammar: every subcommand and flag,
valid and invalid values, empty and repeated options, negative
fractions, and ``--out`` pointing only inside ``tmp_path`` (a file, a
file in a missing directory, the directory itself) or empty.  Each is
run through ``cli.main`` in process.  Every run exits 0, 1 or 2 (an
argparse ``SystemExit`` counts by its code) and prints no traceback; on
exit 2 the last stderr line is a typed error, ``sp4eis: <Class>: ...``,
or argparse's ``...: error: ...``.
"""

import random
import re

from sp4eis.cli import main
from test_cli import SCENARIOS, SHIPPED_RULES

SEED = 20261020
RUNS = 500
TYPED_ERROR = re.compile(r"sp4eis: [A-Za-z]+: ")

# value pools, each a pair (valid values, invalid values); a value is drawn
# from the pool its option names
VALUES = {
    "case": (("heisenberg", "siegel", "all"), ("klingen", "")),
    "w": (("id", "s", "c2", "sc2", "c2s", "c2sc2", "sc2s", "c2sc2s", "c1", "1", "e"), ("ss", "")),
    "class": (("trivial", "quadratic", "other"), ("sgn", "bogus", "")),
    "s0": (("0", "1/2", "-1/2", "-3/2", "2", "5/3", "-7/8", "-6", "12", "-0.5", "1e-3", "1e400",
            "99999999999999999999/7", "1_000", " 1/2"),
           ("x", "1/0", "inf", "")),
    "place": (("arch:trivial:spherical", "arch:sgn:t1", "arch:other:carrier",
               "nonarch:quadratic:t2", "nonarch:trivial:steinberg", "nonarch:other:langlands"),
              ("arch:trivial:bogus", "finite:trivial:spherical", "arch:trivial", "a:b:c:d", "")),
    "modulus": (("3", "4", "5", "12"), ("6", "-4", "4.0", "")),
    "theorem": (("H+", "H-", "S+", "S-"), ("X+", "")),
}
# each subcommand's flags: None for a switch, else the pool of its value;
# a pool ending in "*" gives the option any number of values
FLAGS = {
    "weyl": {"--case": "case", "--full": None},
    "normfactor": {"--case": "case", "--w": "w", "--char-class": "class"},
    "poles": {"--scenario": "file", "--case": "case", "--char-class": "class", "--s0": "s0*",
              "--place": "place*", "--rules": "rules"},
    "verify": {"--rules": "rules"},
    "numcheck": {"--modulus": "modulus", "--scenario": "file"},
}
COMMON = {"--json": None, "--out": "out"}
# poles has the most flags and values, so it is drawn three times as often
COMMANDS = ("poles", "poles", *FLAGS, "-h", "bogus", "")


def draw(rng: random.Random, values: dict) -> list[str]:
    """One argv of valid values, one of them made invalid in half the draws."""
    command = rng.choice(COMMANDS)
    argv, slots = [command], []

    def add(pool: str) -> None:
        slots.append((len(argv), pool))
        argv.append(rng.choice(values[pool][0]))

    if command == "verify":
        for _ in range(rng.choice((0, 0, 1, 2))):
            add("theorem")
    flags = {**FLAGS.get(command, {}), **COMMON}
    for flag in rng.choices(list(flags), k=rng.choice((0, 1, 2, 3, 4, 5))):
        argv.append(flag)
        pool = flags[flag]
        if pool is not None:
            many = pool.endswith("*")
            for _ in range(rng.choice((0, 1, 2, 3) if many else (0, 1, 1, 1, 1, 2))):
                add(pool.rstrip("*"))
    if slots and rng.random() < 0.5:
        i, pool = rng.choice(slots)
        argv[i] = rng.choice(values[pool][1])
    return argv


def test_every_drawn_argv_keeps_the_exit_contract(tmp_path, capsys):
    out = tmp_path / "out.txt"
    # a well-formed table on which verify H- fails (exit 1); a run without
    # --rules reads the shipped one
    rules = tmp_path / "rules.txt"
    rules.write_text(SHIPPED_RULES.replace("|nonarch|trivial|eq:-2|", "|nonarch|trivial|eq:-3|"),
                     encoding="utf-8")
    scenarios = [str(p) for p in sorted(SCENARIOS.glob("*.toml"))]
    elsewhere = (str(tmp_path), str(tmp_path / "missing" / "out.txt"), "")
    values = dict(VALUES, out=((str(out),), elsewhere),
                  file=(scenarios, (str(rules), *elsewhere)),
                  rules=((str(rules),), (scenarios[0], str(out), *elsewhere)))
    rng = random.Random(SEED)
    codes = {}
    for _ in range(RUNS):
        argv = draw(rng, values)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in captured.out + captured.err, argv
        if code == 2:
            last = captured.err.splitlines()[-1]
            assert TYPED_ERROR.match(last) or ": error: " in last, (argv, captured.err)
        codes[code] = codes.get(code, 0) + 1
    # the draws reach every exit code
    assert codes.keys() == {0, 1, 2}, codes
