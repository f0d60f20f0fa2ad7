"""Command-line front end.

Subcommands:

    weyl        coset tables, negative root sets, reduced words
    normfactor  render the inverse normalizing factor of one element
    poles       constant-term pole/image reports for a scenario
    verify      run the theorem grids (H+, H-, S+, S-)
    numcheck    run the numeric verification battery

Each ``cmd_*`` returns its JSON payload, its text lines and its exit
code; ``main`` alone prints, the payload under ``--json`` and the lines
otherwise, to stdout or to the ``--out`` file.  Identical inputs produce
byte-identical output (keys sorted, no timestamps).  The exit code is 0
exactly when every requested check passed, 1 when a check failed, and 2
when the input could not be answered: a usage error, or one of the
typed errors in ``INPUT_ERRORS``, which is printed as one line
``sp4eis: <Class>: <message>`` on stderr; an ``--out`` file that cannot
be written is one of them (``OutputError``).  It is 141 (128 +
SIGPIPE), silently, when the reader of stdout closed the pipe early, as
in ``sp4eis numcheck | head -1``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .characters import CASES, TARGETS, coset_representatives, lambda_for_case, parse_class
from .checks import run_numeric_checks
from .constant_term import ProfileError, eisenstein_order
from .germs import IndeterminateLeading
from .localrules import LOCAL_CLASSES, RuleTableError, UncoveredKey, UnknownChoice, load_rules
from .normfactor import canonicalize, inverse_norm_factor
from .numerics import QUADRATIC_DISCRIMINANTS
from .roots import SP4, WeylElement
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_dict

JSON_KW = dict(indent=2, sort_keys=True)


class OutputError(Exception):
    """The ``--out`` file cannot be written."""


INPUT_ERRORS = (ScenarioError, ProfileError, RuleTableError, UncoveredKey, UnknownChoice,
                IndeterminateLeading, OutputError)

Output = tuple[dict, list[str], int]  # JSON payload, text lines, exit code

# the file options, each with the typed error a problem with its file raises
FILE_OPTIONS = {"scenario": ScenarioError, "rules": RuleTableError, "out": OutputError}


def _emit(args, text: str) -> None:
    if args.out is not None:
        # only the file is guarded: a closed stdout must still reach main as
        # a BrokenPipeError
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"{args.out}: {exc.strerror}") from None
    else:
        print(text)


# ---------------------------------------------------------------------------

def cmd_weyl(args) -> Output:
    cases = CASES if args.case == "all" else [args.case]
    payload = {"schema": "sp4eis-weyl/1", "cases": {}}
    lines = []
    for case in cases:
        rows = []
        for w in coset_representatives(case):
            neg = [tuple(str(c) for c in a) for a in SP4.negative_set(w)]
            target = TARGETS[case][w].render()
            rows.append({
                "name": w.name,
                "word": list(w.word),
                "length": w.length,
                "negative_roots": neg,
                "target": target,
            })
            lines.append(f"{case:11} {w.name:7} length={w.length} "
                         f"negatives={neg} target={target}")
        payload["cases"][case] = rows
    if args.full:
        payload["group"] = [{"name": w.name, "word": list(w.word), "length": w.length}
                            for w in SP4.elements()]
        for w in SP4.elements():
            lines.append(f"{'group':11} {w.name:7} length={w.length}")
    return payload, lines, 0


def _weyl_element(name: str) -> WeylElement:
    """argparse type for ``--w``: an unknown element name is a usage error."""
    try:
        return SP4.element_by_name(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _theorem_id(name: str) -> str:
    """argparse type for ``verify``: an unknown theorem id is a usage error.

    A type rather than ``choices``: with ``nargs="*"``, argparse up to
    Python 3.11 checks the empty list itself against the choices and
    would reject a bare ``verify``.
    """
    from .theorems import theorem_ids  # only verify reads the theorem grids

    ids = theorem_ids()
    if name not in ids:
        raise argparse.ArgumentTypeError(
            f"unknown theorem id {name!r} (choose from {', '.join(ids)})")
    return name


def cmd_normfactor(args) -> Output:
    lam = lambda_for_case(args.case)
    w = args.w  # parsed by _weyl_element
    expr = inverse_norm_factor(lam, w)
    cls = parse_class(args.char_class) if args.char_class else None
    rendered = canonicalize(expr, cls).render() if cls else expr.render()
    return {
        "schema": "sp4eis-normfactor/1",
        "case": args.case, "w": w.name,
        "char_class": args.char_class,
        "inverse_factor": rendered,
    }, [rendered], 0


# the inline profile options of ``poles``, which a scenario file replaces
PROFILE_FLAGS = {"case": "--case", "char_class": "--char-class", "s0": "--s0", "place": "--place"}


def _scenario_from_args(args) -> Scenario:
    given = [flag for dest, flag in PROFILE_FLAGS.items() if getattr(args, dest) is not None]
    if args.scenario is not None:
        if given:
            raise ScenarioError(f"--scenario cannot be combined with {', '.join(given)}")
        return load_scenario(args.scenario)
    # an option not given is left out, so the scenario defaults apply; one
    # given an empty value is passed on, so it is refused as in a file
    data = {"case": args.case or "heisenberg"}
    if args.char_class is not None:
        data["char_class"] = args.char_class
    if args.s0 is not None:
        data["s0"] = args.s0
    if args.place is not None:
        places = []
        for item in args.place:
            bits = item.split(":")
            if len(bits) != 3:
                raise ScenarioError(f"bad --place {item!r}; expected KIND:CLASS:CHOICE")
            places.append({"kind": bits[0], "class": bits[1], "choice": bits[2]})
        data["places"] = places
    return scenario_from_dict(data, source="<args>")


def cmd_poles(args) -> Output:
    scenario = _scenario_from_args(args)
    rules = load_rules(args.rules) if args.rules is not None else None
    reports = [eisenstein_order(scenario.case, scenario.profile, s0,
                                scenario.char_class, rules=rules)
               for s0 in scenario.s0_list]
    lines = []
    for r in reports:
        pole = r.pole_order if r.pole_order is not None else "conditional"
        cond = "".join(f" [{d.symbol} at {d.point}]" for d in r.combined_order.deps)
        lines.append(f"{r.case} chi={r.char_class} s0={r.s0}: "
                     f"pole order {pole}{cond}"
                     + (" constant term vanishes at the point" if r.vanishes_at_point else ""))
        for t in r.terms:
            lines.append(f"  {t.summand.name:6} factor {t.summand.factor.render()}")
            lines.append(f"         order {t.order.render()}  target {t.target}")
        for e in r.image:
            lines.append(f"  image at {e.place}: {e.label} ({e.structure})"
                         + (f" - {e.note}" if e.note else ""))
    return {
        "schema": "sp4eis-poles/1",
        "scenario": scenario.to_json(),
        "reports": [r.to_json() for r in reports],
    }, lines, 0


def cmd_verify(args) -> Output:
    from .theorems import theorem_ids, verify_theorem  # only verify reads the theorem grids

    rules = load_rules(args.rules) if args.rules is not None else None
    ids = args.theorem or theorem_ids()
    reports = [verify_theorem(tid, rules=rules) for tid in ids]
    ok = all(r.passed for r in reports)
    lines = [line for r in reports for line in r.render_lines()]
    return {
        "schema": "sp4eis-verify/1",
        "passed": ok,
        "theorems": [r.to_json() for r in reports],
    }, lines, 0 if ok else 1


def cmd_numcheck(args) -> Output:
    modulus = args.modulus
    if args.scenario is not None:
        if modulus is not None:
            raise ScenarioError("--scenario cannot be combined with --modulus")
        modulus = load_scenario(args.scenario).modulus
    if modulus is None:
        modulus = 4
    if modulus not in QUADRATIC_DISCRIMINANTS:
        raise ScenarioError(f"no built-in quadratic character of conductor {modulus}")
    rows = run_numeric_checks(modulus)
    ok = all(r.ok for r in rows)
    lines = [r.render() for r in rows]
    lines.append(f"{'PASS' if ok else 'FAIL'} numcheck overall "
                 f"({sum(r.ok for r in rows)}/{len(rows)})")
    return {
        "schema": "sp4eis-numcheck/1",
        "passed": ok,
        "checks": [r.to_json() for r in rows],
    }, lines, 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sp4eis",
        description="Pole orders and constant-term images of the two "
                    "degenerate Eisenstein families on Sp(4).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weyl", help="coset tables, negative sets, lengths")
    p.add_argument("--case", choices=[*CASES, "all"], default="all")
    p.add_argument("--full", action="store_true", help="also list the full Weyl group")
    p.set_defaults(func=cmd_weyl)

    p = sub.add_parser("normfactor", help="inverse normalizing factor of one element")
    p.add_argument("--case", choices=CASES, required=True)
    p.add_argument("--w", required=True, type=_weyl_element,
                   help="element name (id, s, c2, sc2, c2s, c2sc2, sc2s, c2sc2s) "
                        "or alias (c1, sc1, c1s, 1, e)")
    # plain strings: argparse prints each choice's repr
    p.add_argument("--char-class", choices=[str(c) for c in LOCAL_CLASSES],
                   help="reduce chi powers for this class")
    p.set_defaults(func=cmd_normfactor)

    p = sub.add_parser("poles", help="constant-term pole/image report")
    # argparse reads an argument that starts with "-" as an option unless it
    # matches this pattern, which covers only -n and -n.m; extend it to -p/q
    # so that `--s0 -1/2 -3/2` gives two points.  _negative_number_matcher is
    # a private argparse attribute (the same from 3.6 to 3.13)
    p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
    p.add_argument("--scenario", help="TOML scenario file")
    # the inline profile options default to None, so that _scenario_from_args
    # can tell which were given; --s0 and --place add to earlier uses
    p.add_argument("--case", choices=CASES)
    p.add_argument("--char-class")
    p.add_argument("--s0", nargs="*", action="extend", help="rational points, e.g. 2 -1/2")
    p.add_argument("--place", nargs="*", action="extend",
                   help="KIND:CLASS:CHOICE, e.g. nonarch:trivial:steinberg")
    p.add_argument("--rules", help="override the local rule table file")
    p.set_defaults(func=cmd_poles)

    p = sub.add_parser("verify", help="run the theorem grids")
    p.add_argument("theorem", nargs="*", type=_theorem_id, help="H+ H- S+ S- (default: all)")
    p.add_argument("--rules", help="override the local rule table file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("numcheck", help="numeric verification battery")
    # --modulus defaults to None, so that a scenario file can refuse it
    p.add_argument("--modulus", type=int, help="quadratic character modulus (default 4)")
    p.add_argument("--scenario", help="TOML scenario file, read for its modulus")
    p.set_defaults(func=cmd_numcheck)

    # main prints every subcommand's output, so each takes the same two options
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write output to a file")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, error in FILE_OPTIONS.items():
            # an empty path would be read as "." (pathlib) or fail unnamed (open)
            if getattr(args, dest, None) == "":
                raise error(f"--{dest} is empty: expected a file path")
        payload, lines, code = args.func(args)
        _emit(args, json.dumps(payload, **JSON_KW) if args.json else "\n".join(lines))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except INPUT_ERRORS as exc:
        # args[0], not str(): str() of a KeyError subclass adds quotes
        message = exc.args[0] if exc.args else ""
        print(f"sp4eis: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
