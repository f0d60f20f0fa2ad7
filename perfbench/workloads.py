"""The three benchmark workloads: inputs from a seed, operations, references.

Every workload is a closed loop with one caller: the next operation is
issued when the previous one returns.  Inputs come in *passes* whose
make-up does not depend on the seed (the seed sets order and, for
``sweep``, which points of the space are drawn), and a run always ends on
a whole pass, so runs with different seeds do comparable work.

* ``grids``: one operation is one ``eisenstein_order`` call for one row
  of the theorem grids H+, H-, S+ and S- (75 rows); a pass is every row
  once, in a seeded order.
* ``sweep``: one operation is one ``eisenstein_order`` call for one point
  of case x class x choice x s0, s0 in (1/8)Z within [-6, 6] (2,910
  points).  A pass issues one call per (case, class, choice) cell; each
  cell walks the s0 grid with a stride of 37 from a seeded offset.
* ``numeric``: one operation is one ``checks.check_*`` family call; a
  pass runs the battery once for each built-in conductor, in a seeded
  order.

Outputs are compared with the references under ``refs/``.  Reports are
compared through a digest of their canonical JSON, typed errors (classes
defined by the package) through their class name.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
SCENARIOS = ROOT / "scenarios"

CASES = ("heisenberg", "siegel")
CLASSES = ("trivial", "quadratic", "other")
CHOICES = ("spherical", "langlands", "steinberg", "t1", "carrier")
S0_GRID = tuple(Q(k, 8) for k in range(-48, 49))
SWEEP_STRIDE = 37          # coprime to the 97 grid points
CONDUCTORS = (3, 4, 5, 7, 8, 11, 12)


class EngineMissing(RuntimeError):
    """The checkout holds no importable sp4eis package."""


def import_engine() -> None:
    """Import sp4eis from the checkout's ``src`` directory."""
    if not (SRC / "sp4eis" / "__init__.py").is_file():
        raise EngineMissing(f"no sp4eis package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sp4eis.cli  # noqa: F401  (loads every module of the package)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def is_typed_error(exc: BaseException) -> bool:
    return type(exc).__module__.startswith("sp4eis.")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``sp4eis`` in-process; returns the exit code and stdout."""
    from sp4eis import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup_engine() -> None:
    """The set-up path users pay once per process (timed as ``setup_s``).

    Loads the rule table, builds both coset tables and fills all 24
    ``factor_expression`` keys (2 cases x 4 elements x 3 classes).
    """
    from sp4eis import constant_term, localrules
    from sp4eis.characters import CharClass

    localrules.default_rules()
    for case in CASES:
        for w in constant_term.coset_representatives(case):
            for cls in CLASSES:
                constant_term.factor_expression(case, w, CharClass(cls))


class Workload:
    """Inputs, one operation, and its reference for one workload."""

    name = ""
    ref_file = ""

    def __init__(self):
        self._ref = None

    # inputs
    def passes(self, seed: int):
        """Endless iterator of passes (lists of operation keys)."""
        raise NotImplementedError

    def unit(self, seed: int) -> list:
        """The fixed pass the traced run executes (same work for every seed)."""
        raise NotImplementedError

    # one operation
    def call(self, key, rules=None):
        raise NotImplementedError

    def outcome(self, result):
        raise NotImplementedError

    # references
    def reference(self) -> dict:
        if self._ref is None:
            self._ref = self.load_reference()
        return self._ref

    def expected(self, key):
        return self.reference()[key]

    def load_reference(self) -> dict:
        raise NotImplementedError

    def regenerate(self) -> None:
        raise NotImplementedError

    def cli_checks(self) -> list[tuple[str | None, list[str], str]]:
        """Whole-output checks run after the loop, through the CLI.

        Each is ``(span name or None, argv, expected stdout sha256)``; the
        traced run spans the checks that name a span and runs the others
        after tracing stops.
        """
        return []


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class Grids(Workload):
    name = "grids"
    ref_file = "grids.json"

    def __init__(self):
        super().__init__()
        from sp4eis import theorems

        self.rows = {}
        for tid in theorems.theorem_ids():
            case = "heisenberg" if tid.startswith("H") else "siegel"
            for clause in theorems.THEOREMS[tid][1]():
                for row in clause.rows:
                    key = (tid, clause.key, row.label)
                    if key in self.rows:
                        raise ValueError(f"duplicate grid row {key}")
                    self.rows[key] = (case, row)
        self.keys = list(self.rows)

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            keys = list(self.keys)
            rng.shuffle(keys)
            yield keys

    def unit(self, seed: int) -> list:
        return next(self.passes(seed))

    def call(self, key, rules=None):
        from sp4eis.constant_term import eisenstein_order

        case, row = self.rows[key]
        return eisenstein_order(case, row.profile, row.s0, row.cls, rules=rules)

    def outcome(self, result):
        return digest(result.to_json())

    def load_reference(self) -> dict:
        data = json.loads((REFS / self.ref_file).read_text(encoding="utf-8"))
        self.cli_ref = {"verify": data["verify_json_sha256"], **data["poles_json_sha256"]}
        return {(r["theorem"], r["clause"], r["row"]): r["report"] for r in data["rows"]}

    def scenario_files(self) -> list[Path]:
        return sorted(SCENARIOS.glob("*.toml"))

    def cli_checks(self) -> list[tuple[str | None, list[str], str]]:
        """``poles --scenario F --json`` for each scenario, and ``verify --json``."""
        self.reference()
        out = [("cli.poles_scenario", ["poles", "--scenario", str(p), "--json"],
                self.cli_ref.get(p.name, "")) for p in self.scenario_files()]
        out.append((None, ["verify", "--json"], self.cli_ref["verify"]))
        return out

    def regenerate(self) -> None:
        from sp4eis import theorems

        rows = []
        for tid in theorems.theorem_ids():
            for r in theorems.verify_theorem(tid).rows:
                key = (tid, r.clause, r.label)
                rows.append({"theorem": tid, "clause": r.clause, "row": r.label,
                             "pass": r.ok, "report": digest(r.report.to_json())})
                if rows[-1]["report"] != self.outcome(self.call(key)):
                    raise RuntimeError(f"grid row {key} is not deterministic")
        _, verify = run_cli(["verify", "--json"])
        poles = {p.name: sha256_text(run_cli(["poles", "--scenario", str(p), "--json"])[1])
                 for p in self.scenario_files()}
        _write_json(self.ref_file, {
            "verify_json_sha256": sha256_text(verify),
            "poles_json_sha256": poles,
            "rows": rows,
        })


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def sweep_profile(cls: str, choice: str):
    """One profile per point: the choice at the real place.

    The real place carries the global class' archimedean stand-in
    (trivial, or the infinite-order class for ``other``).
    """
    from sp4eis.characters import CharClass
    from sp4eis.constant_term import Place, PlaceProfile

    arch = CharClass.OTHER if cls == "other" else CharClass.TRIVIAL
    return PlaceProfile((Place("arch", arch, choice),))


class Sweep(Workload):
    name = "sweep"
    ref_file = "sweep.tsv"

    cells = [(case, cls, choice) for case in CASES for cls in CLASSES for choice in CHOICES]

    def passes(self, seed: int):
        rng = random.Random(seed)
        offsets = [rng.randrange(len(S0_GRID)) for _ in self.cells]
        r = 0
        while True:
            order = list(range(len(self.cells)))
            rng.shuffle(order)
            yield [self._point(c, offsets[c] + SWEEP_STRIDE * r) for c in order]
            r += 1

    def unit(self, seed: int) -> list:
        # four points per cell, spread over the grid; the seed sets the order
        keys = [self._point(c, 17 * c + SWEEP_STRIDE * i)
                for c in range(len(self.cells)) for i in range(4)]
        random.Random(seed).shuffle(keys)
        return keys

    def _point(self, cell: int, index: int):
        return self.cells[cell] + (str(S0_GRID[index % len(S0_GRID)]),)

    def space(self) -> list:
        return [cell + (str(s0),) for cell in self.cells for s0 in S0_GRID]

    def call(self, key, rules=None):
        from sp4eis.characters import CharClass
        from sp4eis.constant_term import eisenstein_order

        case, cls, choice, s0 = key
        return eisenstein_order(case, sweep_profile(cls, choice), Q(s0), CharClass(cls),
                                rules=rules)

    def outcome(self, result):
        return digest(result.to_json())

    def load_reference(self) -> dict:
        out = {}
        for line in (REFS / self.ref_file).read_text(encoding="utf-8").splitlines():
            if line and not line.startswith("#"):
                case, cls, choice, s0, value = line.split("\t")
                out[(case, cls, choice, s0)] = value
        return out

    def regenerate(self) -> None:
        lines = ["# case\tclass\tchoice\ts0\treport digest, or error:<typed error class>"]
        for key in self.space():
            try:
                value = self.outcome(self.call(key))
            except Exception as exc:  # noqa: BLE001 - only typed errors are kept
                if not is_typed_error(exc):
                    raise
                value = "error:" + type(exc).__name__
            lines.append("\t".join(key + (value,)))
        (REFS / self.ref_file).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# numeric
# ---------------------------------------------------------------------------

def battery(modulus: int) -> list[tuple[int, str, int | None]]:
    """The family calls of ``checks.run_numeric_checks(modulus)``, in order."""
    calls = [(modulus, name, None) for name in (
        "check_zeta_closed_forms", "check_reflection", "check_residues",
        "check_cancellation_limits")]
    calls.append((modulus, "check_functional_equation", modulus))
    if modulus != 5:
        calls.append((modulus, "check_functional_equation", 5))
    calls += [(modulus, "check_quadratic_derivative", modulus),
              (modulus, "check_parity_cancellation", modulus),
              (modulus, "check_order_oracle", None)]
    return calls


class Numeric(Workload):
    name = "numeric"
    ref_file = "numeric.json"

    def passes(self, seed: int):
        rng = random.Random(seed)
        while True:
            conductors = list(CONDUCTORS)
            rng.shuffle(conductors)
            yield [key for m in conductors for key in battery(m)]

    def unit(self, seed: int) -> list:
        return next(self.passes(seed))

    def call(self, key, rules=None):
        from sp4eis import checks

        _, name, arg = key
        fn = getattr(checks, name)
        return fn() if arg is None else fn(arg)

    def outcome(self, result):
        return [[r.name, r.ok] for r in result]

    def load_reference(self) -> dict:
        data = json.loads((REFS / self.ref_file).read_text(encoding="utf-8"))
        return {(int(m), name, arg): value
                for m, calls in data.items() for name, arg, value in calls}

    def regenerate(self) -> None:
        from sp4eis.checks import run_numeric_checks

        data = {}
        for m in CONDUCTORS:
            calls = [[name, arg, self.outcome(self.call((m, name, arg)))]
                     for _, name, arg in battery(m)]
            whole = [pair for _, _, value in calls for pair in value]
            if whole != self.outcome(run_numeric_checks(m)):
                raise RuntimeError(f"battery({m}) does not mirror run_numeric_checks({m})")
            data[str(m)] = calls
        _write_json(self.ref_file, data)


def _write_json(name: str, data) -> None:
    REFS.mkdir(exist_ok=True)
    (REFS / name).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


WORKLOADS = {"grids": Grids, "sweep": Sweep, "numeric": Numeric}
