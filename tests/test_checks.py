"""Numeric battery: the checks read the engine's memoized factors and
evaluate each completed value once per family call."""

import pytest

from sp4eis import checks, numerics
from sp4eis.characters import CharClass, heisenberg_lambda, siegel_lambda
from sp4eis.checks import _expression_for, oracle_grid
from sp4eis.normfactor import canonicalize, inverse_norm_factor
from sp4eis.roots import CRootSystem

QU = CharClass.QUADRATIC

ROWS = sorted({(case, element, cls) for case, element, cls, *_ in oracle_grid()}
              | {("siegel", "sc2", QU), ("siegel", "c2sc2", QU)},
              key=lambda r: (r[0], r[1], r[2].value))


@pytest.mark.parametrize("case, element, cls", ROWS,
                         ids=[f"{c}-{e}-{k.value}" for c, e, k in ROWS])
def test_memoized_factor_matches_a_fresh_system(case, element, cls):
    # the element comes from a newly built group, the factor is computed
    # without the memo
    w = CRootSystem().element_by_name(element)
    lam = heisenberg_lambda() if case == "heisenberg" else siegel_lambda()
    fresh = canonicalize(inverse_norm_factor(lam, w), cls)
    assert _expression_for(case, element, cls) == fresh


FAMILIES = ("check_zeta_closed_forms", "check_reflection", "check_residues",
            "check_cancellation_limits", "check_functional_equation",
            "check_quadratic_derivative", "check_parity_cancellation", "check_order_oracle")
VALUES = ("completed_zeta", "completed_dirichlet", "zeta_em")

# (completed_zeta, completed_dirichlet, zeta_em) calls of each family call;
# the battery of every conductor makes the same calls
CALLS = {
    "check_zeta_closed_forms": (1, 0, 6),
    "check_reflection": (25, 0, 40),
    "check_residues": (3, 0, 0),
    "check_cancellation_limits": (6, 0, 0),
    "check_functional_equation": (0, 16, 0),
    "check_quadratic_derivative": (0, 2, 0),
    "check_parity_cancellation": (6, 9, 0),
    "check_order_oracle": (107, 31, 0),
}


def _battery_calls(monkeypatch, modulus):
    """(family, [(function, *args), ...]) for each family call of the battery.

    Every value function is wrapped wherever the package names it, so calls
    made inside another one (``completed_zeta`` through ``zeta_em``, say)
    count too.
    """
    log = []
    for name in FAMILIES:
        def family(*args, name=name, f=getattr(checks, name)):
            log.append((name, []))
            return f(*args)
        monkeypatch.setattr(checks, name, family)
    for name in VALUES:
        def value(*args, name=name, f=getattr(numerics, name)):
            log[-1][1].append((name, *args))
            return f(*args)
        for module in (numerics, checks):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, value)
    checks.run_numeric_checks(modulus)
    return log


@pytest.mark.parametrize("modulus", sorted(numerics.QUADRATIC_DISCRIMINANTS))
def test_each_family_evaluates_each_value_once(monkeypatch, modulus):
    log = _battery_calls(monkeypatch, modulus)
    assert [name for name, _ in log] == [
        n for n in FAMILIES
        for _ in range(2 if n == "check_functional_equation" and modulus != 5 else 1)]
    for name, calls in log:
        repeats = [c for i, c in enumerate(calls) if c in calls[:i]]
        assert not repeats, (name, repeats)
        assert tuple(sum(c[0] == f for c in calls) for f in VALUES) == CALLS[name], name


def test_no_dirichlet_table_is_hashed_or_compared(monkeypatch):
    # the battery takes its L-values through one memo per conductor, keyed
    # on the point alone, so a table is never a key
    calls = []
    for name in ("__hash__", "__eq__"):
        def counted(*args, name=name, f=getattr(numerics.DirichletTable, name)):
            calls.append(name)
            return f(*args)
        monkeypatch.setattr(numerics.DirichletTable, name, counted)
    for modulus in sorted(numerics.QUADRATIC_DISCRIMINANTS):
        checks.run_numeric_checks(modulus)
    assert not calls
