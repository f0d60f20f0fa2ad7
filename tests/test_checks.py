"""Numeric battery: the checks read the engine's memoized factors."""

import pytest

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
