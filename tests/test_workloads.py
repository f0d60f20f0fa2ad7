"""The benchmark's inputs are the package's own.

``perfbench/workloads.py`` restates two facts of ``sp4eis`` instead of
reading them: the sweep's profile (the choice at the real place, which
carries the global class' archimedean stand-in) and each theorem's case
(read from the first letter of its id).  A drift in either would change
what the benchmark runs and fail nothing else, so this loads the module
read-only, as ``test_layertrace.py`` loads the tracer, and checks both
against ``scenario.default_arch_class`` and ``theorems.THEOREMS``.
"""

import importlib.util
from pathlib import Path

from sp4eis.characters import CharClass
from sp4eis.constant_term import Place, PlaceProfile
from sp4eis.scenario import default_arch_class
from sp4eis.theorems import THEOREMS

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("sp4eis_workloads_under_test", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_profile_is_the_scenario_default():
    workloads = _workloads()
    assert len(workloads.Sweep.cells) == 30
    for _, cls, choice in workloads.Sweep.cells:
        assert workloads.sweep_profile(cls, choice) == \
            PlaceProfile((Place("arch", default_arch_class(CharClass(cls)), choice),))


def test_grid_rows_run_their_theorem_case():
    rows = _workloads().Grids().rows
    assert len(rows) == 75
    for (tid, _, _), (case, _) in rows.items():
        assert case == THEOREMS[tid][0], tid
