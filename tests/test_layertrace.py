"""The benchmark's layer tracer fits the package as it is.

``perfbench/layertrace.py`` wraps functions and methods of ``sp4eis`` by
name.  A rename in the package would break ``perfbench/run.py --trace 1``
without failing anything else, so this installs the tracer on the
current package, checks that every span and counter hook took hold, and
checks that ``uninstall`` puts back each original object.
"""

import importlib
import importlib.util
import sys
from fractions import Fraction as Q
from pathlib import Path

from sp4eis.characters import CharClass
from sp4eis.normfactor import LExpression

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("sp4eis_layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict[tuple[str, str, str], object]:
    """Every attribute of every loaded sp4eis module and of its classes."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname != "sp4eis" and not modname.startswith("sp4eis."):
            continue
        for attr, value in vars(module).items():
            out[(modname, "", attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for name, member in vars(value).items():
                    out[(modname, attr, name)] = member
    return out


def _owner(modname: str, qualname: str):
    owner = sys.modules[modname]
    for part in qualname.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, qualname.rsplit(".", 1)[-1]


def test_tracer_installs_on_every_name_and_restores_each_original():
    lt = _layertrace()
    for modname, _ in lt.SPANNED:
        importlib.import_module(modname)
    from sp4eis import constant_term, germs

    before = _bindings()
    originals = {}
    for modname, qualname in lt.SPANNED:
        owner, attr = _owner(modname, qualname)
        assert attr in owner.__dict__, f"{modname}.{qualname} is gone"
        originals[(modname, qualname)] = owner.__dict__[attr]
    hooks = [(germs.Series, name) for name in ("__mul__", "inverse", "__init__", "leading")]
    hooks += [(germs.FormalScalar, "__init__")]
    hook_originals = [owner.__dict__[name] for owner, name in hooks]

    tracer = lt.Tracer()
    tracer.install()
    try:
        for (modname, qualname), original in originals.items():
            owner, attr = _owner(modname, qualname)
            assert owner.__dict__[attr] is not original, f"{modname}.{qualname} not wrapped"
        for (owner, name), original in zip(hooks, hook_originals):
            assert owner.__dict__[name] is not original, f"{owner.__name__}.{name} not counted"
        # a by-name import is wrapped too: constant_term binds order_at itself
        expr = LExpression.build(Q(1), {})
        germs.order_at(expr, CharClass.TRIVIAL, Q(0))
        constant_term.order_at(expr, CharClass.TRIVIAL, Q(0))
        assert tracer.ncalls["germs.order_at"] == 2
        germs.FormalScalar.rational(1)
        assert tracer.counters["germs.scalar_new"] == 1
    finally:
        tracer.uninstall()

    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert not moved
