"""Parametrized test ids name a character class as ``CharClass.TRIVIAL``.

``CharClass`` is a ``StrEnum``, and pytest names a string parameter by its
text; this hook keeps the ids that name a class by its member, as they
read while the class was a plain ``Enum``.  A test that passes its own
``ids`` is not affected.
"""

from sp4eis.characters import CharClass


def pytest_make_parametrize_id(config, val, argname):
    if isinstance(val, CharClass):
        return f"CharClass.{val.name}"
    return None
