"""Every stored engine output: one digest, one reader, one replay, one writer.

A store is a tab-separated file under ``data/``: a ``# `` header, then one
row per key in file order, key fields before pinned values.  Each pin
module declares one as ``STORE``, its rows computed from the module's key
generator.  ``replay`` asserts that a store rendered now is its committed
text; otherwise it lists the moved keys, grouped by their leading key
fields, old -> new.  Run as a script, this writes the same render to every
store and prints those lists, which a change that moves output on purpose
pastes into CHANGES.md.  It takes no flags:

    PYTHONPATH=src python tests/pins.py
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from sp4eis import cli

DATA = Path(__file__).resolve().parent / "data"
# the modules that declare a STORE, in the order the script writes them
MODULES = ("test_offgrid", "test_profile_pins", "test_groups", "test_numerics_pins", "test_cli")

Row = tuple[str, ...]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest(obj) -> str:
    """The first 16 hex characters of the sha256 of ``obj``'s canonical JSON."""
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")))[:16]


def outcome(compute: Callable, *args) -> str:
    """The digest of ``compute(*args).to_json()``, or ``error:<Class>`` for a
    typed error: an exception class that ``sp4eis`` defines."""
    try:
        report = compute(*args)
    except Exception as exc:  # noqa: BLE001 - typed errors are part of the pins
        if not type(exc).__module__.startswith("sp4eis."):
            raise
        return "error:" + type(exc).__name__
    return digest(report.to_json())


def cli_sha256(argv: list[str]) -> str:
    """The sha256 of the stdout of ``sp4eis argv``, run in process; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    return sha256(buf.getvalue())


class Store(NamedTuple):
    """A pin file, its header, its key width and its rows."""
    path: Path
    header: str
    keys: int
    rows: Callable[[], list[Row]]


def read(path: Path) -> list[Row]:
    """The rows of a tab-separated pin file, comment lines left out."""
    return [tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def render(store: Store) -> str:
    """The store's text now: the header, then every row the code computes."""
    return "\n".join(["# " + store.header, *map("\t".join, store.rows())]) + "\n"


def moved(store: Store, old: str, new: str) -> str:
    """The keys whose row differs between two texts of a store, grouped by
    all their key fields but the last, old -> new ("-" for no row).  The
    header counts as a row, so a changed header shows as two."""
    if old == new:
        return f"{store.path.name}: unchanged"
    before, after = ({row[:store.keys]: " | ".join(row[store.keys:])
                      for row in (tuple(line.split("\t")) for line in text.splitlines())}
                     for text in (old, new))
    groups: dict[Row, list[str]] = {}
    for key in {**before, **after}:
        if before.get(key) != after.get(key):
            groups.setdefault(key[:-1], []).append(
                f"    {key[-1]}: {before.get(key, '-')} -> {after.get(key, '-')}")
    out = [f"{store.path.name}, moved keys: {sum(map(len, groups.values()))}"]
    for group, items in groups.items():
        out += ["  " + "\t".join(group), *items] if group else items
    if not groups:
        out.append("  the same rows, in another order or repeated")
    return "\n".join(out)


def replay(store: Store) -> None:
    """Fail unless the store rendered now is its committed text."""
    committed = store.path.read_text(encoding="utf-8")
    if (now := render(store)) != committed:
        raise AssertionError(moved(store, committed, now))


def main() -> None:
    if sys.argv[1:]:
        sys.exit("usage: PYTHONPATH=src python tests/pins.py (no arguments)")
    for name in MODULES:
        store = importlib.import_module(name).STORE
        old = store.path.read_text(encoding="utf-8") if store.path.exists() else ""
        new = render(store)
        store.path.write_text(new, encoding="utf-8")
        print(moved(store, old, new))


if __name__ == "__main__":
    main()
