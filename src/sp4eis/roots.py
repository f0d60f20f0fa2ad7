"""The type-C2 root system of Sp(4) and its Weyl group as signed permutations.

Everything here is exact: roots and coroots are tuples of ``int`` (every
type-C2 root and coroot is integral), and Weyl elements are stored both in
normal form (permutation, signs) and as a reduced word over the simple
reflections, with the traditional generator names ``s`` (swap of the two
coordinates) and ``c2`` (sign flip of the second coordinate).  The group is
the breadth-first closure of the identity under left multiplication by the
generators (``_product``), whose first word to reach an element is a
shortest, hence reduced, one.  It has eight elements, is built once, as the
shared instance :data:`SP4`, and is looked up by element name.  An element
is a plain (perm, signs, word) record.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

RootVector = tuple[int, ...]


def is_negative(v: RootVector) -> bool:
    """A nonzero vector is negative when its first nonzero coordinate is."""
    for c in v:
        if c != 0:
            return c < 0
    raise ValueError("zero vector has no sign")


class WeylElement(NamedTuple):
    """Signed permutation in normal form plus a canonical reduced word.

    ``perm`` and ``signs`` encode the action on basis vectors:
    ``w(e_i) = signs[i] * e_{perm[i]}`` (0-indexed).  ``word`` is the
    canonical reduced word over the simple reflections, each entry a
    generator name such as ``"s"`` or ``"c2"``.  Only :class:`CRootSystem`
    builds elements, one per normal form, so comparing the three fields
    compares normal forms.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    word: tuple[str, ...]

    @property
    def name(self) -> str:
        return "".join(self.word) if self.word else "id"

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, v: RootVector) -> RootVector:
        """Signed-permutation action on a coordinate vector of any numbers."""
        out = [0] * len(self.perm)
        for i, c in enumerate(v):
            out[self.perm[i]] += self.signs[i] * c
        return tuple(out)

    def sort_key(self) -> tuple:
        return (self.length, self.word, self.perm, self.signs)


def _product(w1: WeylElement, w2: WeylElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Normal form (perm, signs) of w1*w2 acting as v -> w1(w2(v))."""
    return (tuple(w1.perm[j] for j in w2.perm),
            tuple(s * w1.signs[j] for s, j in zip(w2.signs, w2.perm)))


ALIASES = {
    # traditional names used for the sign flips, and for the identity
    "c1": "sc2s",
    "sc1": "c2s",
    "c1s": "sc2",  # (sc2s)s = sc2
    "1": "id",
    "e": "id",
}


class CRootSystem:
    """Root system of type C2 with its Weyl group of order 8.

    The positive roots, in height order, are ``e1 - e2``, ``2 e2``,
    ``e1 + e2`` and ``2 e1``; the first two are simple, with reflections
    ``s`` and ``c2``.  The elements are the breadth-first closure of the
    identity under left multiplication by ``s``, then ``c2``; each keeps
    the first word that reaches it.  They are sorted by (length, word), so
    output is reproducible.  Roots, elements and the name table are built
    once in the constructor.
    """

    def __init__(self):
        self._simple = [(1, -1), (0, 2)]
        self._positive = self._simple + [(1, 1), (2, 0)]
        self._roots = set(self._positive) | {tuple(-c for c in a) for a in self._positive}
        self._generators = {
            "s": WeylElement((1, 0), (1, 1), ("s",)),
            "c2": WeylElement((0, 1), (1, -1), ("c2",)),
        }
        self._by_form = {((0, 1), (1, 1)): WeylElement((0, 1), (1, 1), ())}
        frontier = list(self._by_form.values())
        while frontier:
            grown = []
            for w in frontier:
                for g, gen in self._generators.items():
                    form = _product(gen, w)
                    if form not in self._by_form:
                        self._by_form[form] = WeylElement(*form, (g,) + w.word)
                        grown.append(self._by_form[form])
            frontier = grown
        self._elements = sorted(self._by_form.values(), key=WeylElement.sort_key)
        by_name = {w.name: w for w in self._elements}
        self._by_name = by_name | {a: by_name[name] for a, name in ALIASES.items()}

    # ----- roots -------------------------------------------------------

    def simple_roots(self) -> list[RootVector]:
        """Simple roots: e1 - e2, then 2 e2."""
        return list(self._simple)

    def coroot(self, alpha: RootVector) -> RootVector:
        """Coroot 2*alpha/<alpha,alpha>, in integers; rejects non-roots."""
        if alpha not in self._roots:
            raise ValueError(f"not a type-C root: {alpha}")
        n2 = sum(c * c for c in alpha)
        return tuple(2 * c // n2 for c in alpha)

    # ----- Weyl group ---------------------------------------------------

    def elements(self) -> list[WeylElement]:
        """All eight Weyl elements, sorted by (length, word)."""
        return list(self._elements)

    def element_by_name(self, name: str) -> WeylElement:
        """The element with this canonical name or alias; no word is parsed."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown Weyl element {name!r}") from None

    # ----- derived sets --------------------------------------------------

    def negative_set(self, w: WeylElement) -> list[RootVector]:
        """Positive roots sent negative by w, in positive-root order."""
        return [a for a in self._positive if is_negative(w.apply(a))]

    def coset_reps(self, keep: Iterable[RootVector]) -> list[WeylElement]:
        """All w with w(alpha) > 0 for every alpha in ``keep``, by length.

        ``keep`` must be a subset of the simple roots.  Brute-force filter
        over the full group; the group is tiny.
        """
        keep = list(keep)
        for a in keep:
            if a not in self._simple:
                raise ValueError(f"{a} is not a simple root")
        return [
            w for w in self._elements
            if all(not is_negative(w.apply(a)) for a in keep)
        ]


SP4 = CRootSystem()
