"""Type-C root systems and their Weyl groups as signed permutations.

Everything here is exact: root coordinates are :class:`fractions.Fraction`
tuples, Weyl elements are stored both in normal form (permutation, signs)
and as a reduced word over the simple reflections.  The constructions are
generic in the rank, but rank 2 is the case exercised downstream, with the
traditional generator names ``s`` (swap of the two coordinates) and ``c2``
(sign flip of the second coordinate).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable

RootVector = tuple[Q, ...]


def vector(*coords: int | str | Q) -> RootVector:
    """Build an exact coordinate vector."""
    return tuple(Q(c) for c in coords)


def dot(x: RootVector, y: RootVector) -> Q:
    """Exact standard inner product."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(x, y)), Q(0))


def is_negative(v: RootVector) -> bool:
    """A nonzero vector is negative when its first nonzero coordinate is."""
    for c in v:
        if c != 0:
            return c < 0
    raise ValueError("zero vector has no sign")


@dataclass(frozen=True)
class WeylElement:
    """Signed permutation in normal form plus a canonical reduced word.

    ``perm`` and ``signs`` encode the action on basis vectors:
    ``w(e_i) = signs[i] * e_{perm[i]}`` (0-indexed).  ``word`` is the
    canonical reduced word over the simple reflections, each entry a
    generator name such as ``"s"`` or ``"c2"``.  Equality and hashing use
    the normal form only, so ``sc2s`` and any other expression of the same
    signed permutation compare equal.
    """

    perm: tuple[int, ...]
    signs: tuple[int, ...]
    word: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.perm)

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def name(self) -> str:
        return "".join(self.word) if self.word else "id"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self) -> int:
        return hash((self.perm, self.signs))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.rank)) and all(s == 1 for s in self.signs)

    def apply(self, v: RootVector) -> RootVector:
        """Signed-permutation action on a coordinate vector."""
        out = [Q(0)] * self.rank
        for i, c in enumerate(v):
            out[self.perm[i]] += self.signs[i] * c
        return tuple(out)

    def sort_key(self) -> tuple:
        return (self.length, self.word, self.perm, self.signs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeylElement({self.name})"


class CRootSystem:
    """Root system of type C with its hyperoctahedral Weyl group.

    The positive roots are ``e_i - e_j`` and ``e_i + e_j`` for ``i < j``
    together with the long roots ``2 e_i``; the simple roots are
    ``e_i - e_{i+1}`` and ``2 e_n``.  Enumeration orders are fixed
    (height, then reverse-lexicographic coordinates) so output is
    reproducible.
    """

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self._elements: list[WeylElement] | None = None
        self._positive: list[RootVector] | None = None
        self._by_name: dict[str, WeylElement] = {}

    # ----- roots -------------------------------------------------------

    def basis(self, i: int) -> RootVector:
        return tuple(Q(1) if j == i else Q(0) for j in range(self.rank))

    def simple_roots(self) -> list[RootVector]:
        """Simple roots: e_i - e_{i+1} for i < rank, then 2 e_rank."""
        out = []
        for i in range(self.rank - 1):
            v = [Q(0)] * self.rank
            v[i], v[i + 1] = Q(1), Q(-1)
            out.append(tuple(v))
        v = [Q(0)] * self.rank
        v[-1] = Q(2)
        out.append(tuple(v))
        return out

    def positive_roots(self) -> list[RootVector]:
        """All positive roots, sorted by height then reverse-lex coordinates."""
        if self._positive is not None:
            return list(self._positive)
        roots: list[RootVector] = []
        n = self.rank
        for i in range(n):
            for j in range(i + 1, n):
                for sj in (Q(-1), Q(1)):
                    v = [Q(0)] * n
                    v[i], v[j] = Q(1), sj
                    roots.append(tuple(v))
            v = [Q(0)] * n
            v[i] = Q(2)
            roots.append(tuple(v))

        def height(r: RootVector) -> Q:
            # expand in the simple-root basis; for type C this is integral
            coeffs = self._simple_coords(r)
            return sum(coeffs, Q(0))

        roots.sort(key=lambda r: (height(r), tuple(-c for c in r)))
        self._positive = roots
        return list(roots)

    @staticmethod
    def _simple_coords(r: RootVector) -> list[Q]:
        # back-substitution: e_n = alpha_n / 2, e_i = alpha_i + e_{i+1}
        n = len(r)
        coeffs_e = list(r)
        coeffs = [Q(0)] * n
        acc = Q(0)
        for i in range(n - 1):
            acc += coeffs_e[i]
            coeffs[i] = acc
        coeffs[n - 1] = (acc + coeffs_e[n - 1]) / 2
        return coeffs

    def is_root(self, v: RootVector) -> bool:
        nz = [c for c in v if c != 0]
        if len(nz) == 1:
            return abs(nz[0]) == 2
        return len(nz) == 2 and all(abs(c) == 1 for c in nz)

    def coroot(self, alpha: RootVector) -> RootVector:
        """Coroot 2*alpha/<alpha,alpha>; rejects vectors that are not roots."""
        if len(alpha) != self.rank or not self.is_root(alpha):
            raise ValueError(f"not a type-C root: {alpha}")
        n2 = dot(alpha, alpha)
        return tuple(2 * c / n2 for c in alpha)

    # ----- Weyl group ---------------------------------------------------

    def generator_names(self) -> list[str]:
        if self.rank == 2:
            return ["s", "c2"]
        return [f"s{i + 1}" for i in range(self.rank - 1)] + [f"c{self.rank}"]

    def generator(self, name: str) -> WeylElement:
        names = self.generator_names()
        if name not in names:
            raise KeyError(f"unknown generator {name!r}")
        idx = names.index(name)
        perm = list(range(self.rank))
        signs = [1] * self.rank
        if idx < self.rank - 1:
            perm[idx], perm[idx + 1] = perm[idx + 1], perm[idx]
        else:
            signs[-1] = -1
        return WeylElement(tuple(perm), tuple(signs), (name,))

    def identity(self) -> WeylElement:
        return WeylElement(tuple(range(self.rank)), (1,) * self.rank, ())

    def multiply(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        """Product w1*w2 acting as v -> w1(w2(v)); the word is re-reduced."""
        perm = tuple(w1.perm[w2.perm[i]] for i in range(self.rank))
        signs = tuple(w2.signs[i] * w1.signs[w2.perm[i]] for i in range(self.rank))
        return self._with_reduced_word(perm, signs)

    def inverse(self, w: WeylElement) -> WeylElement:
        perm = [0] * self.rank
        signs = [1] * self.rank
        for i in range(self.rank):
            perm[w.perm[i]] = i
            signs[w.perm[i]] = w.signs[i]
        return self._with_reduced_word(tuple(perm), tuple(signs))

    def from_word(self, word: Iterable[str]) -> WeylElement:
        w = self.identity()
        for g in word:
            w = self.multiply(w, self.generator(g))
        return w

    def _with_reduced_word(self, perm: tuple[int, ...], signs: tuple[int, ...]) -> WeylElement:
        """Attach the canonical reduced word to a normal form.

        Greedy descent: repeatedly strip the lowest-index simple reflection
        sent negative.  This yields a deterministic reduced word whose
        length equals the number of positive roots made negative.
        """
        word_rev: list[str] = []
        cur = WeylElement(perm, signs, ())
        names = self.generator_names()
        simple = self.simple_roots()
        while not cur.is_identity():
            for g, alpha in zip(names, simple):
                if is_negative(cur.apply(alpha)):
                    word_rev.append(g)
                    gen = self.generator(g)
                    new_perm = tuple(cur.perm[gen.perm[i]] for i in range(self.rank))
                    new_signs = tuple(gen.signs[i] * cur.signs[gen.perm[i]] for i in range(self.rank))
                    cur = WeylElement(new_perm, new_signs, ())
                    break
            else:  # pragma: no cover - impossible for a valid signed permutation
                raise RuntimeError("descent search failed")
        return WeylElement(perm, signs, tuple(reversed(word_rev)))

    def elements(self) -> list[WeylElement]:
        """All 2^n * n! Weyl elements, sorted by (length, word)."""
        if self._elements is None:
            out = []
            for perm in itertools.permutations(range(self.rank)):
                for signs in itertools.product((1, -1), repeat=self.rank):
                    out.append(self._with_reduced_word(tuple(perm), tuple(signs)))
            out.sort(key=WeylElement.sort_key)
            self._elements = out
        return list(self._elements)

    def element_by_name(self, name: str) -> WeylElement:
        """Look up an element by its canonical word name or a known alias."""
        if name in self._by_name:
            return self._by_name[name]
        key = ALIASES.get(name, name)
        if key in ("id", "1", "e"):
            out = self.identity()
        else:
            for w in self.elements():
                if w.name == key:
                    out = w
                    break
            else:
                # fall back to parsing the name as a word over the generators
                out = self.from_word(_split_word(key, self.generator_names()))
        self._by_name[name] = out
        return out

    # ----- derived sets --------------------------------------------------

    def negative_set(self, w: WeylElement) -> list[RootVector]:
        """Positive roots sent negative by w, in positive-root order."""
        return [a for a in self.positive_roots() if is_negative(w.apply(a))]

    def coset_reps(self, keep: Iterable[RootVector]) -> list[WeylElement]:
        """All w with w(alpha) > 0 for every alpha in ``keep``, by length.

        ``keep`` must be a subset of the simple roots.  Brute-force filter
        over the full group; the group is tiny.
        """
        keep = list(keep)
        simple = self.simple_roots()
        for a in keep:
            if a not in simple:
                raise ValueError(f"{a} is not a simple root")
        return [
            w for w in self.elements()
            if all(not is_negative(w.apply(a)) for a in keep)
        ]


ALIASES = {
    # traditional names used for the rank-2 sign flips
    "c1": "sc2s",
    "sc1": "c2s",
    "c1s": "sc2",  # (sc2s)s = sc2
}


def _split_word(text: str, names: list[str]) -> list[str]:
    out = []
    i = 0
    by_len = sorted(names, key=len, reverse=True)
    while i < len(text):
        for g in by_len:
            if text.startswith(g, i):
                out.append(g)
                i += len(g)
                break
        else:
            raise ValueError(f"cannot parse Weyl word {text!r}")
    return out
