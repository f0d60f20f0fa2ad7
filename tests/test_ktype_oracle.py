"""A K-type oracle for the Siegel real-place pole rows.

In the Siegel degenerate series of Sp(4, R) the one-dimensional
U(2)-types det^l occur once each, for l of the parity of chi at the real
place (even for ``trivial``, odd for ``sgn``).  On det^l a long-root step
2e_i acts by the SL2(R) ratio r_l(e), with e = <lambda(s), alpha^vee>
(Knapp, *Representation Theory of Semisimple Groups*, 1986, ch. II and
VII):

    r_2m(e)   = prod_{j=1..m} (e + 1 - 2j) / (e - 1 + 2j),
    r_2m+1(e) = prod_{j=1..m} (e - 2j) / (e + 2j),

and a short-root step sees a vector fixed by its SO(2), so it acts by 1.
So N(w) on det^l is the product of r_l over the long roots w makes
negative, a rational function of s whose zeros and poles are read from
its linear factors, in ``Fraction``s.

The model reads no rule row and no normalizing factor: only the inducing
character, the coroots and the Weyl negative sets.  Its pole sets, over
l < 12, must be exactly the points where the shipped Siegel arch pole
rows put a first-order pole.  Pole sets do not depend on the scalar
normalization of r_l, so that normalization is not checked here.  det^l
vectors give lower bounds only: another K-type may carry a pole that
they miss.
"""

from fractions import Fraction as Q

import pytest

from sp4eis.characters import CharClass, compose_coroot, siegel_lambda
from sp4eis.localrules import ARCH, default_rules
from sp4eis.roots import SP4
from test_laws import UNSTATED_KERNELS

POINTS = [Q(k, 2) for k in range(-12, 13)]  # (1/2)Z in [-6, 6]
# the det^l a real place of each class carries, l < 12
WEIGHTS = {"trivial": range(0, 12, 2), "sgn": range(1, 12, 2)}
ELEMENTS = ("c2", "sc2", "c2sc2")
LAMBDA = siegel_lambda()


def factors(l: int) -> list[tuple[int, int]]:
    """r_l as (p, q) pairs, each the linear factor (e + p) / (e + q)."""
    m = l // 2
    if l % 2 == 0:
        return [(1 - 2 * j, 2 * j - 1) for j in range(1, m + 1)]
    return [(-2 * j, 2 * j) for j in range(1, m + 1)]


def r(l: int, e: Q) -> Q:
    out = Q(1)
    for p, q in factors(l):
        out *= (e + p) / (e + q)
    return out


def long_root_exponents(w: str) -> list[tuple[Q, Q]]:
    """e = a*s + b as (a, b) for each long root that w makes negative."""
    out = []
    for alpha in SP4.negative_set(SP4.element_by_name(w)):
        if sum(c * c for c in alpha) == 4:  # 2e_i; the short roots e1 +- e2 have length 2
            _, form = compose_coroot(LAMBDA, SP4.coroot(alpha))
            out.append((form.a, form.b))
    return out


def order(w: str, l: int, s0: Q) -> int:
    """Order of vanishing of N(w) on det^l at s0 (negative at a pole)."""
    n = 0
    for a, b in long_root_exponents(w):
        e = a * s0 + b
        for p, q in factors(l):
            n += (e + p == 0) - (e + q == 0)
    return n


def model_points(w: str, cls: str, sign: int) -> set[Q]:
    """The points where some det^l of the class has a pole (sign -1) or a zero (+1)."""
    return {s0 for s0 in POINTS if any(order(w, l, s0) * sign > 0 for l in WEIGHTS[cls])}


POLES = {
    "trivial": {"c2": {Q(-3, 2), Q(-7, 2), Q(-11, 2)},
                "sc2": {Q(-3, 2), Q(-7, 2), Q(-11, 2)},
                "c2sc2": {Q(-k, 2) for k in (1, 3, 5, 7, 9, 11)}},
    "sgn": {"c2": {Q(-5, 2), Q(-9, 2)},
            "sc2": {Q(-5, 2), Q(-9, 2)},
            "c2sc2": {Q(-k, 2) for k in (3, 5, 7, 9, 11)}},
}


@pytest.mark.parametrize("cls", sorted(WEIGHTS))
@pytest.mark.parametrize("w", ELEMENTS)
def test_pole_sets_equal_the_siegel_arch_pole_rows(w, cls):
    rules = default_rules()
    table = {s0 for s0 in POINTS
             if rules.local_pole("siegel", w, ARCH, CharClass(cls), s0).order == 1}
    assert model_points(w, cls, -1) == table == POLES[cls][w]


def test_each_ratio_inverts_at_minus_e():
    # N(w_P, -s) N(w_P, s) = Id on each K-type, factor by factor
    for l in range(12):
        singular = {-p for p, _ in factors(l)} | {-q for _, q in factors(l)}
        for e in (Q(k, 4) for k in range(-60, 61)):
            if e not in singular and -e not in singular:
                assert r(l, e) * r(l, -e) == 1, (l, e)


def test_zeros_of_the_long_element_cover_the_forced_kernels():
    zeros = {cls: {s0 for s0 in model_points("c2sc2", cls, 1) if s0 > 0} for cls in WEIGHTS}
    assert zeros == {"trivial": {Q(k, 2) for k in (1, 3, 5, 7, 9, 11)},
                     "sgn": {Q(k, 2) for k in (3, 5, 7, 9, 11)}}
    forced = [(cls, s0) for case, kind, cls, s0 in UNSTATED_KERNELS
              if case == "siegel" and kind == ARCH]
    assert forced and all(s0 in zeros[cls] for cls, s0 in forced)
