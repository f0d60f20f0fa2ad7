"""Model-free laws the engine's answers must obey, checked exhaustively.

Law B, the global functional equation: for a spherical section,
E(s) = c(s) E(-s), where c is the factor of the long coset element w_P
(the last coset representative: ``sc2s`` for Heisenberg, ``c2sc2`` for
Siegel), which maps lambda(s, chi) to lambda(-s, chi^-1), and chi^-1 has
the class of chi.  So ord_{s0} E = ord_{s0} c + ord_{-s0} E wherever the
three orders are known (Langlands' functional equation, as in Moeglin and
Waldspurger, *Spectral decomposition and Eisenstein series*, 1995).  It
is a consistency law, not an independent value: a defect that is the same
at s0 and -s0 passes it.
"""

from collections import Counter
from fractions import Fraction as Q

from sp4eis.characters import COSET_REPS, CharClass
from sp4eis.constant_term import PlaceProfile, eisenstein_order, factor_expression
from sp4eis.germs import order_at

# each global class with every real-place class a character of that class can have
ARCH_CLASSES = {
    CharClass.TRIVIAL: (CharClass.TRIVIAL,),
    CharClass.QUADRATIC: (CharClass.TRIVIAL, CharClass.SGN),
    CharClass.OTHER: (CharClass.TRIVIAL, CharClass.SGN, CharClass.OTHER),
}
POINTS = [Q(k, 8) for k in range(-48, 49)]  # (1/8)Z in [-6, 6]


def test_global_functional_equation():
    seen = Counter()
    for case in sorted(COSET_REPS):
        w_p = COSET_REPS[case][-1]
        for cls, arch_classes in ARCH_CLASSES.items():
            factor = factor_expression(case, w_p, cls)
            for arch in arch_classes:
                profile = PlaceProfile.spherical(arch)
                for s0 in POINTS:
                    here = eisenstein_order(case, profile, s0, cls).combined_order
                    there = eisenstein_order(case, profile, -s0, cls).combined_order
                    c = order_at(factor, cls, s0)
                    kinds = {here.kind, there.kind, c.kind}
                    if kinds == {"known"}:
                        assert here.base == c.base + there.base, (case, cls, arch, s0)
                    seen[next(k for k in ("at-least", "conditional", "known") if k in kinds)] += 1
    # a point the law cannot decide is counted, so a skip that grows fails here
    assert seen == {"known": 957, "conditional": 204, "at-least": 3}
