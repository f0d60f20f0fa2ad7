"""Model-free laws the engine's answers must obey, checked exhaustively.

Both rest on one fact: the long coset element w_P (the last coset
representative: ``sc2s`` for Heisenberg, ``c2sc2`` for Siegel) maps
lambda(s, chi) to lambda(-s, chi^-1), and chi^-1 has the class of chi.

Law A, local reciprocity: normalized operators satisfy
N(w_P, -s) N(w_P, s) = Id, so where N(w_P, s0) is holomorphic it has a
nonzero kernel exactly when N(w_P, .) has a pole at -s0.  The rule table
states N(w_P)'s action through its action rows, each following its base,
and its poles through its pole rows; the two must agree.

Law B, the global functional equation: for a spherical section,
E(s) = c(s) E(-s), where c is w_P's factor.  So
ord_{s0} E = ord_{s0} c + ord_{-s0} E wherever the three orders are known
(Langlands' functional equation, as in Moeglin and Waldspurger, *Spectral
decomposition and Eisenstein series*, 1995).

Both are consistency laws, not independent values: a defect that is the
same at s0 and -s0 passes them.
"""

from collections import Counter
from fractions import Fraction as Q

from sp4eis.characters import COSET_REPS, CharClass
from sp4eis.constant_term import PlaceProfile, eisenstein_order, factor_expression
from sp4eis.germs import order_at
from sp4eis.localrules import ARCH, KERNEL, LOCAL_CLASSES, NONARCH, PLACE_CLASSES, default_rules

POINTS = [Q(k, 8) for k in range(-48, 49)]  # (1/8)Z in [-6, 6]
HALF_POINTS = [Q(k, 2) for k in range(-12, 13)]  # (1/2)Z in [-6, 6]


def _unstated(line: int) -> str:
    return (f"the pole row at line {line} puts a pole of N(w_P) at -s0, so N(w_P, s0) "
            "has a kernel, and no action row states it: the engine prints a bare label "
            "there, and whether the kernel meets the chosen constituent is not known")


# Keys (case, place kind, local class, s0) where law A forces a kernel that
# no action row states, each with the pole row that forces it.  A row added
# at such a key takes it off this list.
UNSTATED_KERNELS = {
    ("heisenberg", NONARCH, "trivial", Q(2)): _unstated(55),
    **{("heisenberg", ARCH, "trivial", Q(k)): _unstated(59) for k in (2, 4, 6)},
    **{("heisenberg", ARCH, "sgn", Q(k)): _unstated(60) for k in (3, 5)},
    ("siegel", NONARCH, "trivial", Q(3, 2)): _unstated(68),
    **{("siegel", ARCH, "trivial", Q(k, 2)): _unstated(73) for k in (3, 7, 11)},
    **{("siegel", ARCH, "trivial", Q(k, 2)): _unstated(75) for k in (5, 9)},
    **{("siegel", ARCH, "sgn", Q(k, 2)): _unstated(74) for k in (5, 9)},
    **{("siegel", ARCH, "sgn", Q(k, 2)): _unstated(76) for k in (3, 7, 11)},
}


def stated_kernel(rules, case: str, element: str, place: str, cls: CharClass, s0: Q):
    """Whether the action rows state a kernel of N(element) at the key, or
    ``None`` where no row states its action.

    A row relative to a base says that the operator is a sign times the
    base's on the choices the row lists, so the walk follows each row's
    base; a kernel sits on a base row, and the identity (base ``-``) or a
    base with no row has none.  So at Siegel 1/2 with a quadratic class,
    line 103's ``steinberg=kernel`` is not read: line 104, the ``c2sc2``
    row, lists no ``steinberg``.
    """
    row = rules.action_rule(case, element, place, cls, s0)
    if row is None:
        return None
    listed = {token for token, _ in row.actions}
    while row is not None and row.base not in ("base", "-"):
        row = rules.action_rule(case, row.base, place, cls, s0)
    return row is not None and row.base == "base" and any(
        value == KERNEL for token, value in row.actions if "any" in listed or token in listed)


def test_local_reciprocity():
    rules = default_rules()
    stated, unstated = 0, {}
    for case in sorted(COSET_REPS):
        w_p = COSET_REPS[case][-1].name
        for place, classes in PLACE_CLASSES.items():
            for cls in classes:
                for s0 in HALF_POINTS:
                    if rules.local_pole(case, w_p, place, cls, s0).order:
                        continue  # the law speaks only where N(w_P, s0) is holomorphic
                    pole = rules.local_pole(case, w_p, place, cls, -s0)
                    kernel = stated_kernel(rules, case, w_p, place, cls, s0)
                    key = (case, place, cls, s0)
                    if kernel is None:
                        if pole.order:
                            unstated[key] = _unstated(pole.line)
                        continue
                    stated += 1
                    assert kernel == (pole.order > 0), (key, pole.line)
    assert stated == 10
    assert unstated == UNSTATED_KERNELS


def test_global_functional_equation():
    seen = Counter()
    for case in sorted(COSET_REPS):
        w_p = COSET_REPS[case][-1]
        # each global class with every real-place class it may have
        for cls, by_kind in LOCAL_CLASSES.items():
            factor = factor_expression(case, w_p, cls)
            for arch in by_kind[ARCH]:
                profile = PlaceProfile.spherical(arch)
                for s0 in POINTS:
                    here = eisenstein_order(case, profile, s0, cls).combined_order
                    there = eisenstein_order(case, profile, -s0, cls).combined_order
                    c = order_at(factor, s0)
                    kinds = {here.kind, there.kind, c.kind}
                    if kinds == {"known"}:
                        assert here.base == c.base + there.base, (case, cls, arch, s0)
                    seen[next(k for k in ("at-least", "conditional", "known") if k in kinds)] += 1
    # a point the law cannot decide is counted, so a skip that grows fails here
    assert seen == {"known": 957, "conditional": 204, "at-least": 3}
