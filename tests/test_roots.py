"""Root system and Weyl group combinatorics."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from sp4eis.characters import COSET_REPS, TARGETS
from sp4eis.roots import SP4, is_negative

SYS = SP4

E1 = (1, 0)
E2 = (0, 1)
A1 = (1, -1)   # e1 - e2
A2 = (0, 2)    # 2 e2
B1 = (1, 1)    # e1 + e2
B2 = (2, 0)    # 2 e1


def _with_action(images):
    """The element sending e1, e2 to ``images``, found by its action alone."""
    (w,) = [w for w in SYS.elements() if [w.apply(e) for e in (E1, E2)] == images]
    return w


def product(a, b):
    """The element acting as v -> a(b(v)), built from ``WeylElement.apply``."""
    return _with_action([a.apply(b.apply(e)) for e in (E1, E2)])


def word_element(word):
    """The element a word over the generators names: the generators' actions
    folded right to left, looked up by normal form."""
    images = []
    for e in (E1, E2):
        for g in reversed(word):
            e = SYS.element_by_name(g).apply(e)
        images.append(e)
    return _with_action(images)


def test_positive_roots_rank2():
    # the longest element sends every positive root negative
    longest = SYS.elements()[-1]
    assert longest.length == 4
    assert SYS.negative_set(longest) == [A1, A2, B1, B2]
    assert SYS.simple_roots() == [A1, A2]


def test_coroots():
    assert SYS.coroot(A1) == A1
    assert SYS.coroot(A2) == E2
    assert SYS.coroot(B1) == B1
    assert SYS.coroot(B2) == E1
    # all eight coroots are integral: +-(1,-1), +-(0,1), +-(1,1), +-(1,0)
    roots = [A1, A2, B1, B2]
    roots += [tuple(-c for c in a) for a in roots]
    for a in roots:
        assert all(type(c) is int for c in SYS.coroot(a)), a
    with pytest.raises(ValueError):
        SYS.coroot((1, 2))
    with pytest.raises(ValueError):
        SYS.coroot((3, 0))


def test_generator_actions():
    s = SYS.element_by_name("s")
    c2 = SYS.element_by_name("c2")
    assert s.apply(E1) == E2
    assert s.apply(E2) == E1
    assert c2.apply(E2) == (0, -1)
    assert c2.apply(E1) == E1
    ident = SYS.element_by_name("id")
    assert ident.apply(B1) == B1
    with pytest.raises(ValueError):
        SYS.element_by_name("x")
    assert is_negative((0, -1)) and not is_negative((1, -1))
    with pytest.raises(ValueError):
        is_negative((0, 0))


def test_group_order_and_axioms():
    elements = SYS.elements()
    assert len(elements) == 8
    s = SYS.element_by_name("s")
    c2 = SYS.element_by_name("c2")
    assert product(s, s).length == 0
    assert product(c2, c2).length == 0
    # braid relation: s*c2 has order 4
    sc2 = product(s, c2)
    power = sc2
    orders = []
    for k in range(1, 5):
        orders.append(power.length == 0)
        power = product(power, sc2)
    assert orders == [False, False, False, True]


def test_words_reproduce_normal_form():
    for w in SYS.elements():
        assert word_element(w.word) == w
        assert w.length == len(SYS.negative_set(w))


def test_an_element_is_its_normal_form():
    # elements compare on all three fields, so equality is normal-form
    # equality only while the closure builds one element per normal form
    elements = SYS.elements()
    assert len({(w.perm, w.signs) for w in elements}) == 8
    for w in elements:
        assert SYS.element_by_name(w.name) is w
    assert sum(w in targets for targets in TARGETS.values() for w in elements) == 8


def test_the_case_tables_hold_the_groups_own_elements():
    own = {id(w) for w in SYS.elements()}
    assert all(id(w) in own for reps in COSET_REPS.values() for w in reps)
    assert all(id(w) in own for targets in TARGETS.values() for w in targets)


def test_negative_sets_match_brute_force():
    # oracle: act on every positive root directly
    for w in SYS.elements():
        expected = [a for a in (A1, A2, B1, B2) if is_negative(w.apply(a))]
        assert SYS.negative_set(w) == expected


def test_negative_set_examples():
    c1 = SYS.element_by_name("c1")
    assert SYS.negative_set(c1) == [A1, B1, B2]
    assert SYS.negative_set(SYS.element_by_name("c2s")) == [A1, B2]
    assert SYS.negative_set(SYS.element_by_name("id")) == []


def test_c1_aliases():
    assert SYS.element_by_name("c1").name == "sc2s"
    assert SYS.element_by_name("sc1").name == "c2s"
    assert SYS.element_by_name("c1") == word_element(["s", "c2", "s"])


def test_inverse_negative_set_relation():
    # negatives of the inverse are the negated images of the negatives
    for w in SYS.elements():
        (winv,) = [v for v in SYS.elements() if product(w, v).length == 0]
        lhs = set(SYS.negative_set(winv))
        rhs = {tuple(-c for c in w.apply(a)) for a in SYS.negative_set(w)}
        assert lhs == rhs


def _coset_reps_by_words(keep):
    """Independent oracle: enumerate reduced words breadth-first and filter."""
    seen = {}
    frontier = [SYS.element_by_name("id")]
    while frontier:
        nxt = []
        for w in frontier:
            if (w.perm, w.signs) in seen:
                continue
            seen[(w.perm, w.signs)] = w
            for g in ("s", "c2"):
                nxt.append(product(w, SYS.element_by_name(g)))
        frontier = nxt
    reps = [w for w in seen.values()
            if all(not is_negative(w.apply(a)) for a in keep)]
    return sorted(reps, key=lambda w: w.sort_key())


def test_coset_reps_heisenberg():
    reps = SYS.coset_reps([A2])
    assert [w.name for w in reps] == ["id", "s", "c2s", "sc2s"]
    assert sorted(w.length for w in reps) == [0, 1, 2, 3]
    assert reps == _coset_reps_by_words([A2])


def test_coset_reps_siegel():
    reps = SYS.coset_reps([A1])
    assert [w.name for w in reps] == ["id", "c2", "sc2", "c2sc2"]
    assert reps == _coset_reps_by_words([A1])


def test_coset_reps_full_delta():
    assert [w.name for w in SYS.coset_reps([A1, A2])] == ["id"]


def test_coset_reps_rejects_non_simple():
    with pytest.raises(ValueError):
        SYS.coset_reps([B1])


@given(st.lists(st.sampled_from(["s", "c2"]), max_size=12))
def test_word_products_consistent(word):
    w = word_element(word)
    # the stored word is reduced and reproduces the same signed permutation
    assert len(w.word) <= len(word)
    assert word_element(w.word) == w
    assert w.length == len(SYS.negative_set(w))
    # group action property against a direct fold
    v = (Q(3), Q(-5))
    folded = v
    for g in reversed(word):
        folded = SYS.element_by_name(g).apply(folded)
    assert w.apply(v) == folded
