"""Every same-target group, found by solving target coincidences exactly.

Two summands share a group at s0 when their targets agree there after
class reduction of the chi powers.  A target is one (chi power, a*s + b)
pair per coordinate, so two targets agree on at most one point unless
they are equal for every s, and that point solves a linear equation: no
grid is scanned.  Membership depends on case, class and point only, never
on the profile or the rule table, so the groups found here are all the
groups any input meets, and so are their remainders over the common
factor.

``data/group_sums.tsv`` pins ``evaluate_group`` on each group for every
weight vector in {+1, -1}^2: the common factor's order, the order of the
remainders' sum, the leading term and the cancellation flag.  Regenerate
the file only when outputs change on purpose:

    PYTHONPATH=src python tests/test_groups.py
"""

import json
from dataclasses import replace
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

from sp4eis.characters import COSET_REPS, TARGETS, CharClass, reduce_power
from sp4eis.constant_term import PlaceProfile, _common_factor, evaluate_group, term_report
from sp4eis.germs import SERIES_DEPTH, known_part_series, order_at, sum_germs, sum_series
from sp4eis.localrules import ARCH, ActionRule, Condition, default_rules

PINS = Path(__file__).resolve().parent / "data" / "group_sums.tsv"
GLOBAL_CLASSES = (CharClass.TRIVIAL, CharClass.QUADRATIC, CharClass.OTHER)
WEIGHTS = tuple(product((1, -1), repeat=2))
PROFILE = PlaceProfile.spherical()


def meeting_point(t1, t2, cls: CharClass) -> Q | None:
    """The one point where two targets agree after class reduction, or None."""
    point = None
    for (k1, f1), (k2, f2) in zip(t1.coords, t2.coords):
        if reduce_power(cls, k1) != reduce_power(cls, k2):
            return None
        if f1.a == f2.a:
            if f1.b != f2.b:
                return None
            continue
        s0 = (f2.b - f1.b) / (f1.a - f2.a)
        if point is not None and s0 != point:
            return None
        point = s0
    assert point is not None, "two summands share their target at every point"
    return point


def groups() -> list[tuple[str, CharClass, Q, tuple]]:
    """(case, class, s0, members) of every group with more than one member.

    Members come in representative order; groups by case, class, point.
    """
    out = []
    for case, reps in COSET_REPS.items():
        for cls in GLOBAL_CLASSES:
            pairs: dict[Q, list] = {}
            for i, w1 in enumerate(reps):
                for w2 in reps[i + 1:]:
                    s0 = meeting_point(TARGETS[case][w1], TARGETS[case][w2], cls)
                    if s0 is not None:
                        pairs.setdefault(s0, []).append({w1, w2})
            for s0 in sorted(pairs):
                # agreement at a point is transitive: merge pairs that share a member
                buckets: list[set] = []
                for pair in pairs[s0]:
                    hit = [b for b in buckets if b & pair]
                    buckets = [b for b in buckets if b not in hit] + [pair.union(*hit)]
                for b in sorted(buckets, key=lambda b: min(reps.index(w) for w in b)):
                    out.append((case, cls, s0, tuple(w for w in reps if w in b)))
    return out


def weight_row(case: str, w, is_base: bool, weight: int) -> ActionRule:
    """An action row giving one member a fixed weight on every choice."""
    return ActionRule(case, w.name, "base" if is_base else "-", ARCH, ("*",),
                      Condition("always"), (("any", "+1" if weight > 0 else "-1"),), "weight")


def remainders(case: str, cls: CharClass, s0: Q, members: tuple):
    terms = [term_report(case, PROFILE, w, s0, cls, default_rules()) for w in members]
    common = _common_factor([t.expr for t in terms])
    return terms, common, [t.expr * common.inverse() for t in terms]


def group_sums(case: str, cls: CharClass, s0: Q, members: tuple) -> list[tuple[str, ...]]:
    """One pinned row per weight vector, through ``evaluate_group``."""
    terms, common, rems = remainders(case, cls, s0, members)
    common_order = order_at(common, cls, s0)
    rows = []
    for weights in WEIGHTS:
        weighted = [replace(t, actions=(weight_row(case, t.w, i == 0, wt),))
                    for i, (t, wt) in enumerate(zip(terms, weights))]
        report = evaluate_group(case, weighted, PROFILE, s0, cls)
        out = sum_germs(list(zip(rems, weights)), cls, s0)
        assert report.weights == {t.w.name: str(wt) for t, wt in zip(terms, weights)}
        assert report.order == common_order + out.order
        rows.append((case, cls.value, str(s0), ",".join(w.name for w in members),
                     ",".join(f"{wt:+d}" for wt in weights),
                     json.dumps(common_order.to_json(), sort_keys=True),
                     json.dumps(out.order.to_json(), sort_keys=True),
                     report.leading or "-", str(report.cancelled).lower()))
    return rows


def depth_used(rems: list, weights: tuple, cls: CharClass, s0: Q) -> int | None:
    """The fewest coefficients at which the weighted sum shows a leading term."""
    for depth in range(1, SERIES_DEPTH + 1):
        total = sum_series([(known_part_series(e, cls, s0, depth), wt)
                            for e, wt in zip(rems, weights)])
        if total.leading is not None:
            return depth
    return None


def test_groups_are_the_fourteen_pairs():
    found = groups()
    assert len(found) == 14
    assert all(len(members) == 2 for *_, members in found)
    assert {s0 for case, _, s0, _ in found if case == "heisenberg"} == {Q(-1), Q(0), Q(1)}
    assert {s0 for case, _, s0, _ in found if case == "siegel"} == {Q(-1, 2), Q(0), Q(1, 2)}
    assert sum(case == "heisenberg" for case, *_ in found) == 6
    assert sum(case == "siegel" for case, *_ in found) == 8
    assert not any(cls is CharClass.OTHER for _, cls, _, _ in found)
    # the engine's grouping key agrees: members share it, no other summand does
    for case, cls, s0, members in found:
        keys = {w: TARGETS[case][w].value_key(s0, cls) for w in COSET_REPS[case]}
        inside = {keys[w] for w in members}
        assert len(inside) == 1
        assert all(keys[w] not in inside for w in COSET_REPS[case] if w not in members)


def test_remainders_are_strip_free_and_every_sum_has_a_leading_term():
    depths = []
    for case, cls, s0, members in groups():
        _, _, rems = remainders(case, cls, s0, members)
        for rem in rems:
            assert all(e in (1, -1) for _, e in rem.factors), rem.render()
            assert order_at(rem, cls, s0).is_known, rem.render()
        for weights in WEIGHTS:
            depth = depth_used(rems, weights, cls, s0)
            assert depth is not None, (case, cls, s0, weights)
            depths.append(depth)
    assert max(depths) == 2


def test_group_sums_replay_pins():
    pinned = [tuple(line.split("\t"))
              for line in PINS.read_text(encoding="utf-8").splitlines()
              if line and not line.startswith("#")]
    got = [row for group in groups() for row in group_sums(*group)]
    assert len(got) == 56
    assert got == pinned


if __name__ == "__main__":
    lines = ["# case\tclass\ts0\tmembers\tweights\tcommon-factor order\tsum order"
             "\tleading\tcancelled"]
    lines += ["\t".join(row) for group in groups() for row in group_sums(*group)]
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text("\n".join(lines) + "\n", encoding="utf-8")
