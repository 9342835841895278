"""The service-mix generator is a pure function of its seed."""

from __future__ import annotations

from collections import Counter

import mixgen


def test_same_seed_same_sequence():
    assert mixgen.generate(7, 500) == mixgen.generate(7, 500)


def test_different_seeds_differ():
    assert mixgen.generate(7, 200) != mixgen.generate(8, 200)


def test_a_longer_sequence_extends_a_shorter_one():
    assert mixgen.generate(3, 600)[:300] == mixgen.generate(3, 300)


def test_shares_follow_the_table():
    counts = Counter(op["op"] for op in mixgen.generate(11, 4000))
    for kind, share in mixgen.SHARES:
        assert abs(counts[kind] / 4000 - share) < 0.03, kind


def _spec(op):
    return mixgen.spec_key({"kind": op["kind"], "params": op["params"]})


def test_cold_and_dup_specs_are_never_reused():
    ops = mixgen.generate(5, 3000)
    fresh = [_spec(op) for op in ops if op["op"] in ("cold", "dup")]
    assert len(fresh) == len(set(fresh))


def test_warm_ops_repeat_an_older_cold_spec():
    ops = mixgen.generate(9, 2000)
    cold_at = {_spec(op): index for index, op in enumerate(ops) if op["op"] == "cold"}
    warm = [(index, op) for index, op in enumerate(ops) if op["op"] == "warm"]
    assert warm
    for index, op in warm:
        assert index - cold_at[_spec(op)] >= mixgen.WARM_DISTANCE
