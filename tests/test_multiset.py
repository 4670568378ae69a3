"""Tests for the Section 2 multiset preliminaries."""

import pytest
from maybe_hypothesis import given, strategies as st

from repro.core.multiset import Multiset, multiset_union


def test_empty_multiset():
    m = Multiset()
    assert len(m) == 0
    assert m.is_empty()
    assert m.support() == frozenset()
    assert list(m) == []


def test_empty_is_shared_instance():
    assert Multiset.empty() is Multiset.empty()


def test_construction_from_iterable_counts_multiplicity():
    m = Multiset(["a", "b", "a"])
    assert len(m) == 3
    assert m.count("a") == 2
    assert m.count("b") == 1
    assert m.count("c") == 0


def test_support_is_the_papers_SET():
    m = Multiset(["x", "x", "y"])
    assert m.support() == frozenset({"x", "y"})


def test_from_set_is_the_papers_MS():
    m = Multiset.from_set(["a", "a", "b"])
    assert m.count("a") == 1
    assert m.count("b") == 1


def test_from_counts_rejects_negative():
    with pytest.raises(ValueError):
        Multiset.from_counts({"a": -1})


def test_from_counts_drops_zeros():
    m = Multiset.from_counts({"a": 0, "b": 2})
    assert "a" not in m
    assert m.count("b") == 2


def test_equality_ignores_order():
    assert Multiset([1, 2, 2]) == Multiset([2, 1, 2])
    assert Multiset([1, 2]) != Multiset([1, 2, 2])


def test_hash_consistency():
    assert hash(Multiset([1, 2, 2])) == hash(Multiset([2, 2, 1]))


def test_submultiset_inclusion():
    small = Multiset(["a"])
    big = Multiset(["a", "a", "b"])
    assert small <= big
    assert not (big <= small)
    assert small < big
    assert big > small
    assert big >= small


def test_inclusion_requires_multiplicity():
    # The paper: m must not appear more times in M1 than in M2.
    assert not (Multiset(["a", "a"]) <= Multiset(["a", "b"]))


def test_union_is_additive():
    u = Multiset(["a"]) + Multiset(["a", "b"])
    assert u.count("a") == 2
    assert u.count("b") == 1


def test_difference_truncates_at_zero():
    d = Multiset(["a"]) - Multiset(["a", "a", "b"])
    assert d.is_empty()


def test_contains_and_iteration():
    m = Multiset(["v", "v", "w"])
    assert "v" in m
    assert sorted(m) == ["v", "v", "w"]


def test_multiset_union_helper():
    u = multiset_union([Multiset(["a"]), Multiset(["a", "b"]), Multiset()])
    assert u == Multiset(["a", "a", "b"])


def test_repr_is_stable():
    assert repr(Multiset(["a"])) == "Multiset({'a': 1})"


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
items = st.lists(st.integers(min_value=0, max_value=5), max_size=12)


@given(items, items)
def test_union_cardinality_is_additive(xs, ys):
    assert len(Multiset(xs) + Multiset(ys)) == len(xs) + len(ys)


@given(items, items)
def test_union_is_commutative(xs, ys):
    assert Multiset(xs) + Multiset(ys) == Multiset(ys) + Multiset(xs)


@given(items)
def test_self_inclusion_reflexive(xs):
    m = Multiset(xs)
    assert m <= m


@given(items, items)
def test_both_include_into_union(xs, ys):
    mx, my = Multiset(xs), Multiset(ys)
    assert mx <= mx + my
    assert my <= mx + my


@given(items, items, items)
def test_inclusion_transitive(xs, ys, zs):
    a = Multiset(xs)
    b = a + Multiset(ys)
    c = b + Multiset(zs)
    assert a <= b and b <= c and a <= c


@given(items)
def test_support_matches_set(xs):
    assert Multiset(xs).support() == frozenset(set(xs))


@given(items, items)
def test_difference_then_union_recovers_superset(xs, ys):
    a, b = Multiset(xs), Multiset(ys)
    assert (a - b) + b >= a
