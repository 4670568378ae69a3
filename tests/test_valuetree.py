"""Tests for Algorithm 3's balanced value tree."""

import math

import pytest
from maybe_hypothesis import given, strategies as st

from repro.algorithms.valuetree import ValueTree
from repro.core.errors import ConfigurationError


def test_single_value_tree():
    t = ValueTree(["only"])
    assert t.root.value == "only"
    assert t.root.left is None and t.root.right is None
    assert t.height == 0
    assert t.root.parent is t.root


def test_bst_invariant():
    t = ValueTree(range(10))

    def check(node):
        if node is None:
            return
        for v in node.left_values:
            assert v < node.value
        for v in node.right_values:
            assert v > node.value
        check(node.left)
        check(node.right)

    check(t.root)


def test_all_values_present_exactly_once():
    values = list(range(13))
    t = ValueTree(values)
    assert sorted(n.value for n in t.nodes()) == values


def test_height_is_logarithmic():
    for size in (2, 7, 16, 100, 1000):
        t = ValueTree(range(size))
        assert t.height <= math.ceil(math.log2(size)) if size > 1 else 0


def test_find_locates_every_value():
    t = ValueTree(range(31))
    for v in range(31):
        assert t.find(v).value == v
    with pytest.raises(ConfigurationError):
        t.find(99)


def test_parent_pointers_consistent():
    t = ValueTree(range(15))
    for node in t.nodes():
        if node.left is not None:
            assert node.left.parent is node
        if node.right is not None:
            assert node.right.parent is node
    assert t.root.parent is t.root


def test_construction_is_canonical():
    """Two anonymous processes building from the same V get the same tree."""
    a = ValueTree([5, 3, 9, 1])
    b = ValueTree([9, 1, 5, 3])
    assert [n.value for n in a.nodes()] == [n.value for n in b.nodes()]
    assert a.root.value == b.root.value


def test_rejects_empty_and_duplicates():
    with pytest.raises(ConfigurationError):
        ValueTree([])
    with pytest.raises(ConfigurationError):
        ValueTree([1, 1])


@given(st.sets(st.integers(-500, 500), min_size=1, max_size=200))
def test_inorder_is_sorted(values):
    t = ValueTree(values)
    inorder = [n.value for n in t.nodes()]
    assert inorder == sorted(values)


@given(st.sets(st.integers(0, 10**4), min_size=2, max_size=256))
def test_height_bound_property(values):
    t = ValueTree(values)
    assert t.height <= math.ceil(math.log2(len(values)))


@given(st.sets(st.integers(0, 1000), min_size=1, max_size=100))
def test_left_right_partition_is_exact(values):
    t = ValueTree(values)
    for node in t.nodes():
        covered = (
            set(node.left_values) | set(node.right_values) | {node.value}
        )
        subtree = {n.value for n in _subtree_nodes(node)}
        assert covered == subtree


def _subtree_nodes(node):
    out = [node]
    if node.left is not None:
        out.extend(_subtree_nodes(node.left))
    if node.right is not None:
        out.extend(_subtree_nodes(node.right))
    return out
