"""Finite multisets (Section 2, Preliminaries).

The paper's communication model is stated in terms of finite multisets of
messages: a process's receive set for a round is a *sub-multiset* of the
multiset union of all messages broadcast in the round.  This module provides
a small, immutable multiset type with exactly the operations the paper uses:

* sub-multiset inclusion  (``M1 <= M2``),
* multiset union          (``M1 + M2``),
* cardinality             (``len(M)`` — the paper's ``|M|``),
* ``SET(M)``              (:meth:`Multiset.support`),
* ``MS(S)``               (:meth:`Multiset.from_set`).

The type is hashable and comparable so it can be used inside trace records
and test assertions.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple


class Multiset:
    """An immutable finite multiset over hashable values.

    Instances are value objects: equality, hashing, and ordering of the
    underlying items follow the (value, multiplicity) pairs, independent of
    insertion order.
    """

    __slots__ = ("_counts", "_size", "_hash")

    def __init__(self, items: Iterable[Any] = ()) -> None:
        counts = Counter(items)
        # Normalise away zero counts so equality is canonical.
        self._counts: Dict[Any, int] = {v: n for v, n in counts.items() if n > 0}
        self._size = sum(self._counts.values())
        # Hashing is deferred: the engine's hot path builds one multiset
        # per (process, round) and most are never used as dict keys.
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_counts(cls, counts: Dict[Any, int]) -> "Multiset":
        """Build a multiset from a ``{value: multiplicity}`` mapping.

        Multiplicities must be non-negative ``int``s; zero counts are
        dropped, anything else (floats, bools, strings) is rejected.
        """
        clean: Dict[Any, int] = {}
        size = 0
        for value, n in counts.items():
            if isinstance(n, bool) or not isinstance(n, int):
                raise TypeError(
                    f"multiplicity for {value!r} must be an int, "
                    f"got {type(n).__name__}"
                )
            if n < 0:
                raise ValueError(f"negative multiplicity for {value!r}: {n}")
            if n:
                clean[value] = n
                size += n
        return cls._from_counts_unchecked(clean, size)

    @classmethod
    def _from_counts_unchecked(
        cls, counts: Dict[Any, int], size: int
    ) -> "Multiset":
        """Adopt ``counts`` without copying or validating.

        Internal fast constructor: callers guarantee strictly positive int
        multiplicities summing to ``size`` and relinquish ownership of the
        dict.  Used by the engine's hot path and the operator methods,
        where the invariants hold by construction.
        """
        ms = cls.__new__(cls)
        ms._counts = counts
        ms._size = size
        ms._hash = None
        return ms

    @classmethod
    def from_set(cls, values: Iterable[Any]) -> "Multiset":
        """The paper's ``MS(S)``: one instance of each element of ``S``."""
        return cls(set(values))

    @classmethod
    def empty(cls) -> "Multiset":
        """The empty multiset."""
        return _EMPTY

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, value: Any) -> int:
        """Multiplicity of ``value`` in this multiset (0 if absent)."""
        return self._counts.get(value, 0)

    def support(self) -> FrozenSet[Any]:
        """The paper's ``SET(M)``: the set of distinct values in ``M``."""
        return frozenset(self._counts)

    def counts(self) -> Dict[Any, int]:
        """A copy of the underlying ``{value: multiplicity}`` mapping."""
        return dict(self._counts)

    def items(self) -> Iterator[Tuple[Any, int]]:
        """Iterate over ``(value, multiplicity)`` pairs."""
        return iter(self._counts.items())

    def is_empty(self) -> bool:
        """True when ``|M| == 0``."""
        return self._size == 0

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[Any]:
        for value, n in self._counts.items():
            for _ in range(n):
                yield value

    def __contains__(self, value: Any) -> bool:
        return value in self._counts

    def __le__(self, other: "Multiset") -> bool:
        """Sub-multiset inclusion: ``M1 ⊑ M2`` from Section 2."""
        if not isinstance(other, Multiset):
            return NotImplemented
        return all(n <= other.count(v) for v, n in self._counts.items())

    def __lt__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self <= other and self != other

    def __ge__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return other <= self

    def __gt__(self, other: "Multiset") -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return other < self

    def __add__(self, other: "Multiset") -> "Multiset":
        """Multiset union (the paper's ``M1 ∪ M2``, additive on counts)."""
        if not isinstance(other, Multiset):
            return NotImplemented
        merged = Counter(self._counts)
        merged.update(other._counts)
        return Multiset._from_counts_unchecked(
            dict(merged), self._size + other._size
        )

    def __sub__(self, other: "Multiset") -> "Multiset":
        """Multiset difference, truncating at zero."""
        if not isinstance(other, Multiset):
            return NotImplemented
        result = Counter(self._counts)
        result.subtract(other._counts)
        clean = {v: n for v, n in result.items() if n > 0}
        return Multiset._from_counts_unchecked(clean, sum(clean.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self._counts.items()))
        return h

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{value!r}: {n}" for value, n in sorted(
                self._counts.items(), key=lambda kv: repr(kv[0])
            )
        )
        return f"Multiset({{{inner}}})"


_EMPTY = Multiset()


def multiset_union(multisets: Iterable[Multiset]) -> Multiset:
    """Union (additive) of an iterable of multisets."""
    merged: Counter = Counter()
    size = 0
    for ms in multisets:
        merged.update(ms._counts)
        size += ms._size
    return Multiset._from_counts_unchecked(dict(merged), size)
