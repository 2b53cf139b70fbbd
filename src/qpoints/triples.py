"""Ordered index triples, triple sets, and the symmetric-group action on them.

A triple (i, j, k) with 0 <= i < j < k <= n stands for the coordinate plane
spanned by the i-th, j-th and k-th coordinate points of projective n-space.
Sets of triples are the universal currency of this package: they encode both
the planes contained in a point variety and the planes excluded from one.

Triple sets of a fixed ambient dimension are represented both as frozensets
and as bitmasks over the lexicographic triple order, which makes the action
of all (n+1)! coordinate permutations cheap enough to canonicalize millions
of sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator

import numpy as np

Triple = tuple[int, int, int]


def check_triple(t: Iterable[int], n: int) -> Triple:
    """Validate and normalize a triple for ambient dimension n."""
    t = tuple(int(v) for v in t)
    if len(t) != 3:
        raise ValueError(f"triple must have three indices, got {t!r}")
    i, j, k = t
    if not (0 <= i < j < k <= n):
        raise ValueError(f"triple {t!r} violates 0 <= i < j < k <= {n}")
    return (i, j, k)


@lru_cache(maxsize=None)
def all_triples(n: int) -> tuple[Triple, ...]:
    """All triples of {0..n} in lexicographic order."""
    return tuple(itertools.combinations(range(n + 1), 3))


@lru_cache(maxsize=None)
def triple_index(n: int) -> dict[Triple, int]:
    return {t: i for i, t in enumerate(all_triples(n))}


def num_triples(n: int) -> int:
    return comb(n + 1, 3)


@lru_cache(maxsize=None)
def permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of {0..n}, as image tuples."""
    return tuple(itertools.permutations(range(n + 1)))


def permute_triple(perm: tuple[int, ...], t: Triple) -> Triple:
    a, b, c = perm[t[0]], perm[t[1]], perm[t[2]]
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


@lru_cache(maxsize=None)
def _perm_triple_tables(n: int) -> np.ndarray:
    """Array [perm, triple_idx] -> image triple_idx."""
    trips = all_triples(n)
    idx = triple_index(n)
    perms = permutations(n)
    table = np.empty((len(perms), len(trips)), dtype=np.int64)
    for p, perm in enumerate(perms):
        for ti, t in enumerate(trips):
            table[p, ti] = idx[permute_triple(perm, t)]
    return table


# Masks with more than _SPLIT bits are canonicalized through a pair of
# lookup tables (low half, high half); n = 5 has 20 triple bits.
_SPLIT = 10


@lru_cache(maxsize=None)
def _perm_mask_tables(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-permutation lookup tables mapping mask halves to permuted masks.

    Returns (lo, hi, split) where the image of mask m under permutation p is
    lo[p, m & (2**split - 1)] | hi[p, m >> split].
    """
    nt = num_triples(n)
    split = min(nt, _SPLIT)
    table = _perm_triple_tables(n)
    nperm = table.shape[0]
    lo = np.zeros((nperm, 1 << split), dtype=np.int64)
    hi = np.zeros((nperm, 1 << max(nt - split, 0)), dtype=np.int64)
    bit_images = 1 << table  # [perm, triple] -> image bit
    for m in range(1 << split):
        if m == 0:
            continue
        b = (m & -m).bit_length() - 1
        lo[:, m] = lo[:, m ^ (1 << b)] | bit_images[:, b]
    for m in range(1 << max(nt - split, 0)):
        if m == 0:
            continue
        b = (m & -m).bit_length() - 1
        hi[:, m] = hi[:, m ^ (1 << b)] | bit_images[:, split + b]
    return lo, hi, split


def mask_images(n: int, mask: int) -> np.ndarray:
    """Images of a triple-set bitmask under every coordinate permutation."""
    lo, hi, split = _perm_mask_tables(n)
    return lo[:, mask & ((1 << split) - 1)] | hi[:, mask >> split]


def canonical_mask(n: int, mask: int) -> int:
    return int(mask_images(n, mask).min())


def canonical_mask_orbit(n: int, mask: int) -> tuple[int, int]:
    """Canonical (minimal) image of mask and the size of its orbit."""
    images = mask_images(n, mask)
    stab = int(np.count_nonzero(images == mask))
    return int(images.min()), len(images) // stab


@dataclass(frozen=True)
class TripleSet:
    """An immutable set of triples in a fixed ambient dimension.

    Iteration is always in lexicographic order, so every consumer of a
    TripleSet is deterministic.
    """

    n: int
    triples: frozenset[Triple] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        norm = frozenset(check_triple(t, self.n) for t in self.triples)
        object.__setattr__(self, "triples", norm)

    @classmethod
    def from_valid(cls, n: int, triples: frozenset[Triple]) -> "TripleSet":
        """A set of triples taken from all_triples(n), so not re-checked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "triples", triples)
        return obj

    @classmethod
    def of(cls, n: int, triples: Iterable[Iterable[int]] = ()) -> "TripleSet":
        return cls(n, frozenset(tuple(t) for t in triples))

    @classmethod
    def empty(cls, n: int) -> "TripleSet":
        return cls(n, frozenset())

    @classmethod
    def full(cls, n: int) -> "TripleSet":
        return cls(n, frozenset(all_triples(n)))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "TripleSet":
        trips = all_triples(n)
        return cls(n, frozenset(trips[i] for i in range(len(trips)) if mask >> i & 1))

    @property
    def mask(self) -> int:
        idx = triple_index(self.n)
        m = 0
        for t in self.triples:
            m |= 1 << idx[t]
        return m

    def sorted(self) -> tuple[Triple, ...]:
        return tuple(sorted(self.triples))

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.triples)

    def __contains__(self, t: object) -> bool:
        return t in self.triples

    def __or__(self, other: "TripleSet | Iterable[Triple]") -> "TripleSet":
        other_triples = other.triples if isinstance(other, TripleSet) else frozenset(other)
        if isinstance(other, TripleSet) and other.n != self.n:
            raise ValueError("ambient dimensions differ")
        return TripleSet(self.n, self.triples | other_triples)

    def __and__(self, other: "TripleSet") -> "TripleSet":
        if other.n != self.n:
            raise ValueError("ambient dimensions differ")
        return TripleSet(self.n, self.triples & other.triples)

    def __sub__(self, other: "TripleSet | Iterable[Triple]") -> "TripleSet":
        other_triples = other.triples if isinstance(other, TripleSet) else frozenset(other)
        return TripleSet(self.n, self.triples - other_triples)

    def complement(self) -> "TripleSet":
        return TripleSet(self.n, frozenset(all_triples(self.n)) - self.triples)

    def add(self, t: Triple) -> "TripleSet":
        return TripleSet(self.n, self.triples | {check_triple(t, self.n)})

    def apply(self, perm: tuple[int, ...]) -> "TripleSet":
        """Image under a permutation of the coordinates {0..n}."""
        return TripleSet(self.n, frozenset(permute_triple(perm, t) for t in self.triples))

    def canonical(self) -> "TripleSet":
        """Least set in the orbit under all coordinate permutations.

        "Least" compares bitmasks over the lexicographic triple order; the
        result is a well-defined orbit representative (idempotent, constant
        on orbits).
        """
        return TripleSet.from_mask(self.n, canonical_mask(self.n, self.mask))

    def orbit_size(self) -> int:
        return canonical_mask_orbit(self.n, self.mask)[1]

    def find_permutation_to(self, target: "TripleSet") -> tuple[int, ...] | None:
        """A permutation sending this set onto target, if one exists."""
        if target.n != self.n or len(target) != len(self.triples):
            return None
        tmask = target.mask
        images = mask_images(self.n, self.mask)
        hits = np.nonzero(images == tmask)[0]
        if len(hits) == 0:
            return None
        return permutations(self.n)[int(hits[0])]

    def __repr__(self) -> str:
        body = ", ".join(str(t) for t in self.sorted())
        return f"TripleSet(n={self.n}, {{{body}}})"
