"""Ordered index triples, triple sets, and the symmetric-group action on them.

A triple (i, j, k) with 0 <= i < j < k <= n stands for the coordinate plane
spanned by the i-th, j-th and k-th coordinate points of projective n-space.
Sets of triples are the universal currency of this package: they encode both
the planes contained in a point variety and the planes excluded from one.

A triple set of ambient dimension n is one integer bitmask: bit i stands
for all_triples(n)[i], the lexicographic order.  The coordinate permutations
act on masks through per-chunk lookup tables of at most 8 bits a chunk, so
the images of a set under every permutation are a few array gathers; the
tables take 0.92 MB (int32) at n = 5 and 25.8 MB (int64) at n = 6.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Iterator

import numpy as np

Triple = tuple[int, int, int]

#: Highest bit a mask built by TripleSet.of may set: 2^27 bits is a 16 MiB
#: integer, every triple up to n = 930.  Higher triples are refused.
_MAX_MASK_BITS = 1 << 27

#: Maps the digits of bin(mask) to the bytes 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

#: Most characters of an input value that an error message echoes.
_SHOWN_MAX = 80


def _shown(value) -> str:
    """repr(value) for an error message, cut to _SHOWN_MAX characters."""
    text = repr(value)
    return text if len(text) <= _SHOWN_MAX else text[:_SHOWN_MAX] + "..."


def check_triple(t: Iterable[int], n: int) -> Triple:
    """Validate and normalize a triple for ambient dimension n."""
    t = tuple(int(v) for v in t)
    if len(t) != 3:
        raise ValueError(f"triple must have three indices, got {_shown(t)}")
    i, j, k = t
    if not (0 <= i < j < k <= n):
        raise ValueError(f"triple {_shown(t)} violates 0 <= i < j < k <= {_shown(n)}")
    return (i, j, k)


def triple_rank(t: Triple, n: int) -> int:
    """Position of a valid triple in all_triples(n), without building it:
    the triples before (i, j, k) start below i, or at i with a middle
    index below j, or at (i, j) with a last index below k."""
    i, j, k = t
    return comb(n + 1, 3) - comb(n + 1 - i, 3) + comb(n - i, 2) - comb(n + 1 - j, 2) + k - j - 1


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def all_triples(n: int) -> tuple[Triple, ...]:
    """All triples of {0..n} in lexicographic order."""
    return tuple(itertools.combinations(range(n + 1), 3))


def num_triples(n: int) -> int:
    return comb(n + 1, 3)


@lru_cache(maxsize=None)
def quartet_masks(n: int) -> tuple[int, ...]:
    """The tetrahedron table: one mask per 4-subset of {0..n}, in
    lexicographic order, holding the bits of its four faces."""
    return tuple(
        sum(1 << triple_rank(t, n) for t in itertools.combinations(quad, 3))
        for quad in itertools.combinations(range(n + 1), 4)
    )


@lru_cache(maxsize=None)
def permutations(n: int) -> tuple[tuple[int, ...], ...]:
    """All permutations of {0..n}, as image tuples."""
    return tuple(itertools.permutations(range(n + 1)))


@lru_cache(maxsize=None)
def _perm_mask_tables(n: int) -> tuple[np.ndarray, ...]:
    """Per-chunk lookup tables of the permutation action on masks.

    The C(n+1, 3) triple bits are cut into the fewest chunks of at most 8
    bits, all of one width w but the last, which may be narrower: 5 + 5
    bits at n = 4, 7 + 7 + 6 at n = 5, five of 7 at n = 6.  tables[c][v, p]
    is the image under permutations(n)[p] of the mask v << (c * w), and the
    image of a mask is the OR of its chunks' images.  The entries are int32
    while a mask fits, n <= 5 (0.92 MB at n = 5), and int64 at n = 6
    (25.8 MB).  The tables are read-only.
    """
    if n > 6:  # 578 MB of tables at n = 7
        raise ValueError(f"permutation tables are built for n <= 6, got {_shown(n)}")
    nt, nperm = num_triples(n), factorial(n + 1)
    chunks = max(1, -(-nt // 8))
    w = max(1, -(-nt // chunks))
    dtype = np.int32 if nt < 32 else np.int64
    # image triple index of every (triple, permutation), via an index cube
    # filled at all six orders of each triple, so images need no sorting
    cube = np.zeros((n + 1,) * 3, dtype=np.int64)
    trips = np.array(all_triples(n), dtype=np.intp).reshape(-1, 3)
    for order in itertools.permutations(range(3)):
        cube[tuple(trips.T[list(order)])] = np.arange(nt)
    images = np.array(permutations(n)).T[trips]
    bit_images = np.left_shift(1, cube[images[:, 0], images[:, 1], images[:, 2]]).astype(dtype)
    tables = []
    for start in range(0, max(nt, 1), w):
        table = np.zeros((1 << min(w, nt - start), nperm), dtype=dtype)
        for b in range(len(table).bit_length() - 1):
            np.bitwise_or(table[:1 << b], bit_images[start + b], out=table[1 << b:2 << b])
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def mask_images(n: int, masks) -> np.ndarray:
    """Images under every coordinate permutation of a triple-set bitmask
    (an int), or of each mask in an int64 array ([mask, perm]): the OR over
    chunks of table[chunk value]."""
    tables = _perm_mask_tables(n)
    w = len(tables[0]).bit_length() - 1
    out = tables[0][masks & ((1 << w) - 1)]
    for c in range(1, len(tables)):
        out = out | tables[c][(masks >> (c * w)) & ((1 << w) - 1)]
    return out


def canonical_mask(n: int, mask: int) -> int:
    return int(mask_images(n, mask).min())


def canonical_mask_orbit(n: int, mask: int) -> tuple[int, int]:
    """Canonical (minimal) image of mask and the size of its orbit."""
    images = mask_images(n, mask)
    stab = int(np.count_nonzero(images == mask))
    return int(images.min()), len(images) // stab


@dataclass(frozen=True)
class TripleSet:
    """An immutable set of triples in a fixed ambient dimension: bit i of
    mask stands for all_triples(n)[i].  The constructor trusts its mask;
    TripleSet.of checks triples given from outside.

    Iteration is always in lexicographic order, so every consumer of a
    TripleSet is deterministic.
    """

    n: int
    mask: int = 0

    @classmethod
    def of(cls, n: int, triples: Iterable[Iterable[int]] = ()) -> "TripleSet":
        mask = 0
        for t in triples:
            t = check_triple(t, n)
            rank = triple_rank(t, n)
            if rank >= _MAX_MASK_BITS:
                raise ValueError(f"triple {_shown(t)} lies beyond the {_MAX_MASK_BITS}-bit mask limit")
            mask |= 1 << rank
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "TripleSet":
        return cls(n)

    @classmethod
    def full(cls, n: int) -> "TripleSet":
        return cls(n, (1 << num_triples(n)) - 1)

    @property
    def triples(self) -> frozenset[Triple]:
        return frozenset(self)

    def __iter__(self) -> Iterator[Triple]:
        # combinations is lazy, so a low mask of a huge n stays cheap
        selectors = bin(self.mask)[:1:-1].encode().translate(_BIT_VALUES)
        return itertools.compress(itertools.combinations(range(self.n + 1), 3), selectors)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, t: object) -> bool:
        """Membership of a tuple (i, j, k); anything that is not a valid
        triple of integers for dimension n is not a member."""
        if not isinstance(t, tuple):
            return False
        try:
            triple = check_triple(t, self.n)
        except (TypeError, ValueError, OverflowError):
            return False
        return triple == t and self.mask >> triple_rank(triple, self.n) & 1 == 1

    def _other_mask(self, other: "TripleSet | Iterable[Triple]") -> int:
        if not isinstance(other, TripleSet):
            other = TripleSet.of(self.n, other)
        if other.n != self.n:
            raise ValueError("ambient dimensions differ")
        return other.mask

    def __or__(self, other: "TripleSet | Iterable[Triple]") -> "TripleSet":
        return TripleSet(self.n, self.mask | self._other_mask(other))

    def __and__(self, other: "TripleSet | Iterable[Triple]") -> "TripleSet":
        return TripleSet(self.n, self.mask & self._other_mask(other))

    def __sub__(self, other: "TripleSet | Iterable[Triple]") -> "TripleSet":
        return TripleSet(self.n, self.mask & ~self._other_mask(other))

    def links(self) -> list[list[int]]:
        """links[a][b], for indices a != b: the bitmask of a, b and every c
        such that the triple on {a, b, c} is in the set."""
        link = [[(1 << a) | (1 << b) for b in range(self.n + 1)] for a in range(self.n + 1)]
        for i, j, k in self:
            li, lj, lk = link[i], link[j], link[k]
            li[j] |= 1 << k
            lj[i] |= 1 << k
            li[k] |= 1 << j
            lk[i] |= 1 << j
            lj[k] |= 1 << i
            lk[j] |= 1 << i
        return link

    def complement(self) -> "TripleSet":
        return TripleSet(self.n, self.mask ^ ((1 << num_triples(self.n)) - 1))

    def canonical(self) -> "TripleSet":
        """Least set in the orbit under all coordinate permutations.

        "Least" compares bitmasks over the lexicographic triple order; the
        result is a well-defined orbit representative (idempotent, constant
        on orbits).
        """
        return TripleSet(self.n, canonical_mask(self.n, self.mask))

    def __repr__(self) -> str:
        body = ", ".join(str(t) for t in self)
        return f"TripleSet(n={self.n}, {{{body}}})"
