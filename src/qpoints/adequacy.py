"""Collections of excluded coordinate planes: predicates and enumeration.

A collection C lists the coordinate planes NOT contained in a point variety.
Not every collection can arise this way; the adequacy predicate below is a
necessary condition.  Denseness is a stronger condition, kept for the
classification (the catalog's dense flag and the two non-dense classes at
n = 5); realization does not depend on it, only on whether the complement
is closed under the character span.  The enumerator tests adequacy on all
2^C(n+1,3) collection masks at once, one array pass per witness, and
groups the adequate ones into orbits of the coordinate symmetry with the
batch canonicalization of the triples module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .triples import TripleSet, all_triples, canonical_masks, num_triples, triple_index

#: A collection is just a triple set; the alias marks intent (excluded
#: planes rather than contained ones).
Collection = TripleSet


def is_adequate(C: Collection) -> bool:
    """Necessary condition for C to be the excluded-plane set of an algebra.

    For every index i and every member plane, some pair inside the member
    must extend through i to another member.  When i lies in the member the
    member itself witnesses the condition.  So the links of the three
    pairs of each member must cover every index.
    """
    link, full = C.links(), (1 << (C.n + 1)) - 1
    return all(link[j][k] | link[j][l] | link[k][l] == full for j, k, l in C)


def is_dense(C: Collection) -> bool:
    """Whether some coordinate line lies in at least n - 2 members of C,
    i.e. its link holds at least n indices (the line's own two included)."""
    link = C.links()
    return any(link[a][b].bit_count() >= C.n for a in range(C.n + 1) for b in range(a))


@dataclass(frozen=True)
class OrbitCatalog:
    """All adequate collections of one ambient dimension, up to symmetry."""

    n: int
    representatives: tuple[Collection, ...]
    orbit_sizes: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if sum(self.orbit_sizes) != self.total:
            raise ValueError(
                f"orbit sizes sum to {sum(self.orbit_sizes)}, not the total {self.total}"
            )
        order = factorial(self.n + 1)
        bad = [s for s in self.orbit_sizes if order % s]
        if bad:
            raise ValueError(f"orbit sizes {bad} do not divide the group order {order}")

    def __len__(self) -> int:
        return len(self.representatives)

    def records(self) -> list[dict]:
        """JSON-ready rows: canonical triples, orbit size, dense flag."""
        return [
            {
                "triples": [list(t) for t in rep],
                "orbit_size": size,
                "dense": is_dense(rep),
            }
            for rep, size in zip(self.representatives, self.orbit_sizes)
        ]


@lru_cache(maxsize=None)
def _witness_masks(n: int) -> list[tuple[int, int]]:
    """Pairs (member_bit_mask_selector, witness_mask) flattened over all
    (index i, triple t) with i outside t.

    A collection mask C is adequate iff for every entry with C having the
    member bit set, C also meets the witness mask.
    """
    idx = triple_index(n)
    out = []
    for i in range(n + 1):
        for t, (a, b, c) in enumerate(all_triples(n)):
            if i in (a, b, c):
                continue
            witness = 0
            for (u, v) in ((a, b), (a, c), (b, c)):
                witness |= 1 << idx[tuple(sorted((i, u, v)))]
            out.append((t, witness))
    return out


def adequate_masks(n: int) -> np.ndarray:
    """Bitmasks of all adequate collections, ascending."""
    nt = num_triples(n)
    if nt > 25:
        raise ValueError(f"enumeration over 2^{nt} collections is out of budget")
    masks = np.arange(1 << nt, dtype=np.int64)
    bad = np.zeros(masks.shape, dtype=bool)
    for t, witness in _witness_masks(n):
        bad |= ((masks >> t) & 1).astype(bool) & ((masks & witness) == 0)
    return masks[~bad]


@lru_cache(maxsize=None)
def enumerate_adequate(n: int) -> OrbitCatalog:
    """Catalog of all adequate collections up to coordinate symmetry."""
    if n < 0:
        raise ValueError(f"dimension index n must be >= 0, got {n}")
    if n > 5:
        raise ValueError("adequate enumeration supported for n <= 5")
    masks = adequate_masks(n)
    reps, counts = np.unique(canonical_masks(n, masks), return_counts=True)
    representatives = tuple(TripleSet(n, int(m)) for m in reps)
    return OrbitCatalog(
        n=n,
        representatives=representatives,
        orbit_sizes=tuple(int(c) for c in counts),
        total=int(len(masks)),
    )


def non_dense_adequate(n: int) -> list[Collection]:
    """Canonical representatives of nonempty adequate classes that are not
    dense.  Empty for n <= 4; exactly two classes for n = 5."""
    catalog = enumerate_adequate(n)
    return [
        rep
        for rep in catalog.representatives
        if len(rep) > 0 and not is_dense(rep)
    ]
