"""Collections of excluded coordinate planes: predicates and enumeration.

A collection C lists the coordinate planes NOT contained in a point variety.
Not every collection can arise this way; the adequacy predicate below is a
necessary condition.  Denseness is a stronger condition, kept for the
classification (the catalog's dense flag and the two non-dense classes at
n = 5); realization does not depend on it, only on whether the complement
is closed under the character span.  The complements of the adequate
collections are the quartet-closed sets, the classes of lattice.traverse
(read by the degeneration graph too).  adequate_masks,
a sweep of all 2^C(n+1,3) collection masks, is the reference for n <= 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .lattice import boundary_pairs, num_pairs, traverse
from .triples import Triple, TripleSet, _shown, canonical_mask_orbit, num_triples, quartet_masks

#: A collection is just a triple set; the alias marks intent (excluded
#: planes rather than contained ones).
Collection = TripleSet


def is_adequate(C: Collection) -> bool:
    """Necessary condition for C to be the excluded-plane set of an algebra.

    For every index i and every member plane, some pair inside the member
    must extend through i to another member.  When i lies in the member the
    member itself witnesses the condition.  So the links of the three
    pairs of each member must cover every index.  Read on tetrahedra: C is
    adequate iff no tetrahedron has exactly one face in C, i.e. iff the
    complement of C is closed under the four-index rule (quartet_saturate).
    """
    return _one_face_tetrahedron(C) is None


def _one_face_tetrahedron(C: Collection) -> tuple[tuple[int, ...], Triple] | None:
    """The first tetrahedron with exactly one face in C, and that face, or
    None when C is adequate: a member and the least index outside the links
    of its three pairs."""
    link, full = C.links(), (1 << (C.n + 1)) - 1
    for j, k, l in C:
        outside = full & ~(link[j][k] | link[j][l] | link[k][l])
        if outside:
            i = (outside & -outside).bit_length() - 1
            return tuple(sorted((i, j, k, l))), (j, k, l)
    return None


@lru_cache(maxsize=None)
def _line_masks(n: int) -> tuple[int, ...]:
    """One mask per pair of {0..n}, in the order of lattice.pair_list: the
    triples that contain the pair, bit b set in the masks of the three
    pairs of triple b.  Every pair has an entry, so at n = 1 the one line
    has the empty mask."""
    masks = [0] * num_pairs(n)
    for b, pairs in enumerate(zip(*boundary_pairs(n))):
        for p in pairs:
            masks[p] |= 1 << b
    return tuple(masks)


def is_dense(C: Collection) -> bool:
    """Whether some coordinate line lies in at least n - 2 members of C."""
    return any((C.mask & m).bit_count() >= C.n - 2 for m in _line_masks(C.n))


@dataclass(frozen=True)
class OrbitCatalog:
    """All adequate collections of one ambient dimension, up to symmetry."""

    n: int
    representatives: tuple[Collection, ...]
    orbit_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        order = factorial(self.n + 1)
        bad = [s for s in self.orbit_sizes if order % s]
        if bad:
            raise ValueError(f"orbit sizes {bad} do not divide the group order {order}")

    def __len__(self) -> int:
        return len(self.representatives)

    @property
    def total(self) -> int:
        """Number of adequate collections, all orbits together."""
        return sum(self.orbit_sizes)

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


def _witness_masks(n: int) -> list[tuple[int, int]]:
    """Pairs (t, witness_mask), one per face t of each tetrahedron, the
    witness mask holding its other three faces: the (index i, triple t)
    terms with i outside t.  A collection mask C is adequate iff for every
    entry with bit t of C set, C also meets the witness mask."""
    return [
        (t, quartet & ~(1 << t))
        for quartet in quartet_masks(n)
        for t in range(num_triples(n))
        if quartet >> t & 1
    ]


def adequate_masks(n: int) -> np.ndarray:
    """Bitmasks of all adequate collections, ascending.

    Witness term k fails on the mask h << lo | l iff it fails on the high
    half h and on the low half l (lo = nt // 2 bits), so with bit k of a
    half's word set when term k fails there, the mask is inadequate iff
    high[h] & low[l] != 0.  The budget admits n <= 5: at most
    (n-2) * C(n+1,3) = 60 terms, which fit one uint64 word.
    """
    nt = num_triples(n)
    if nt > 25:
        raise ValueError(f"adequate enumeration over 2^{_shown(nt)} collections (n = {_shown(n)}) is out of budget; n <= 5")
    lo = nt // 2
    high, low = np.zeros(1 << (nt - lo), dtype=np.uint64), np.zeros(1 << lo, dtype=np.uint64)
    for words, shift in ((high, lo), (low, 0)):
        half = np.arange(len(words))
        for k, (t, witness) in enumerate(_witness_masks(n)):
            member = (1 << t >> shift) & (len(words) - 1)  # 0 if t lies in the other half
            words[((half & member) == member) & ((half & witness >> shift) == 0)] |= np.uint64(1 << k)
    return np.flatnonzero((high[:, None] & low) == 0)


@lru_cache(maxsize=None)
def enumerate_adequate(n: int) -> OrbitCatalog:
    """Catalog of all adequate collections up to coordinate symmetry, in
    ascending order of canonical mask.  Their complements are the
    quartet-closed sets, the classes of lattice.traverse; one gather per
    class, of the collection full ^ m, gives its canonical mask and its
    orbit size."""
    classes = traverse(n)[0]  # first: its size rule guards the 1 << nt below
    full = (1 << num_triples(n)) - 1
    orbits = sorted(canonical_mask_orbit(n, full ^ m) for m in classes)
    return OrbitCatalog(n, tuple(TripleSet(n, c) for c, _ in orbits), tuple(size for _, size in orbits))
