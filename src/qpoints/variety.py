"""Point varieties of skew polynomial algebras.

The reduced point variety of such an algebra is a union of coordinate
subspaces of projective n-space, fully determined by which coordinate planes
(triples) it contains.  This module computes that triple set from the
defining matrix, assembles the irreducible components (maximal flats) and
type vector, extracts the cubic monomial generators of the defining ideal,
and cross-checks the two descriptions against each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .scalars import QMatrix
from .triples import Triple, TripleSet, all_triples

#: A flat is the sorted index set of a coordinate subspace; its projective
#: dimension is len(flat) - 1.
Flat = tuple[int, ...]


@dataclass(frozen=True)
class Configuration:
    """Irreducible components of a point variety and their type vector.

    type_vector counts components by projective dimension, from dimension n
    down to 1, matching the tabulated types of the degeneration graphs.
    """

    n: int
    components: tuple[Flat, ...]
    type_vector: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "type": list(self.type_vector),
        }

    def is_whole_space(self) -> bool:
        return self.components == (tuple(range(self.n + 1)),)


def good_triples(Q: QMatrix) -> TripleSet:
    """Triples whose coordinate plane lies in the point variety.

    These are exactly the triples with vanishing obstruction scalar,
    equivalently the rank-one principal 3x3 blocks of Q.
    """
    return TripleSet(
        Q.n, frozenset(t for t in all_triples(Q.n) if Q.b(t).is_one)
    )


def is_rank_one(Q: QMatrix, S: Flat) -> bool:
    """Whether the principal block of Q on the index set S has rank one.

    Checked directly on 2x2 minors: q_ju * q_lv == q_jv * q_lu for all row
    pairs (j, l) and column pairs (u, v) inside S.  Agrees with "every
    triple inside S is good"; the test suite exercises that equivalence.
    """
    idx = sorted(set(S))
    if not idx:
        raise ValueError("index set must be nonempty")
    if idx[0] < 0 or idx[-1] > Q.n:
        raise ValueError(f"index set {S!r} out of range for dimension {Q.n}")
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            j, l = idx[a], idx[b]
            for c in range(len(idx)):
                for d in range(c + 1, len(idx)):
                    u, v = idx[c], idx[d]
                    lhs = Q.entry(j, u) * Q.entry(l, v)
                    rhs = Q.entry(j, v) * Q.entry(l, u)
                    if lhs != rhs:
                        return False
    return True


def _flat_table(good: TripleSet) -> list[bool]:
    """flat[mask] == True iff every triple inside mask is good."""
    n = good.n
    size = n + 1
    member = good.triples
    flat = [True] * (1 << size)
    for mask in range(1 << size):
        if mask.bit_count() < 3:
            continue
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        if not flat[rest]:
            flat[mask] = False
            continue
        bits = [i for i in range(top) if rest >> i & 1]
        ok = True
        for x in range(len(bits)):
            for y in range(x + 1, len(bits)):
                if (bits[x], bits[y], top) not in member:
                    ok = False
                    break
            if not ok:
                break
        flat[mask] = ok
    return flat


def components(good: TripleSet) -> Configuration:
    """Maximal flats of a good-triple set, with the type vector.

    A subset S of {0..n} is a flat when all triples inside S are good; the
    components are the maximal flats.  Pairs are always flats, so the
    1-skeleton of coordinate lines is always covered and no component is a
    single point.
    """
    n = good.n
    size = n + 1
    flat = _flat_table(good)
    maximal: list[Flat] = []
    for mask in range(1 << size):
        if mask.bit_count() < 2 or not flat[mask]:
            continue
        if any(
            not mask >> v & 1 and flat[mask | (1 << v)] for v in range(size)
        ):
            continue
        maximal.append(tuple(i for i in range(size) if mask >> i & 1))
    maximal.sort()
    counts = [0] * (n + 1)
    for comp in maximal:
        counts[len(comp) - 1] += 1
    type_vector = tuple(counts[d] for d in range(n, 0, -1))
    return Configuration(n, tuple(maximal), type_vector)


def ideal_generators(good: TripleSet) -> list[Triple]:
    """Triples indexing the cubic monomials u_i u_j u_k that cut out the
    point variety: the complement of the good set."""
    return list(good.complement())


def skeleton_weight(config: Configuration) -> int:
    """Total number of coordinate-line slots the components offer; at least
    the number of coordinate lines, with equality iff components pairwise
    meet in at most a point."""
    return sum(comb(len(c), 2) for c in config.components)


def monomial_variety_check(good: TripleSet, samples: int = 50, seed: int = 0) -> bool:
    """Verify that the monomial ideal and the component union describe the
    same set of points.

    A point with coordinate support T satisfies all monomials u_i u_j u_k
    (for excluded triples) exactly when no excluded triple fits inside T;
    the component description instead asks T to fit inside a flat.  The
    check enumerates all 2^(n+1) supports and then re-tests `samples`
    random rational points exactly.
    """
    n = good.n
    if n > 6:
        raise ValueError("support enumeration is only intended for n <= 6")
    size = n + 1
    excluded = ideal_generators(good)
    config = components(good)
    comp_masks = [sum(1 << i for i in c) for c in config.components]
    excl_masks = [sum(1 << i for i in t) for t in excluded]
    for support in range(1, 1 << size):
        sat_monomials = all(support & em != em for em in excl_masks)
        in_union = any(support & cm == support for cm in comp_masks)
        if sat_monomials != in_union:
            return False
    rng = random.Random(seed)
    for _ in range(samples):
        support = rng.randrange(1, 1 << size)
        point = [
            Fraction(rng.randint(1, 99), rng.randint(1, 99)) if support >> i & 1 else Fraction(0)
            for i in range(size)
        ]
        vanish = all(
            point[i] * point[j] * point[k] == 0 for (i, j, k) in excluded
        )
        in_union = any(support & cm == support for cm in comp_masks)
        if vanish != in_union:
            return False
    return True
