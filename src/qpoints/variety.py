"""Point varieties of skew polynomial algebras.

The reduced point variety of such an algebra is a union of coordinate
subspaces of projective n-space, fully determined by which coordinate planes
(triples) it contains.  This module computes that triple set from the
defining matrix in one exact integer pass over an exponent array (the
obstruction scalar of a triple is a signed sum of three pair rows),
enumerates the irreducible components (maximal flats) and type vector,
extracts the cubic monomial generators of the defining ideal, and
cross-checks the two descriptions against each other.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import num_pairs
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


#: Entries per array in one numpy step of good_triples; caps its scratch
#: memory at a few such arrays whatever n and the number of generators.
_STEP_ENTRIES = 1 << 18


@lru_cache(maxsize=None)
def _triple_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair indices (ij, jk, ik) of every triple, in lexicographic order."""
    pair = np.zeros((n + 1, n + 1), dtype=np.intp)
    pair[np.triu_indices(n + 1, 1)] = np.arange(num_pairs(n))
    i, j, k = np.array(all_triples(n), dtype=np.intp).reshape(-1, 3).T
    return pair[i, j], pair[j, k], pair[i, k]


def good_triples(Q: QMatrix) -> TripleSet:
    """Triples whose coordinate plane lies in the point variety.

    These are exactly the triples with vanishing obstruction scalar
    b_ijk = q_ij * q_jk * q_ik^-1, equivalently the rank-one principal 3x3
    blocks of Q.  Q is its exponent array (see QMatrix): row p holds the
    torsion phase and the generator exponents of the p-th pair's entry.
    b_ijk is row ij + row jk - row ik with the phase reduced mod the
    torsion modulus, and the triple is good iff that row is zero.  The
    integer type of Q.vals holds a sum of three entries; entries beyond
    int64 run the same code on Python integers (dtype object).  Generators
    are taken in column blocks scattered from the nonzero entries and
    triples in lexicographic chunks, so no array holds more than about
    _STEP_ENTRIES entries.
    """
    n, modulus = Q.n, Q.table.torsion_modulus
    rows, cols, vals = Q.rows, Q.cols, Q.vals
    ij, jk, ik = _triple_pairs(n)
    good = np.ones(len(ij), dtype=bool)
    width, pairs = len(Q.table.names) + 1, num_pairs(n)
    block = max(1, _STEP_ENTRIES // max(pairs, 1))
    for c0 in range(0, width, block):
        c1 = min(c0 + block, width)
        E = np.zeros((pairs, c1 - c0), vals.dtype)
        inside = (cols >= c0) & (cols < c1)
        E[rows[inside], cols[inside] - c0] = vals[inside]
        live, step = np.flatnonzero(good), max(1, _STEP_ENTRIES // (c1 - c0))
        for r0 in range(0, len(live), step):
            r = live[r0:r0 + step]
            b = E[ij[r]]
            b += E[jk[r]]
            b -= E[ik[r]]
            if c0 == 0:
                b[:, 0] %= modulus
            good[r] = (b == 0).all(axis=1)
    return TripleSet(n, int.from_bytes(np.packbits(good, bitorder="little").tobytes(), "little"))


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


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components(good: TripleSet) -> Configuration:
    """Maximal flats of a good-triple set, with the type vector.

    A subset S of {0..n} is a flat when all triples inside S are good; the
    components are the maximal flats.  Pairs are always flats, so for n >= 1
    the 1-skeleton of coordinate lines is always covered and no component is
    a single point; at n = 0 the only component is the point (0,).

    Flats are grown depth first over bitmasks, as in Bron-Kerbosch without
    a pivot: R is the current flat, P the points still to try that extend
    it, X the points already tried, and R is maximal when both are empty.
    The work follows the number of components, not the 2^(n+1) subsets.
    The graph pivot rule fails here (a point can extend R + a and R + b but
    not R + a + b), and any triple set is accepted, so the cocycle identity
    of matrix good sets is not assumed.
    """
    n = good.n
    link = good.links()  # a, b and every c for which the triple on {a, b, c} is good
    maximal: list[Flat] = []

    def grow(R: int, P: int, X: int, ext: dict[int, int]) -> None:
        # ext[v], for v in P | X: R, v and every p that makes each triple on
        # {r, v, p}, r in R, good.  Every flat below this call lies inside
        # F = R | P.  Triples of F with at most one point in P hold already.
        # If F is a flat it is the only one left, maximal unless an x in X
        # extends it.
        F, cand = R | P, list(_bits(P))
        if all(F & ~link[a][b] == 0 for i, a in enumerate(cand) for b in cand[i + 1:]):
            if not any(
                all(F & ~link[a][x] == 0 for a in _bits(F)) for x in _bits(X)
            ):
                maximal.append(tuple(_bits(F)))
            return
        for v in cand:
            P_v, X_v = P & ext[v] & ~(1 << v), X & ext[v]
            if P_v:
                ext_v = {w: ext[w] & link[v][w] for w in _bits(P_v | X_v)}
                grow(R | 1 << v, P_v, X_v, ext_v)
            elif not X_v:
                maximal.append(tuple(_bits(R | 1 << v)))
            P, X = P & ~(1 << v), X | 1 << v

    grow(0, (1 << (n + 1)) - 1, 0, dict.fromkeys(range(n + 1), -1))
    maximal.sort()
    sizes = Counter(len(c) for c in maximal)
    type_vector = tuple(sizes[d + 1] for d in range(n, 0, -1))
    return Configuration(n, tuple(maximal), type_vector)


def ideal_generators(good: TripleSet) -> list[Triple]:
    """Triples indexing the cubic monomials u_i u_j u_k that cut out the
    point variety: the complement of the good set."""
    return list(good.complement())


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
