"""Point varieties of skew polynomial algebras.

The reduced point variety of such an algebra is a union of coordinate
subspaces of projective n-space, fully determined by which coordinate planes
(triples) it contains.  This module computes that triple set from the
defining matrix exactly, from its torsion phases and exponent rows (the
obstruction scalar of a triple is a signed sum of the three pairs that
lattice.boundary_pairs names; lattice owns the pair order), enumerates
the irreducible components (maximal flats) and type vector, and extracts
the cubic monomial generators of the defining ideal.

Maximal flats have two paths, picked by the size of the input and sharing
no logic.  components lists those of one set by a depth-first search whose
work follows the number of components, so pts reaches n = 200, where the
2^(n+1) subsets are out of reach.  _type_vectors counts those of every
graph node of one n (at most 15,974 sets, n <= 6) by one sieve over the
2^(n+1) subsets, a few numpy steps for all the sets at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .lattice import boundary_pairs, num_pairs
from .scalars import QMatrix
from .triples import Triple, TripleSet, all_triples

#: A flat is the sorted index set of a coordinate subspace; its projective
#: dimension is len(flat) - 1.
Flat = tuple[int, ...]


@dataclass(frozen=True)
class Configuration:
    """Irreducible components of a point variety and their type vector.

    type_vector counts the components by projective dimension, from n down
    to 1, matching the tabulated types of the degeneration graphs.
    """

    n: int
    components: tuple[Flat, ...]

    @property
    def type_vector(self) -> tuple[int, ...]:
        sizes = Counter(len(c) for c in self.components)
        return tuple(sizes[d + 1] for d in range(self.n, 0, -1))

    def to_json_dict(self) -> dict:
        return {
            "components": [list(c) for c in self.components],
            "type": list(self.type_vector),
        }

    def is_whole_space(self) -> bool:
        return self.components == (tuple(range(self.n + 1)),)


#: Largest n that good_triples and components accept.  The boundary table
#: of C(n+1, 3) triples sets the cost: an all-ones matrix takes about 1 s
#: and 85 MB at n = 100, and 8 s and 480 MB at n = 200 (its JSON output
#: included), growing as n^3.  A generic matrix, with a fresh generator on
#: each pair, costs most: pts --json takes about 60 s and 585 MB at n = 200,
#: nearly all of it in good_triples, whose 1,547 column blocks of 13
#: generators each scan the live triples again.
VARIETY_MAX_N = 200

#: Most components that components lists.  Their number can grow
#: exponentially in n: coordinates in parts of three, with q_ij = 1 across
#: parts and a fresh generator inside a part, have the 3^parts transversals
#: among their components.
COMPONENTS_LIMIT = 100_000


def _check_size(n: int) -> None:
    if n > VARIETY_MAX_N:
        raise ValueError(f"point varieties are computed for n <= {VARIETY_MAX_N}, got n = {n}")


#: Entries per array in one numpy step of good_triples; caps its scratch
#: memory at a few such arrays whatever n and the number of generators.
_STEP_ENTRIES = 1 << 18


def good_triples(Q: QMatrix) -> TripleSet:
    """Triples whose coordinate plane lies in the point variety.

    These are exactly the triples with vanishing obstruction scalar
    b_ijk = q_ij * q_jk * q_ik^-1, equivalently the rank-one principal 3x3
    blocks of Q.  Q is its phases and exponent rows (see QMatrix), one per
    pair.  b_ijk is 1 iff its phase, phase ij + phase jk - phase ik, is 0
    mod the torsion modulus, tested for every triple in one step, and its
    exponent row, row ij + row jk - row ik, is zero, tested only for the
    triples whose phase passed.  The integer types of Q.phases and Q.vals
    hold a sum of three entries; entries beyond int64 run the same code on
    Python integers (dtype object).  Generators are taken in column blocks
    scattered from the nonzero entries, skipping blocks that hold none,
    and triples in lexicographic chunks, so no array beyond the triple
    table holds more than about _STEP_ENTRIES entries.  Raises ValueError
    above VARIETY_MAX_N, before any table is built.
    """
    _check_size(Q.n)
    n, phases, rows, cols, vals = Q.n, Q.phases, Q.rows, Q.cols, Q.vals
    ij, jk, ik = boundary_pairs(n)
    good = (phases[ij] + phases[jk] - phases[ik]) % Q.table.torsion_modulus == 0
    width, pairs = len(Q.table.names), num_pairs(n)
    block = max(1, _STEP_ENTRIES // max(pairs, 1))
    for c0 in range(0, width, block):
        inside = (cols >= c0) & (cols < c0 + block)
        if not inside.any():
            continue
        c1 = min(c0 + block, width)
        E = np.zeros((pairs, c1 - c0), vals.dtype)
        E[rows[inside], cols[inside] - c0] = vals[inside]
        live, step = np.flatnonzero(good), max(1, _STEP_ENTRIES // (c1 - c0))
        for r0 in range(0, len(live), step):
            r = live[r0:r0 + step]
            b = E[ij[r]]
            b += E[jk[r]]
            b -= E[ik[r]]
            good[r] = (b == 0).all(axis=1)
    return TripleSet(n, int.from_bytes(np.packbits(good, bitorder="little").tobytes(), "little"))


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
    The work follows the number of components, not the 2^(n+1) subsets,
    and that number can grow exponentially: past COMPONENTS_LIMIT
    components, and above VARIETY_MAX_N before the links are built, this
    raises ValueError.  The graph pivot rule fails here (a point can extend
    R + a and R + b but not R + a + b), and any triple set is accepted, so
    the cocycle identity of matrix good sets is not assumed.
    """
    _check_size(good.n)
    n = good.n
    link = good.links()  # a, b and every c for which the triple on {a, b, c} is good
    maximal: list[Flat] = []

    def keep(flat: int) -> None:
        if len(maximal) == COMPONENTS_LIMIT:
            raise ValueError(f"the point variety has more than {COMPONENTS_LIMIT} components")
        maximal.append(tuple(_bits(flat)))

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
                keep(F)
            return
        for v in cand:
            P_v, X_v = P & ext[v] & ~(1 << v), X & ext[v]
            if P_v:
                ext_v = {w: ext[w] & link[v][w] for w in _bits(P_v | X_v)}
                grow(R | 1 << v, P_v, X_v, ext_v)
            elif not X_v:
                keep(R | 1 << v)
            P, X = P & ~(1 << v), X | 1 << v

    grow(0, (1 << (n + 1)) - 1, 0, dict.fromkeys(range(n + 1), -1))
    return Configuration(n, tuple(sorted(maximal)))


def _type_vectors(n: int, masks) -> list[tuple[int, ...]]:
    """components(TripleSet(n, m)).type_vector for each triple mask m of
    one n, from one sieve over the 2^(n+1) coordinate subsets.

    flat[S] is one boolean row across the masks: S is a flat when the
    mask holds every triple inside S, and maximal when no S + x is a flat.
    The rows take 2^(n+1) bytes per mask (2 MB for the n = 6 nodes).  The
    masks are int64, which hold the triples of n <= 7, and the graph ends
    at n = 6 with the permutation tables, so n > 6 raises ValueError.
    """
    if n > 6:
        raise ValueError(f"type vectors are sieved for n <= 6, got n = {n}")
    subsets = np.arange(1 << (n + 1))
    inside = np.zeros(len(subsets), np.int64)  # the triples inside each subset
    for r, (i, j, k) in enumerate(all_triples(n)):
        t = 1 << i | 1 << j | 1 << k
        inside[subsets & t == t] |= 1 << r
    missing = ~np.array(masks, np.int64)
    shape = (len(subsets), len(missing))
    flat = np.empty(shape, bool)
    for s, m in enumerate(inside.tolist()):
        np.equal(missing & m, 0, out=flat[s])
    grows = np.zeros(shape, bool)
    for x in range(n + 1):
        # axis 1 is bit x: a subset without x grows if it is a flat with x
        f, g = (a.reshape(1 << (n - x), 2, 1 << x, len(missing)) for a in (flat, grows))
        np.logical_or(g[:, 0], f[:, 1], out=g[:, 0])
    np.less(grows, flat, out=flat)  # a flat that does not grow is maximal
    sizes = np.array([s.bit_count() for s in range(len(subsets))])
    counts = [np.count_nonzero(flat[sizes == d + 1], axis=0) for d in range(n, 0, -1)]
    return [tuple(v) for v in np.array(counts, np.int64).reshape(n, len(missing)).T.tolist()]


def ideal_generators(good: TripleSet) -> list[Triple]:
    """Triples indexing the cubic monomials u_i u_j u_k that cut out the
    point variety: the complement of the good set."""
    return list(good.complement())
