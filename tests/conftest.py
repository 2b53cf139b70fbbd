import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest

from qpoints.adequacy import _witness_masks, enumerate_adequate, is_dense
from qpoints.degeneration import DegNode
from qpoints.realize import GenericPointError, NotClosedError, forced_solutions, generic_point_of_node
from qpoints.lattice import SubLattice, _xgcd, boundary_pairs, closure, node_label, pair_list, span
from qpoints.scalars import GeneratorTable, GroupScalar, QMatrix, ScalarError, TableMismatchError
from qpoints.triples import (
    Triple,
    TripleSet,
    _perm_mask_tables,
    all_triples,
    canonical_mask,
    canonical_mask_orbit,
    mask_images,
    num_triples,
    permutations,
    quartet_masks,
)
from qpoints.variety import Flat, components, good_triples, ideal_generators

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131]

GEN_POOL = ["a", "b", "c", "d", "e", "f"]


def qmatrix_of_scalars(
    n: int,
    upper: Mapping[tuple[int, int], GroupScalar],
    table: GeneratorTable | None = None,
) -> QMatrix:
    """The matrix with the given upper triangle of GroupScalars.  Without a
    table, it is the sorted generator names of the entries and their common
    modulus."""
    moduli = {s.modulus for s in upper.values()}
    if table is None:
        if len(moduli) > 1:
            raise TableMismatchError("entries use different torsion moduli")
        names = sorted({g for s in upper.values() for g in s.generators()})
        table = GeneratorTable(tuple(names), moduli.pop() if moduli else 2)
    elif moduli - {table.torsion_modulus}:
        raise TableMismatchError("matrix entry not admitted by generator table")
    return QMatrix(n, table, {p: (dict(s.exponents), s.torsion) for p, s in upper.items()})


def random_qmatrix(rng: random.Random, n: int, torsion: bool = True) -> QMatrix:
    """Unstructured random symbolic matrix over a few named generators."""
    upper = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            exps = {}
            for g in rng.sample(GEN_POOL, rng.randint(0, 3)):
                e = rng.randint(-2, 2)
                if e:
                    exps[g] = e
            t = rng.randint(0, 1) if torsion else 0
            upper[(i, j)] = GroupScalar.from_dict(exps, t, 2)
    return qmatrix_of_scalars(n, upper)


def random_structured_qmatrix(rng: random.Random, n: int) -> QMatrix:
    """Matrix whose good set is the closure of a random triple set; these
    exercise nontrivial point varieties much more often than raw noise."""
    trips = all_triples(n)
    k = rng.randint(0, min(4, len(trips)))
    J = TripleSet.of(n, rng.sample(trips, k))
    return generic_point_of_node(closure(J))


def evaluate(s: GroupScalar, assignment: Mapping[str, Fraction | int]) -> Fraction:
    """Exact rational value of a scalar under a full assignment; needs
    modulus <= 2 (the root of unity maps to -1)."""
    if s.modulus > 2:
        raise ScalarError("torsion of order > 2 has no rational value")
    value = Fraction(-1) ** s.torsion
    for g, e in s.exponents:
        if g not in assignment:
            raise ScalarError(f"no value assigned to generator {g!r}")
        base = Fraction(assignment[g])
        if base == 0:
            raise ScalarError("generators must map to nonzero rationals")
        value *= base ** e
    return value


def instantiate(Q: QMatrix, assignment: Mapping[str, Fraction | int]) -> list[list[Fraction]]:
    """Exact rational matrix under a full generator assignment.

    Requires torsion modulus <= 2; the root of unity becomes -1.  The
    result retains multiplicative antisymmetry and is the numeric oracle
    for every symbolic computation in the package.
    """
    if Q.table.torsion_modulus > 2:
        raise ScalarError("cannot instantiate: torsion modulus exceeds 2")
    missing = [g for g in Q.table.names if g not in assignment]
    if missing:
        raise ScalarError(f"missing assignment for generators {missing}")
    size = Q.n + 1
    return [
        [evaluate(Q.entry(i, j), assignment) for j in range(size)]
        for i in range(size)
    ]


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


def non_dense_adequate(n: int) -> list[TripleSet]:
    """Canonical representatives of nonempty adequate classes that are not
    dense.  Empty for n <= 4; exactly two classes for n = 5."""
    catalog = enumerate_adequate(n)
    return [
        rep
        for rep in catalog.representatives
        if len(rep) > 0 and not is_dense(rep)
    ]


def transversal_family(parts: int) -> dict:
    """Matrix JSON on 3 * parts coordinates in parts of three: q_ij = 1
    across parts and a fresh generator inside a part.  Its components are
    the 3^parts transversals and the 3 * parts lines inside the parts."""
    n = 3 * parts - 1
    upper = {
        f"{i},{j}": f"g{i}_{j}" if i // 3 == j // 3 else "1"
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    }
    return {"n": n, "upper": upper}


def links_is_dense(C: TripleSet) -> bool:
    """Oracle for is_dense: some coordinate line lies in at least n - 2
    members of C, i.e. its link holds at least n indices (the line's own
    two included)."""
    link = C.links()
    return any(link[a][b].bit_count() >= C.n for a in range(C.n + 1) for b in range(a))


def permute_triple(perm: tuple[int, ...], t: Triple) -> Triple:
    a, b, c = perm[t[0]], perm[t[1]], perm[t[2]]
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
        if a > b:
            a, b = b, a
    return (a, b, c)


def apply_perm(J: TripleSet, perm: tuple[int, ...]) -> TripleSet:
    """Image of a triple set under a permutation of the coordinates {0..n}."""
    return TripleSet.of(J.n, (permute_triple(perm, t) for t in J))


def find_permutation_to(J: TripleSet, target: TripleSet) -> tuple[int, ...] | None:
    """A permutation sending J onto target, if one exists."""
    if target.n != J.n or len(target) != len(J):
        return None
    hits = np.flatnonzero(mask_images(J.n, J.mask) == target.mask)
    return permutations(J.n)[int(hits[0])] if len(hits) else None


def hermite_basis(lat: SubLattice) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite-form basis of a lattice: positive pivots, entries
    above each pivot reduced into [0, pivot).  Two lattices are equal iff
    their bases are."""
    rows = [
        [-v for v in row] if row[p] < 0 else row.copy()
        for row, p in zip(lat.rows, lat.pivots)
    ]
    # reduce left-to-right so later reductions never touch earlier pivots
    for r in range(len(rows)):
        p = lat.pivots[r]
        for above in range(r):
            q = rows[above][p] // rows[r][p]
            if q:
                for c in range(p, lat.dim):
                    rows[above][c] -= q * rows[r][c]
    return tuple(tuple(row) for row in rows)


def kernel_rank(n: int) -> int:
    """Rank of the span of all triple characters; its corank in the pair
    lattice is the dimension n of the free rescaling torus."""
    return span(TripleSet.full(n)).rank


def snf_diagonal(D: list[list[int]]) -> list[int]:
    """Diagonal of a Smith normal form D."""
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def rational_b(matrix: list[list[Fraction]], t: Triple) -> Fraction:
    """b-value of an instantiated rational matrix (numeric oracle)."""
    i, j, k = t
    return matrix[i][j] * matrix[j][k] / matrix[i][k]


def prime_assignment(Q: QMatrix) -> dict[str, int]:
    """Distinct primes per generator; exactness makes this a faithful
    numeric oracle (unique factorization)."""
    return {g: PRIMES[i] for i, g in enumerate(Q.table.names)}


def row_sweep_adequate_masks(n: int) -> np.ndarray:
    """Adequate collection masks, ascending, by one pass over all
    2^C(n+1,3) masks per witness term (oracle for adequate_masks)."""
    masks = np.arange(1 << num_triples(n), dtype=np.int64)
    bad = np.zeros(masks.shape, dtype=bool)
    for t, witness in _witness_masks(n):
        bad |= ((masks >> t) & 1).astype(bool) & ((masks & witness) == 0)
    return masks[~bad]


def canonical_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Orbit-minimal image of every mask in an int64 array, in blocks whose
    images take about 1 MB (batch oracle for canonicalization)."""
    canon = np.empty(len(masks), dtype=np.int64)
    step = max(1, (1 << 17) // _perm_mask_tables(n)[0].shape[1])
    for i in range(0, len(masks), step):
        mask_images(n, masks[i:i + step]).min(axis=1, out=canon[i:i + step])
    return canon


def quotient_image(quotient, vec) -> list[int]:
    """Image vec @ V of any vector in a quotient (the source reads the
    image of a triple character straight off three rows of V)."""
    z = [0] * len(quotient.V)
    for v, row in zip(vec, quotient.V):
        if v:
            z = [a + v * b for a, b in zip(z, row)]
    return z


class DenseSubLattice:
    """Reference copy of the dense echelon kernel that SubLattice replaced:
    every reduction runs over all columns from the pivot on."""

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def add(self, vec) -> bool:
        """Add a vector to the span; returns True if the lattice grew."""
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        vec = list(vec)
        grew = False
        pos = 0
        while True:
            j = next((c for c in range(pos, self.dim) if vec[c]), None)
            if j is None:
                return grew
            r = bisect_left(self.pivots, j)
            if r == len(self.pivots) or self.pivots[r] != j:
                if vec[j] < 0:
                    vec = [-v for v in vec]
                self.rows.insert(r, vec)
                self.pivots.insert(r, j)
                return True
            row = self.rows[r]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                for c in range(j, self.dim):
                    vec[c] -= q * row[c]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                for c in range(j, self.dim):
                    rc, vc = row[c], vec[c]
                    row[c] = x * rc + y * vc
                    vec[c] = ag * vc - bg * rc
                grew = True  # pivot shrank from |a| to g
            pos = j + 1

    def contains(self, vec) -> bool:
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if vec[p] == 0:
                continue
            q, r = divmod(vec[p], row[p])
            if r != 0:
                return False
            for c in range(p, self.dim):
                vec[c] -= q * row[c]
        return not any(vec)


# reference copy of the dense Smith normal form that smith_normal_form replaced
def dense_smith_normal_form(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form D = U @ A @ V with U, V unimodular.

    Returns (D, V); U is not built.  D is diagonal with d_i >= 0 and
    d_i | d_{i+1}.  Its caller, SubLattice.quotient, passes echelon rows:
    at most one row per column.
    """
    A = [row.copy() for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i: int, j: int, x: int, y: int, xx: int, yy: int) -> None:
        # rows_i, rows_j <- x*rows_i + y*rows_j, xx*rows_i + yy*rows_j
        ri, rj = A[i], A[j]
        for c in range(ncols):
            a, b = ri[c], rj[c]
            ri[c] = x * a + y * b
            rj[c] = xx * a + yy * b

    def col_op(i: int, j: int, x: int, y: int, xx: int, yy: int) -> None:
        for M in (A, V):
            for row in M:
                a, b = row[i], row[j]
                row[i] = x * a + y * b
                row[j] = xx * a + yy * b

    def swap_cols(i: int, j: int) -> None:
        for M in (A, V):
            for row in M:
                row[i], row[j] = row[j], row[i]

    k = 0
    size = min(nrows, ncols)
    while k < size:
        # move a nonzero pivot of minimal magnitude into (k, k)
        pivot = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        A[k], A[pivot[0]] = A[pivot[0]], A[k]
        swap_cols(k, pivot[1])
        while True:
            for i in range(k + 1, nrows):
                if A[i][k]:
                    if A[i][k] % A[k][k] == 0:
                        row_op(k, i, 1, 0, -(A[i][k] // A[k][k]), 1)
                    else:
                        # gcd rotation; strictly shrinks |A[k][k]|
                        x, y, g = _xgcd(A[k][k], A[i][k])
                        ag, bg = A[k][k] // g, A[i][k] // g
                        row_op(k, i, x, y, -bg, ag)
            if any(A[k][j] for j in range(k + 1, ncols)):
                for j in range(k + 1, ncols):
                    if A[k][j]:
                        if A[k][j] % A[k][k] == 0:
                            col_op(k, j, 1, 0, -(A[k][j] // A[k][k]), 1)
                        else:
                            x, y, g = _xgcd(A[k][k], A[k][j])
                            ag, bg = A[k][k] // g, A[k][j] // g
                            col_op(k, j, x, y, -bg, ag)
                continue  # column clearing may have refilled the k-th column
            if not any(A[i][k] for i in range(k + 1, nrows)):
                break
        # enforce divisibility d_k | A[i][j] on the trailing block
        offender = None
        for i in range(k + 1, nrows):
            for j in range(k + 1, ncols):
                if A[i][j] % A[k][k]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(k, offender, 1, 1, 0, 1)  # add offending row to row k
            continue  # redo elimination at the same k
        if A[k][k] < 0:
            A[k] = [-v for v in A[k]]
        k += 1
    return A, V


def fixed_point_quartet_saturate(J: TripleSet) -> TripleSet:
    """Reference copy of the four-index rule as a fixed-point loop: rescan
    every tetrahedron until no pass adds a face (oracle for
    quartet_saturate and its worklist step)."""
    mask = J.mask
    changed = True
    while changed:
        changed = False
        for quartet in quartet_masks(J.n):
            missing = quartet & ~mask
            if missing and not missing & (missing - 1):
                mask |= missing
                changed = True
    return TripleSet(J.n, mask)


def per_extension_closed_reps_bfs(n: int) -> tuple[list[DegNode], set[tuple[int, int]]]:
    """Reference copy of the closure-lattice traversal that saturates and
    canonicalizes one extension K + t at a time, and builds each new node
    from its closed set (oracle for the nodes and the one-step inclusions
    that degeneration.build_graph reads off lattice.traverse)."""

    def node_from_closed(closed: TripleSet) -> DegNode:
        cm, orbit = canonical_mask_orbit(n, closed.mask)
        return DegNode(TripleSet(n, cm), node_label(closed), components(closed).type_vector, orbit)

    nodes = [node_from_closed(TripleSet.empty(n))]
    closed_class: dict[int, int] = {}  # canonical L -> canonical closure(L)
    seen = {0}
    steps: set[tuple[int, int]] = set()
    frontier = [0]
    while frontier:
        next_frontier = []
        for k in frontier:
            for b in range(num_triples(n)):
                if k >> b & 1:
                    continue
                lm = canonical_mask(n, fixed_point_quartet_saturate(TripleSet(n, k | 1 << b)).mask)
                cm = closed_class.get(lm)
                if cm is None:
                    closed = closure(TripleSet(n, lm))
                    cm = closed_class[lm] = canonical_mask(n, closed.mask)
                    if cm not in seen:
                        seen.add(cm)
                        nodes.append(node_from_closed(closed))
                        next_frontier.append(cm)
                steps.add((k, cm))
        frontier = next_frontier
    return nodes, steps


def permutation_links(J: TripleSet) -> list[list[int]]:
    """Reference copy of TripleSet.links that walks the six orderings of
    each triple with itertools.permutations (oracle for links)."""
    link = [[(1 << a) | (1 << b) for b in range(J.n + 1)] for a in range(J.n + 1)]
    for t in J:
        for a, b, c in itertools.permutations(t):
            link[a][b] |= 1 << c
    return link


def full_image_generic_point(closed: TripleSet) -> QMatrix:
    """Reference copy of generic_point_of_node that forms the full image
    V[ij] + V[jk] - V[ik] of every excluded plane before testing it, and
    writes every free column of every pair, zeros included, with the phase
    of the chosen character (oracle for the solve whose screen is the good
    set of the trivial-character point)."""
    n = closed.n
    family = forced_solutions(closed)
    quotient = family.quotient
    V = quotient.V
    ij, jk, ik = (a.tolist() for a in boundary_pairs(n))
    forced, free_zero_outside = [], []
    for b, t in enumerate(all_triples(n)):
        if closed.mask >> b & 1:
            continue
        z = [u + v - w for u, v, w in zip(V[ij[b]], V[jk[b]], V[ik[b]])]
        if quotient.is_zero(z):
            forced.append(t)
        elif not any(z[x] for x in quotient.free):
            free_zero_outside.append(z)
    if forced:
        raise NotClosedError(forced)
    try:
        candidates = family.characters()
    except ValueError as exc:
        raise GenericPointError(f"component group too large to search: {exc}") from None
    choice = next(
        (cand for cand in candidates if all(family.phase(cand, z) for z in free_zero_outside)),
        None,
    )
    if choice is None:
        raise GenericPointError(
            "no torsion character separates the closed set; "
            f"{len(free_zero_outside)} torsion-coset triples obstruct"
        )
    gens = {i: f"g{k}" for k, i in enumerate(quotient.free, 1)}
    m = family._exponent
    entries = {
        pair: ({gens[i]: row[i] for i in quotient.free}, family.phase(choice, row))
        for row, pair in zip(V, pair_list(n))
    }
    Q = QMatrix(n, GeneratorTable(tuple(sorted(gens.values())), m if m > 1 else 2), entries)
    achieved = good_triples(Q)
    if achieved != closed:
        raise GenericPointError(f"verification failed: achieved {achieved}, wanted {closed}")
    return Q


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
