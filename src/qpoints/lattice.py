"""Integer character lattice of the parameter torus.

Each triple (i, j, k) determines a character on the torus of commutation
parameters: the exponent vector of q_ij * q_jk * q_ik^-1 over the coordinate
functions q_uv, u < v.  Sub-tori cut out by sets of such characters are
compared through the integer span of their characters; membership is exact
integer membership (no saturation), which is what keeps torsion solutions
such as sign matrices distinguishable from the identity component.
This module alone lays out the coordinates: pair_list is the pair order
of matrix rows, pair_index its inverse, and boundary_pairs the (ij, jk,
ik) table of every triple that good_triples and the generic point read.

The lattice is read as homology.  For a triple set K, let X_K be the
2-complex on the n + 1 coordinates with every edge and the triangles of
K.  The character of (i, j, k) is the simplicial boundary d[i,j,k] =
e_jk - e_ik + e_ij, so span(K) is the group of boundaries of X_K and
Z^P / span(K) is Z^n x H_1(X_K).  node_label is the rank of H_1(X_K), and
the torsion of the quotient is the torsion of H_1(X_K).  closure(K) adds
every triangle whose boundary is already a boundary in X_K; the four-index
rule of quartet_saturate is the case where the 2-cycle is the boundary of
a tetrahedron.

One kernel, SubLattice.quotient, computes Z^P / L for a span L from the
Smith normal form of L's echelon rows: free columns, torsion columns with
their orders, and the quotient map V.  A triple's character is the
simplicial boundary e_ij + e_jk - e_ik, so its image is V[ij] + V[jk] -
V[ik].  Realization, its obstructions and forced solutions read that
quotient; closure and node labels read L.

One traversal, traverse, sized for n <= 5, lists the
quartet-closed sets (quartet_saturate), complements of the adequate
collections, up to symmetry; the closed sets, the degeneration graph's
nodes, are the classes that closure fixes.

Characters are sparse, and so are their echelon rows, so the kernel walks
row supports: SubLattice.add and contains do arithmetic only on the
nonzero columns of each row, and smith_normal_form clears a unit pivot's
row and column in one pass over their nonzeros.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from functools import lru_cache
from math import comb

import numpy as np

from .triples import Triple, TripleSet, all_triples, check_triple, mask_images, num_triples, quartet_masks


#: Largest finite component group, as a product of torsion orders, that is
#: searched or listed element by element.
TORSION_SEARCH_LIMIT = 100_000


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (i, j) with i < j, lexicographically; the coordinates of
    the parameter torus."""
    return tuple(itertools.combinations(range(n + 1), 2))


@lru_cache(maxsize=None)
def pair_index(n: int) -> dict[tuple[int, int], int]:
    return {p: i for i, p in enumerate(pair_list(n))}


def num_pairs(n: int) -> int:
    return comb(n + 1, 2)


@lru_cache(maxsize=None)
def boundary_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair indices (ij, jk, ik) of every triple, in lexicographic order."""
    pair = np.zeros((n + 1, n + 1), dtype=np.intp)
    pair[np.triu_indices(n + 1, 1)] = np.arange(num_pairs(n))
    i, j, k = np.array(all_triples(n), dtype=np.intp).reshape(-1, 3).T
    return pair[i, j], pair[j, k], pair[i, k]


def triple_char(t: Triple, n: int) -> tuple[int, ...]:
    """Character vector of a triple: +1 at (i,j), +1 at (j,k), -1 at (i,k)."""
    i, j, k = check_triple(t, n)
    idx = pair_index(n)
    v = [0] * num_pairs(n)
    v[idx[(i, j)]] += 1
    v[idx[(j, k)]] += 1
    v[idx[(i, k)]] -= 1
    return tuple(v)


@lru_cache(maxsize=None)
def triple_chars(n: int) -> dict[Triple, array]:
    """Characters of all triples of dimension n, in lexicographic order, as
    signed bytes: 28 MB at n = 50, where tuples would take 213 MB."""
    return {t: array("b", triple_char(t, n)) for t in all_triples(n)}


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with x*a + y*b == g == gcd(a, b)."""
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class SubLattice:
    """Integer row span kept in echelon form, with exact membership.

    Rows have strictly increasing pivot columns.  Membership requires exact
    divisibility at every pivot, so the lattice is never silently saturated.
    supports[r] lists the nonzero columns of rows[r], in ascending order;
    add and contains do arithmetic only on those columns.
    """

    __slots__ = ("dim", "rows", "pivots", "supports")

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self.supports: list[list[int]] = []

    @classmethod
    def span(cls, vectors, dim: int) -> "SubLattice":
        lat = cls(dim)
        for v in vectors:
            lat.add(v)
        return lat

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec) -> bool:
        """Add a vector to the span; returns True if the lattice grew."""
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        # the vector's nonzero entries, reduced against one row at a time
        v = {c: vec[c] for c in itertools.compress(range(self.dim), vec)}
        rows, pivots, supports = self.rows, self.pivots, self.supports
        grew = False
        while v:
            j = min(v)
            r = bisect_left(pivots, j)
            if r == len(pivots) or pivots[r] != j:
                sign = -1 if v[j] < 0 else 1
                row = [0] * self.dim
                for c, x in v.items():
                    row[c] = sign * x
                rows.insert(r, row)
                pivots.insert(r, j)
                supports.insert(r, sorted(v))
                return True
            row = rows[r]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for c in supports[r]:
                    x = v.get(c, 0) - q * row[c]
                    if x:
                        v[c] = x
                    else:
                        del v[c]
            else:
                x, y, g = _xgcd(a, b)
                ag, bg = a // g, b // g
                support = []
                for c in sorted(v.keys() | supports[r]):
                    rc, vc = row[c], v.get(c, 0)
                    row[c], vc = x * rc + y * vc, ag * vc - bg * rc
                    if row[c]:
                        support.append(c)
                    if vc:
                        v[c] = vc
                    else:
                        v.pop(c, None)
                supports[r] = support
                grew = True  # pivot shrank from |a| to g
        return grew

    def contains(self, vec) -> bool:
        if len(vec) != self.dim:
            raise ValueError("vector dimension mismatch")
        vec = list(vec)
        for row, p, support in zip(self.rows, self.pivots, self.supports):
            if vec[p] == 0:
                continue
            q, r = divmod(vec[p], row[p])
            if r != 0:
                return False
            for c in support:
                vec[c] -= q * row[c]
        return not any(vec)

    def quotient(self) -> "Quotient":
        """The quotient of Z^dim by this lattice."""
        return Quotient(self)

    def __repr__(self) -> str:
        return f"SubLattice(dim={self.dim}, rank={self.rank})"


class Quotient:
    """The quotient Z^dim / L of a sub-lattice L.

    Read off the Smith normal form D = U @ A @ V of L's echelon rows A: a
    vector v maps to its image v @ V.  Column i of the image has order
    d_i, the i-th diagonal entry of D (0 beyond the rank).  Columns of
    order 0 are free, columns of order d > 1 are torsion (Z/d), and columns
    of order 1 carry nothing.  v lies in L exactly when its image is zero
    in the quotient: zero on every free column and divisible by the order
    of every torsion column.
    """

    __slots__ = ("free", "torsion", "V")

    def __init__(self, lat: SubLattice) -> None:
        # a zero row stands in for the empty span, so that V is dim x dim
        D, self.V = smith_normal_form(lat.rows or [[0] * lat.dim])
        orders = [D[i][i] if i < len(D) else 0 for i in range(lat.dim)]
        self.free = tuple(i for i, d in enumerate(orders) if d == 0)
        self.torsion = tuple((i, d) for i, d in enumerate(orders) if d > 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Quotient):
            return NotImplemented
        return (self.free, self.torsion, self.V) == (other.free, other.torsion, other.V)

    def __hash__(self) -> int:
        return hash((self.free, self.torsion, tuple(map(tuple, self.V))))

    def is_zero(self, z) -> bool:
        """Whether an image is zero, i.e. its vector lies in L."""
        return not any(z[i] for i in self.free) and all(z[i] % d == 0 for i, d in self.torsion)


def span(J: TripleSet) -> SubLattice:
    """Integer span of the characters of a triple set."""
    chars = triple_chars(J.n)
    return SubLattice.span((chars[t] for t in J), num_pairs(J.n))


def closure(J: TripleSet) -> TripleSet:
    """Largest triple set cutting out the same sub-torus as J.

    A triple belongs to the closure exactly when its character is an integer
    combination of the characters of J.  The operator is extensive, monotone
    and idempotent.
    """
    return _closure_label(J)[0]


def _closure_label(J: TripleSet) -> tuple[TripleSet, int]:
    """closure(J) and node_label(J), read off one span of J's characters
    (the closure has the same span, hence the same label)."""
    lat = span(J)
    mask = J.mask
    for b, char in enumerate(triple_chars(J.n).values()):
        if not mask >> b & 1 and lat.contains(char):
            mask |= 1 << b
    return TripleSet(J.n, mask), num_pairs(J.n) - lat.rank - J.n


@lru_cache(maxsize=None)
def _quartets_through(n: int) -> tuple[tuple[int, ...], ...]:
    """For each triple bit, the n - 2 quartet masks holding that face."""
    through: list[list[int]] = [[] for _ in range(num_triples(n))]
    for quartet in quartet_masks(n):
        m = quartet
        while m:
            low = m & -m
            through[low.bit_length() - 1].append(quartet)
            m ^= low
    return tuple(map(tuple, through))


def _quartet_add(n: int, mask: int, b: int) -> int:
    """quartet_saturate of mask + bit b, for a mask already closed under
    the four-index rule.

    A quartet can only gain its third face from a bit that was just added,
    so a worklist rechecks the quartets through b, then through each bit
    that they force, and nothing else.
    """
    through = _quartets_through(n)
    mask |= 1 << b
    todo = [b]
    while todo:
        for quartet in through[todo.pop()]:
            missing = quartet & ~mask
            if missing and not missing & (missing - 1):
                mask |= missing
                todo.append(missing.bit_length() - 1)
    return mask


def traverse(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Quartet-closed triple masks up to coordinate symmetry, and canonical
    one-step inclusions between them.

    Returns the canonical masks K, 0 first, and for each K the canonical
    masks quartet_saturate(K + t), t not in K.  Each K + t is saturated
    by one _quartet_add step, and the results for K are canonicalized in
    one batched gather.  Every class is reached from the empty set, since
    dropping one element of a minimal generating set leaves a smaller
    closed set.  The exact closure commutes with the coordinate
    permutations and contains the four-index rule, so the closed sets are
    among the classes.  Sized for n <= 5.
    """
    if n < 0:
        raise ValueError(f"dimension index n must be >= 0, got {n}")
    if n > 5:
        raise ValueError(f"closure-class enumeration (n = {n}) is out of budget; n <= 5")
    classes, successors, seen = [0], [], {0}
    for k in classes:
        ls = {_quartet_add(n, k, b) for b in range(num_triples(n)) if not k >> b & 1}
        images = mask_images(n, np.fromiter(ls, dtype=np.int64, count=len(ls)))
        targets = set(images.min(axis=1).tolist())
        successors.append(tuple(targets))
        classes += targets - seen
        seen |= targets
    return tuple(classes), tuple(successors)


def quartet_saturate(J: TripleSet) -> TripleSet:
    """Least fixed point of the four-index (tetrahedron) rule.

    The four faces of a tetrahedron i < j < k < l have characters whose
    alternating sum is zero (the boundary of a boundary), so whenever three
    faces are present the fourth is forced.  The result lies between J and
    closure(J) and has the same closure; it is the one rule traverse
    walks, and its fixed points are exactly the complements of the
    adequate collections.

    The empty set is closed, so adding the bits of J one at a time with
    _quartet_add, which keeps the running mask closed, reaches the fixed
    point.
    """
    mask = 0
    while rest := J.mask & ~mask:
        mask = _quartet_add(J.n, mask, (rest & -rest).bit_length() - 1)
    return TripleSet(J.n, mask)


def node_label(J: TripleSet) -> int:
    """Dimension of the sub-torus cut out by J, minus the n dimensions of
    the everywhere-free rescaling action.  The commutative node has label 0;
    the fully generic node has the largest label."""
    return num_pairs(J.n) - span(J).rank - J.n


def smith_normal_form(matrix: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Smith normal form D = U @ A @ V with U, V unimodular.

    Returns (D, V); U is not built.  D is diagonal with d_i >= 0 and
    d_i | d_{i+1}.  Its caller, SubLattice.quotient, passes echelon rows:
    at most one row per column.

    The pivot at step k is the first entry of least magnitude in row-major
    order of the trailing block.  Rows are cleared below it, then columns
    to its right; a gcd step may refill the cleared column, and the step
    repeats until both are clear.  A unit pivot, the common case for
    boundary matrices, divides everything, so the clearing touches only the
    nonzeros of the pivot row, and in V only the rows that are nonzero in
    the pivot column.
    """
    A = [list(row) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    V = [[0] * ncols for _ in range(ncols)]
    for j in range(ncols):
        V[j][j] = 1

    def nonzero(vec: list[int]) -> list[int]:
        return list(itertools.compress(range(ncols), vec))

    def col_op(i: int, j: int, x: int, y: int, xx: int, yy: int) -> None:
        # cols_i, cols_j <- x*cols_i + y*cols_j, xx*cols_i + yy*cols_j; rows
        # of A above k are zero from column k on
        for row in itertools.chain(A[k:], V):
            a, b = row[i], row[j]
            row[i] = x * a + y * b
            row[j] = xx * a + yy * b

    k = 0
    size = min(nrows, ncols)
    while k < size:
        # move a nonzero pivot of minimal magnitude into (k, k); rows from k
        # on are zero left of column k, and no entry is smaller than a unit
        pivot = None
        for i in range(k, nrows):
            units = [A[i].index(u, k) for u in (1, -1) if u in A[i]]
            if units:
                pivot = (i, min(units))
                break
        else:
            for i in range(k, nrows):
                for j in range(k, ncols):
                    if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                        pivot = (i, j)
        if pivot is None:
            break
        A[k], A[pivot[0]] = A[pivot[0]], A[k]
        if pivot[1] != k:
            for row in itertools.chain(A[k:], V):
                row[k], row[pivot[1]] = row[pivot[1]], row[k]
        while True:
            rk = A[k]
            support = nonzero(rk)
            for i in range(k + 1, nrows):
                ri = A[i]
                if ri[k]:
                    if ri[k] % rk[k] == 0:
                        q = ri[k] // rk[k]
                        for c in support:
                            ri[c] -= q * rk[c]
                    else:
                        # gcd rotation; strictly shrinks |A[k][k]|
                        x, y, g = _xgcd(rk[k], ri[k])
                        ag, bg = rk[k] // g, ri[k] // g
                        A[k] = [x * a + y * b for a, b in zip(rk, ri)]
                        A[i] = [ag * b - bg * a for a, b in zip(rk, ri)]
                        rk = A[k]
                        support = nonzero(rk)
            # column k is now zero off row k
            right = [j for j in support if j > k]
            if not right:
                break
            if all(rk[j] % rk[k] == 0 for j in right):
                # every column operation leaves column k alone, so one pass
                # over V's rows that are nonzero in column k clears row k
                qs = [(j, rk[j] // rk[k]) for j in right]
                for row in V:
                    if row[k]:
                        for j, q in qs:
                            row[j] -= q * row[k]
                for j in right:
                    rk[j] = 0
                break
            for j in range(k + 1, ncols):
                if rk[j]:
                    if rk[j] % rk[k] == 0:
                        col_op(k, j, 1, 0, -(rk[j] // rk[k]), 1)
                    else:
                        x, y, g = _xgcd(rk[k], rk[j])
                        ag, bg = rk[k] // g, rk[j] // g
                        col_op(k, j, x, y, -bg, ag)
            # column clearing may have refilled the k-th column
        # enforce divisibility d_k | A[i][j] on the trailing block
        if abs(rk[k]) != 1:
            offender = next((i for i in range(k + 1, nrows) if any(a % rk[k] for a in A[i])), None)
            if offender is not None:
                A[k] = [a + b for a, b in zip(rk, A[offender])]  # add offending row to row k
                continue  # redo elimination at the same k
        if rk[k] < 0:
            rk[k] = -rk[k]
        k += 1
    return A, V
