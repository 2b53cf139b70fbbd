"""Reference matrices and collections for the tests, perfbench/tests and
the README quick start; no command imports them.

These are the standing examples of the theory at small dimension: the
four-variable matrix whose point variety consists of two planes and a line,
the two exceptional six-variable collections that are adequate but not
dense, and the matrices realizing them.
"""

from __future__ import annotations

from .lattice import pair_list
from .scalars import GeneratorTable, GroupScalar, QMatrix, parse_scalar
from .triples import TripleSet


def p3_two_planes_matrix() -> QMatrix:
    """Four-variable matrix with point variety P(0,1,2) u P(1,2,3) u P(0,3)
    for generic values of a, b, c, x."""
    table = GeneratorTable(("a", "b", "c", "x"), 2)
    entries = {
        (0, 1): "a",
        (0, 2): "b",
        (0, 3): "x",
        (1, 2): "a^-1*b",
        (1, 3): "c",
        (2, 3): "a*b^-1*c",
    }
    upper = {p: parse_scalar(s, 2) for p, s in entries.items()}
    return QMatrix(3, upper, table)


def p3_two_planes_collection() -> TripleSet:
    """Excluded planes of p3_two_planes_matrix: P(0,1,3) and P(0,2,3)."""
    return TripleSet.of(3, [(0, 1, 3), (0, 2, 3)])


def block_matrix() -> QMatrix:
    """Six-variable matrix with blocks of ones and one generic value.

    Entry q_ij equals the generator x when i is in {0, 1} and j in
    {4, 5}, and 1 otherwise.  Its point variety is the union of the three
    coordinate 3-spaces P(0,1,2,3), P(0,1,4,5) and P(2,3,4,5); the excluded
    planes are exactly the transversal collection below.
    """
    table = GeneratorTable(("x",), 2)
    x = table.gen("x")
    one = table.one()
    upper = {(i, j): x if i in (0, 1) and j in (4, 5) else one for i, j in pair_list(5)}
    return QMatrix(5, upper, table)


def transversal_collection() -> TripleSet:
    """The eight planes meeting all three blocks of {0,1} | {2,3} | {4,5}:
    adequate but not dense, realized by block_matrix."""
    return TripleSet.of(
        5,
        [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)],
    )


def sign_matrix() -> QMatrix:
    """Six-variable matrix of signs realizing the pentagonal collection.

    Row i of the sign grid below gives q_ij for j > i; the full matrix is
    completed by symmetry (signs are their own inverses).
    """
    grid = [
        [1, -1, 1, 1, -1, 1],
        [-1, 1, -1, 1, 1, 1],
        [1, -1, 1, -1, 1, 1],
        [1, 1, -1, 1, -1, 1],
        [-1, 1, 1, -1, 1, 1],
        [1, 1, 1, 1, 1, 1],
    ]
    table = GeneratorTable((), 2)
    upper = {
        (i, j): GroupScalar.root_of_unity(2) if grid[i][j] < 0 else table.one()
        for i, j in pair_list(5)
    }
    return QMatrix(5, upper, table)


def pentagonal_good_set() -> TripleSet:
    """Planes contained in the point variety of sign_matrix: the cyclic
    triples (i, i+1, i+2) mod 5 and the star triples (i, i+2, 5)."""
    return TripleSet.of(
        5,
        [
            (0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4),
            (0, 2, 5), (1, 3, 5), (2, 4, 5), (0, 3, 5), (1, 4, 5),
        ],
    )


def pentagonal_collection() -> TripleSet:
    """Excluded planes of sign_matrix: adequate but not dense, and the
    source of the second endpoint of the six-variable degeneration graph."""
    return pentagonal_good_set().complement()


def all_ones_matrix(n: int) -> QMatrix:
    """The commutative point: every parameter equals 1."""
    return QMatrix.ones(n)
