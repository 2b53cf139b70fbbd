"""Reference matrices and collections for the tests, perfbench/tests and
the README quick start; no command imports them.

These are the standing examples of the theory at small dimension: the
four-variable matrix whose point variety consists of two planes and a line,
the two exceptional six-variable collections that are adequate but not
dense, and the matrices realizing them.
"""

from __future__ import annotations

from .lattice import pair_list
from .scalars import GeneratorTable, QMatrix, qmatrix_from_json_dict
from .triples import TripleSet


def p3_two_planes_matrix() -> QMatrix:
    """Four-variable matrix with point variety P(0,1,2) u P(1,2,3) u P(0,3)
    for generic values of a, b, c, x: the matrix file of the README."""
    return qmatrix_from_json_dict({
        "n": 3,
        "torsion_modulus": 2,
        "generators": ["a", "b", "c", "x"],
        "upper": {"0,1": "a", "0,2": "b", "0,3": "x",
                  "1,2": "a^-1*b", "1,3": "c", "2,3": "a*b^-1*c"},
    })


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
    entries = {
        (i, j): ({"x": 1} if i in (0, 1) and j in (4, 5) else {}, 0) for i, j in pair_list(5)
    }
    return QMatrix(5, GeneratorTable(("x",), 2), entries)


def transversal_collection() -> TripleSet:
    """The eight planes meeting all three blocks of {0,1} | {2,3} | {4,5}:
    adequate but not dense, realized by block_matrix."""
    return TripleSet.of(
        5,
        [(i, j, k) for i in (0, 1) for j in (2, 3) for k in (4, 5)],
    )


def sign_matrix() -> QMatrix:
    """Six-variable matrix of signs realizing the pentagonal collection.

    Row i of the sign grid below gives q_ij for j > i, -1 being the root of
    unity w; the full matrix is completed by symmetry (signs are their own
    inverses).
    """
    grid = [
        [1, -1, 1, 1, -1, 1],
        [-1, 1, -1, 1, 1, 1],
        [1, -1, 1, -1, 1, 1],
        [1, 1, -1, 1, -1, 1],
        [-1, 1, 1, -1, 1, 1],
        [1, 1, 1, 1, 1, 1],
    ]
    entries = {(i, j): ({}, int(grid[i][j] < 0)) for i, j in pair_list(5)}
    return QMatrix(5, GeneratorTable((), 2), entries)


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
