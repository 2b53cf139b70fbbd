import random
from fractions import Fraction

import numpy as np
import pytest

from qpoints.adequacy import _witness_masks
from qpoints.realize import generic_point_of_node
from qpoints.lattice import closure, span
from qpoints.scalars import GroupScalar, NameSupply, QMatrix
from qpoints.triples import Triple, TripleSet, _perm_mask_tables, all_triples, mask_images, num_triples

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131]

GEN_POOL = ["a", "b", "c", "d", "e", "f"]


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
    return QMatrix(n, upper)


def random_structured_qmatrix(rng: random.Random, n: int) -> QMatrix:
    """Matrix whose good set is the closure of a random triple set; these
    exercise nontrivial point varieties much more often than raw noise."""
    trips = all_triples(n)
    k = rng.randint(0, min(4, len(trips)))
    J = TripleSet.of(n, rng.sample(trips, k))
    return generic_point_of_node(closure(J), NameSupply("s"))


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
