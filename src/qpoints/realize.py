"""Constructive realization of collections as concrete algebras.

Given an adequate collection of excluded planes, build a commutation matrix
whose point variety excludes exactly those planes.  The good-triple set of
any matrix is closed under the integer span of its characters, so a
collection is realizable only when its complement is closed; otherwise the
planes the span forces back in are reported as the obstruction.  A closed
complement is realized by its generic point: the character equations are
solved over the exponent lattice, with fresh generators for the free
directions and a torsion character chosen to keep every excluded plane
obstructed.  Every result is verified exactly; a construction that misses
its target is reported, never accepted.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import lcm

from .adequacy import Collection, enumerate_adequate, is_adequate
from .lattice import (
    TORSION_SEARCH_LIMIT,
    closure,
    num_pairs,
    pair_index,
    pair_list,
    smith_normal_form,
    snf_diagonal,
    triple_char,
)
from .scalars import GroupScalar, NameSupply, QMatrix
from .triples import TripleSet, all_triples
from .variety import good_triples


class RealizationError(Exception):
    """Realization could not be attempted."""


class NotAdequateError(RealizationError):
    """The input collection fails the adequacy condition."""


class GenericPointError(Exception):
    """No choice of torsion characters separates the closed set."""


@dataclass(frozen=True)
class RealizationResult:
    matrix: QMatrix | None
    achieved: Collection | None
    target: Collection
    success: bool
    method: str
    detail: str = ""


def forced_good_triples(C: Collection) -> list:
    """Excluded planes of C that no algebra can avoid: triples of C whose
    character lies in the integer span of the complement's characters.

    Good-triple sets are always closed under that span (the obstruction
    scalars multiply along integer character relations), so a collection
    whose complement is not closed is not exactly realizable.
    """
    good = C.complement()
    return sorted(closure(good).triples - good.triples)


def realize(C: Collection, supply: NameSupply | None = None) -> RealizationResult:
    """Build a matrix whose excluded planes are exactly C, and verify it.

    Preconditions: C adequate and n <= 5.  A collection whose complement is
    not character-closed is reported as obstructed, naming the forced planes
    (see forced_good_triples).  Otherwise the complement's generic point
    (generic_point_of_node) is the matrix, exactly verified there; a closed
    set without a generic point is reported with the reason.
    """
    if C.n > 5:
        raise RealizationError("realization supported for n <= 5 only")
    if not is_adequate(C):
        raise NotAdequateError(f"collection is not adequate: {C}")
    forced = forced_good_triples(C)
    if forced:
        return RealizationResult(
            None,
            None,
            C,
            False,
            "obstructed",
            "no exact realization exists: the character span of the "
            f"complement forces {forced} into the point variety",
        )
    try:
        matrix = generic_point_of_node(C.complement(), supply)
    except GenericPointError as exc:
        return RealizationResult(None, None, C, False, "generic-point", f"no generic point: {exc}")
    return RealizationResult(matrix, C, C, True, "generic-point")


@dataclass(frozen=True)
class RealizeAllSummary:
    n: int
    results: tuple[RealizationResult, ...]
    orbit_sizes: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.results)

    @property
    def n_success(self) -> int:
        return sum(1 for r in self.results if r.success)

    def method_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.results:
            counts[r.method] = counts.get(r.method, 0) + 1
        return counts


def _worker_count(threads: int, tasks: int) -> int:
    """Worker processes worth starting: no more than requested, than CPUs,
    or than tasks, and at least one."""
    return max(1, min(threads, os.cpu_count() or 1, tasks))


def realize_all(n: int, threads: int = 1) -> RealizeAllSummary:
    """Run the realization on every adequate orbit class of dimension n."""
    catalog = enumerate_adequate(n)
    reps = catalog.representatives
    workers = _worker_count(threads, len(reps))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(realize, reps, chunksize=8))
    else:
        results = tuple(realize(rep) for rep in reps)
    return RealizeAllSummary(n, results, catalog.orbit_sizes)


def generic_point_of_node(
    closed: TripleSet,
    supply: NameSupply | None = None,
    max_torsion_search: int = TORSION_SEARCH_LIMIT,
) -> QMatrix:
    """A matrix whose good-triple set is exactly the given closed set.

    Solves the character equations over the exponent lattice: free degrees
    of freedom become fresh generators, and the finite component group is
    searched for a character that keeps every triple outside the closed set
    obstructed.  The result is verified exactly.
    """
    supply = supply if supply is not None else NameSupply()
    n = closed.n
    P = num_pairs(n)
    rows = [list(triple_char(t, n)) for t in closed]
    if rows:
        D, _, V = smith_normal_form(rows)
        diag = snf_diagonal(D)
    else:
        V = [[int(i == j) for j in range(P)] for i in range(P)]
        diag = []
    orders = [diag[i] if i < len(diag) else 0 for i in range(P)]
    free_cols = [i for i in range(P) if orders[i] == 0]
    torsion_cols = [(i, orders[i]) for i in range(P) if orders[i] > 1]
    m = lcm(*(d for _, d in torsion_cols)) if torsion_cols else 1
    modulus = m if m > 1 else 2
    # transformed characters z = char . V of the triples outside the closed
    # set, read off the three pair rows of V: z = V[ij] + V[jk] - V[ik]
    idx = pair_index(n)
    free_zero_outside = []
    for (i, j, k) in all_triples(n):
        if (i, j, k) in closed.triples:
            continue
        a, b, c = V[idx[(i, j)]], V[idx[(j, k)]], V[idx[(i, k)]]
        z = [a[x] + b[x] - c[x] for x in range(P)]
        if all(z[x] == 0 for x in free_cols):
            free_zero_outside.append(z)
    # a character lies in the span exactly when z vanishes on the free
    # columns and is divisible by the order of every torsion column
    if any(all(z[x] % d == 0 for x, d in torsion_cols) for z in free_zero_outside):
        raise ValueError("input must be closed under the character span")
    # choose torsion characters separating every remaining outside triple
    total = 1
    for _, d in torsion_cols:
        total *= d
    if total > max_torsion_search:
        raise GenericPointError(f"component group too large to search ({total})")
    choice = None
    for cand in itertools.product(*(range(d) for _, d in torsion_cols)):
        ok = True
        for z in free_zero_outside:
            phase = sum(
                (m // d) * c * z[i] for (i, d), c in zip(torsion_cols, cand)
            ) % m
            if phase == 0:
                ok = False
                break
        if ok:
            choice = cand
            break
    if choice is None:
        raise GenericPointError(
            "no torsion character separates the closed set; "
            f"{len(free_zero_outside)} torsion-coset triples obstruct"
        )
    free_gens = {i: supply.fresh() for i in free_cols}
    upper = {}
    for p_idx, pair in enumerate(pair_list(n)):
        exps = {}
        for i in free_cols:
            if V[p_idx][i]:
                exps[free_gens[i]] = V[p_idx][i]
        phase = sum(
            (m // d) * c * V[p_idx][i] for (i, d), c in zip(torsion_cols, choice)
        ) % m if torsion_cols else 0
        upper[pair] = GroupScalar.from_dict(exps, phase, modulus)
    Q = QMatrix(n, upper)
    achieved = good_triples(Q)
    if achieved != closed:
        raise GenericPointError(
            f"verification failed: achieved {achieved}, wanted {closed}"
        )
    return Q
