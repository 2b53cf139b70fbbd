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
from math import lcm, prod

from .adequacy import Collection, enumerate_adequate, is_adequate
from .lattice import TORSION_SEARCH_LIMIT, pair_list, span, triple_chars
from .scalars import GroupScalar, NameSupply, QMatrix
from .triples import TripleSet
from .variety import good_triples


class RealizationError(Exception):
    """Realization could not be attempted."""


class NotAdequateError(RealizationError):
    """The input collection fails the adequacy condition."""


class GenericPointError(Exception):
    """No choice of torsion characters separates the closed set."""


class NotClosedError(ValueError):
    """The set is not closed under the character span; `forced` lists the
    triples outside it whose characters lie in the span."""

    def __init__(self, forced: list) -> None:
        super().__init__("input must be closed under the character span")
        self.forced = forced


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
    quotient = span(C.complement()).quotient()
    chars = triple_chars(C.n)
    return [t for t in C if quotient.is_zero(quotient.image(chars[t]))]


def realize(C: Collection, supply: NameSupply | None = None) -> RealizationResult:
    """Build a matrix whose excluded planes are exactly C, and verify it.

    Preconditions: C adequate and n <= 5.  The matrix is the generic point
    of the complement (generic_point_of_node), exactly verified there.  A
    complement that is not character-closed is reported as obstructed,
    naming the forced planes (see forced_good_triples); a closed set
    without a generic point is reported with the reason.
    """
    if C.n > 5:
        raise RealizationError("realization supported for n <= 5 only")
    if not is_adequate(C):
        raise NotAdequateError(f"collection is not adequate: {C}")
    try:
        matrix = generic_point_of_node(C.complement(), supply)
    except NotClosedError as exc:
        return RealizationResult(
            None,
            None,
            C,
            False,
            "obstructed",
            "no exact realization exists: the character span of the "
            f"complement forces {exc.forced} into the point variety",
        )
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


def generic_point_of_node(closed: TripleSet, supply: NameSupply | None = None) -> QMatrix:
    """A matrix whose good-triple set is exactly the given closed set.

    Solves the character equations over the quotient of the exponent
    lattice by the closed set's span: free degrees of freedom become fresh
    generators, and the finite component group is searched for a character
    that keeps every triple outside the closed set obstructed.  The result
    is verified exactly.  A set that is not closed raises NotClosedError.
    """
    supply = supply if supply is not None else NameSupply()
    n = closed.n
    quotient = span(closed).quotient()
    free_cols, torsion_cols, V = quotient.free, quotient.torsion, quotient.V
    m = lcm(*(d for _, d in torsion_cols))
    modulus = m if m > 1 else 2
    # images of the characters outside the closed set: those that are zero
    # are forced into it; those zero on the free columns lie in a torsion
    # coset of the span, and only a torsion character can obstruct them
    forced, free_zero_outside = [], []
    for b, (t, char) in enumerate(triple_chars(n).items()):
        if closed.mask >> b & 1:
            continue
        z = quotient.image(char)
        if quotient.is_zero(z):
            forced.append(t)
        elif not any(z[x] for x in free_cols):
            free_zero_outside.append(z)
    if forced:
        raise NotClosedError(forced)

    def phase(cand, z) -> int:
        # value in Z/m of the torsion character cand on an image z
        return sum((m // d) * c * z[i] for (i, d), c in zip(torsion_cols, cand)) % m

    # choose torsion characters separating every remaining outside triple
    total = prod(d for _, d in torsion_cols)
    if total > TORSION_SEARCH_LIMIT:
        raise GenericPointError(f"component group too large to search ({total})")
    candidates = itertools.product(*(range(d) for _, d in torsion_cols))
    choice = next(
        (cand for cand in candidates if all(phase(cand, z) for z in free_zero_outside)), None
    )
    if choice is None:
        raise GenericPointError(
            "no torsion character separates the closed set; "
            f"{len(free_zero_outside)} torsion-coset triples obstruct"
        )
    free_gens = {i: supply.fresh() for i in free_cols}
    upper = {}
    for row, pair in zip(V, pair_list(n)):
        exps = {free_gens[i]: row[i] for i in free_cols if row[i]}
        upper[pair] = GroupScalar.from_dict(exps, phase(choice, row), modulus)
    Q = QMatrix(n, upper)
    achieved = good_triples(Q)
    if achieved != closed:
        raise GenericPointError(
            f"verification failed: achieved {achieved}, wanted {closed}"
        )
    return Q
