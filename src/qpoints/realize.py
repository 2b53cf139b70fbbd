"""Constructive realization of collections, and the solver of b_t = 1.

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

One SolutionFamily solves b_t = 1, for the generic point and for the
forced solutions of a good set under pinned parameters.  Both are built by
forced_solutions, which refuses n above SOLVER_MAX_N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod
from typing import Iterable

from .adequacy import Collection, enumerate_adequate, is_adequate
from .lattice import (
    TORSION_SEARCH_LIMIT,
    Quotient,
    SubLattice,
    boundary_pairs,
    num_pairs,
    pair_list,
    triple_chars,
)
from .scalars import GeneratorTable, GroupScalar, QMatrix
from .triples import TripleSet, all_triples
from .variety import good_triples


#: Largest n the b_t = 1 solver accepts.  The system has n(n+1)/2 unknowns,
#: so an empty good set in a huge n would exhaust memory.  The full set is
#: the slowest input: measured on a shared 2-vCPU host it takes 0.03 s at
#: n = 16, 0.6 s at n = 30 and 8 s at n = 50 (99 MB peak), almost all in
#: the echelon reduction of its characters, 20825 of them at n = 50.
SOLVER_MAX_N = 50


def _check_solver_bound(n: int) -> None:
    if n > SOLVER_MAX_N:
        raise ValueError(f"the b_t = 1 solver supports n <= {SOLVER_MAX_N}, got n = {n}")


class NotAdequateError(ValueError):
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
    target: Collection
    success: bool
    method: str
    detail: str = ""


def realize(C: Collection) -> RealizationResult:
    """Build a matrix whose excluded planes are exactly C, and verify it.

    The matrix is the generic point of the complement
    (generic_point_of_node), exactly verified there.  A complement that is
    not character-closed is reported as obstructed, naming the forced planes
    (see generic_point_of_node); a closed set without a generic point is
    reported with the reason.  Raises ValueError when n exceeds
    SOLVER_MAX_N, checked first so that a huge n fails at once, and
    NotAdequateError when C is not adequate.
    """
    _check_solver_bound(C.n)
    if not is_adequate(C):
        raise NotAdequateError(f"collection is not adequate: {C}")
    try:
        matrix = generic_point_of_node(C.complement())
    except NotClosedError as exc:
        return RealizationResult(
            None,
            C,
            False,
            "obstructed",
            "no exact realization exists: the character span of the "
            f"complement forces {exc.forced} into the point variety",
        )
    except GenericPointError as exc:
        return RealizationResult(None, C, False, "generic-point", f"no generic point: {exc}")
    return RealizationResult(matrix, C, True, "generic-point")


def realize_all(n: int) -> tuple[RealizationResult, ...]:
    """The realization of every adequate orbit class of dimension n, in
    catalog order."""
    return tuple(realize(rep) for rep in enumerate_adequate(n).representatives)


@dataclass(frozen=True)
class SolutionFamily:
    """Solutions of a system b_t = 1 over the quotient of the pair lattice
    by the span of its characters.

    The solution set is a torus of dimension free_rank times a finite
    component group, the product of the cyclic factors Z/d of
    torsion_orders.  A solution is read off the quotient map V: the
    parameter of pair p carries generator gens[i] to the power V[p][i] on
    each free column i, and the phase of a torsion character on row p.
    """

    n: int
    quotient: Quotient

    @property
    def free_rank(self) -> int:
        return len(self.quotient.free)

    @property
    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.quotient.torsion)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def count(self) -> int | None:
        return prod(self.torsion_orders) if self.is_finite else None

    @cached_property
    def _exponent(self) -> int:
        # phases live in Z/m, m the exponent of the component group
        return lcm(*self.torsion_orders)

    def characters(self) -> Iterable[tuple[int, ...]]:
        """Every torsion character, one residue per cyclic factor; refused
        above TORSION_SEARCH_LIMIT characters."""
        total = prod(self.torsion_orders)
        if total > TORSION_SEARCH_LIMIT:
            raise ValueError(
                f"{total} torsion characters exceed the listing limit of {TORSION_SEARCH_LIMIT}"
            )
        return itertools.product(*(range(d) for d in self.torsion_orders))

    def phase(self, cand: tuple[int, ...], z) -> int:
        """Value in Z/m of the torsion character cand on an image z."""
        m = self._exponent
        return sum((m // d) * c * z[i] for (i, d), c in zip(self.quotient.torsion, cand)) % m

    def point(self, cand: tuple[int, ...], gens: dict[int, str]) -> QMatrix:
        """The solution with torsion character cand and the generator
        gens[i] on each free column i, written as exponent rows: V's free
        columns and the phase of cand."""
        m = self._exponent
        free = self.quotient.free
        entries = {
            pair: ([(gens[i], row[i]) for i in free], self.phase(cand, row))
            for row, pair in zip(self.quotient.V, pair_list(self.n))
        }
        # V is unimodular, so every free column is nonzero on some row and
        # the table is the sorted names of the nonzero exponents
        table = GeneratorTable(tuple(sorted(gens.values())), m if m > 1 else 2)
        return QMatrix._of_entries(self.n, table, entries)

    def solutions(self) -> list[dict[tuple[int, int], GroupScalar]]:
        """Explicit parameter assignments, when the solution set is finite
        and has at most TORSION_SEARCH_LIMIT elements."""
        if not self.is_finite:
            raise ValueError("solution set is positive-dimensional")
        return [self.point(cand, {}).upper for cand in self.characters()]

    def describe(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"torus of dimension {self.free_rank}")
        for d in self.torsion_orders:
            parts.append(f"Z/{d}")
        if not parts:
            parts.append("a single point")
        return " x ".join(parts)


def forced_solutions(
    G: TripleSet, normalization: Iterable[tuple[int, int]] = ()
) -> SolutionFamily:
    """Solve b_t = 1 for all t in G, with selected parameters pinned to 1.

    The normalization typically pins one parameter per degree of freedom of
    the free rescaling torus (e.g. the last column q_in = 1); the result
    then shows whether the remaining solutions are finite and what values
    they force.  Raises ValueError above SOLVER_MAX_N, before reading the
    normalization.
    """
    n = G.n
    _check_solver_bound(n)
    P = num_pairs(n)
    norm: list[tuple[int, int]] = []
    for pair in normalization:
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < j <= n):
            raise ValueError(f"bad normalization pair {pair!r}")
        if (i, j) in norm:
            raise ValueError(f"duplicate normalization pair {pair!r}")
        norm.append((i, j))
    chars = triple_chars(n)
    rows = itertools.chain(
        (chars[t] for t in G),
        ([int(q == pair) for q in pair_list(n)] for pair in norm),
    )
    return SolutionFamily(n, SubLattice.span(rows, P).quotient())


def generic_point_of_node(closed: TripleSet) -> QMatrix:
    """A matrix whose good-triple set is exactly the given closed set.

    Solves the character equations over the quotient of the exponent
    lattice by the closed set's span: free degrees of freedom become fresh
    generators g1, g2, ... in ascending column order, and the finite
    component group is searched for a character that keeps every triple
    outside the closed set obstructed.  The result is verified exactly.  A
    set that is not closed raises NotClosedError, naming the triples
    outside it that its character span forces in.  The family comes from
    forced_solutions with no pins, so n is bounded by SOLVER_MAX_N.
    """
    n = closed.n
    family = forced_solutions(closed)
    quotient = family.quotient
    # images of the characters outside the closed set, each the boundary
    # e_ij + e_jk - e_ik read as V[ij] + V[jk] - V[ik]: those that are zero
    # are forced into it; those zero on the free columns lie in a torsion
    # coset of the span, and only a torsion character can obstruct them
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
    # choose a torsion character separating every remaining outside triple
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
    Q = family.point(choice, {i: f"g{k}" for k, i in enumerate(quotient.free, 1)})
    achieved = good_triples(Q)
    if achieved != closed:
        raise GenericPointError(
            f"verification failed: achieved {achieved}, wanted {closed}"
        )
    return Q
