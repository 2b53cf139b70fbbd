"""Degeneration graphs of parameter sub-tori.

Every set of triples cuts a sub-torus out of the parameter torus; two sets
cut out the same sub-torus exactly when they have the same character-span
closure.  Nodes of the degeneration graph are the closed triple sets up to
coordinate symmetry, each carrying the dimension label of its sub-torus and
the type vector of the point variety it produces; arrows record strict
inclusion of closed sets (larger closed set = smaller torus = bigger point
variety), transitively reduced.  Both are read off lattice.traverse, the
quartet traversal that also lists the catalog: the nodes are the classes
that the exact closure fixes (175 closures at n = 5), and the arrows
reduce the one-step inclusions out of them, their targets closed.  This
module builds only the graph; the character equations b_t = 1 of a node
are solved in realize (SolutionFamily).  From n = 8 a closed set can have
no generic point, so a node's type vector can describe a configuration that
no matrix has (test_realize.py's test_closed_complement_without_generic_point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .lattice import _closure_label, traverse
from .triples import TripleSet, canonical_mask_orbit
from .variety import components


@dataclass(frozen=True)
class DegNode:
    """One symmetry class of closed triple sets."""

    closed_set: TripleSet  # canonical representative
    label: int
    type_vector: tuple[int, ...]
    orbit_size: int

    @property
    def n(self) -> int:
        return self.closed_set.n


@dataclass(frozen=True)
class DegGraph:
    n: int
    nodes: tuple[DegNode, ...]
    arrows: tuple[tuple[int, int], ...]  # indices into nodes

    def ids(self) -> tuple[str, ...]:
        return node_ids(self.nodes)


def _letters(k: int) -> str:
    out = ""
    k += 1
    while k:
        k, r = divmod(k - 1, 26)
        out = chr(ord("a") + r) + out
    return out


def node_ids(nodes: Sequence[DegNode]) -> tuple[str, ...]:
    """Stable display ids: the label, plus a letter when several classes
    share it (e.g. 3_a, 3_b)."""
    by_label: dict[int, int] = {}
    for node in nodes:
        by_label[node.label] = by_label.get(node.label, 0) + 1
    seen: dict[int, int] = {}
    ids = []
    for node in nodes:
        if by_label[node.label] == 1:
            ids.append(str(node.label))
        else:
            k = seen.get(node.label, 0)
            seen[node.label] = k + 1
            ids.append(f"{node.label}_{_letters(k)}")
    return tuple(ids)


def _closed_reps_bfs(n: int) -> tuple[list[DegNode], set[tuple[int, int]]]:
    """Closed-set classes and one-step inclusions, read off the classes of
    lattice.traverse.  The exact closure runs once per class, and its span
    also gives the label; a class is a node when its closure adds nothing,
    and a step (K, L) from a node becomes (K, the closed class of L)."""
    classes, successors = traverse(n)
    closed_class: dict[int, int] = {}
    fixed = []
    for m in classes:
        closed, label = _closure_label(TripleSet(n, m))
        closed_class[m], orbit = canonical_mask_orbit(n, closed.mask)
        if closed.mask == m:
            fixed.append((closed, label, orbit))
    # a second pass: built inside the closure loop, the graph workload's
    # solve_s read 6.5% higher, in 10 of 10 pairs (BENCH_19.json, layout_ab)
    nodes = [DegNode(closed, label, components(closed).type_vector, orbit) for closed, label, orbit in fixed]
    return nodes, {(k, closed_class[m]) for k, ms in zip(classes, successors) if closed_class[k] == k for m in ms}


@lru_cache(maxsize=None)
def _nodes_cached(n: int) -> tuple[tuple[DegNode, ...], frozenset[tuple[int, int]]]:
    """Sorted nodes, and the traversal's one-step inclusions as index pairs."""
    nodes, steps = _closed_reps_bfs(n)
    nodes.sort(key=lambda node: (node.label, node.closed_set.mask))
    index = {node.closed_set.mask: i for i, node in enumerate(nodes)}
    return tuple(nodes), frozenset((index[a], index[b]) for a, b in steps)


def enumerate_nodes(n: int) -> tuple[DegNode, ...]:
    """All degeneration-graph nodes of dimension n, sorted by (label,
    canonical closed set); lattice.traverse refuses n > 5."""
    return _nodes_cached(n)[0]


def transitive_reduction(
    sizes: Sequence[int], relation: Iterable[tuple[int, int]]
) -> set[tuple[int, int]]:
    """Pairs (u, v) of relation with no other path from u to v.

    Every pair must go from a smaller to a larger size, so the relation is
    acyclic; it need not be transitive.  Reachability bitsets are filled in
    order of decreasing size.
    """
    succ: list[list[int]] = [[] for _ in sizes]
    for u, v in relation:
        succ[u].append(v)
    reach = [0] * len(sizes)
    arrows = set()
    for u in sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True):
        beyond = 0
        for v in succ[u]:
            beyond |= reach[v]
        arrows.update((u, v) for v in succ[u] if not beyond >> v & 1)
        for v in succ[u]:
            beyond |= 1 << v
        reach[u] = beyond
    return arrows


def build_graph(n: int) -> DegGraph:
    """Degeneration graph: closed-set classes with arrows for the covers of
    strict inclusion up to symmetry, read off the traversal's one-step
    inclusions."""
    nodes = enumerate_nodes(n)
    sizes = [len(node.closed_set) for node in nodes]
    arrows = sorted(transitive_reduction(sizes, _nodes_cached(n)[1]))
    return DegGraph(n, nodes, tuple(arrows))


def sinks(n: int) -> list[DegNode]:
    """Maximal degenerations: nodes whose sub-torus has the minimal
    dimension n, i.e. label 0.  For n <= 4 this is also the unique node
    with no outgoing arrow."""
    return [node for node in enumerate_nodes(n) if node.label == 0]


def to_dot(graph: DegGraph) -> str:
    """Graphviz rendering with stable ordering; node captions are
    "id (type)"."""
    ids = graph.ids()
    lines = [f"digraph deg{graph.n} {{"]
    for node, nid in zip(graph.nodes, ids):
        tv = ",".join(str(c) for c in node.type_vector)
        lines.append(f'  "{nid}" [label="{nid} ({tv})"];')
    for (u, v) in graph.arrows:
        lines.append(f'  "{ids[u]}" -> "{ids[v]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def node_records(nodes: Sequence[DegNode]) -> list[dict]:
    """One JSON record per node, keyed by its display id."""
    return [
        {
            "id": nid,
            "label": node.label,
            "type": list(node.type_vector),
            "closed_set": [list(t) for t in node.closed_set],
            "orbit_size": node.orbit_size,
        }
        for node, nid in zip(nodes, node_ids(nodes))
    ]


def graph_json_dict(graph: DegGraph) -> dict:
    records = node_records(graph.nodes)
    return {
        "n": graph.n,
        "nodes": records,
        "arrows": [[records[u]["id"], records[v]["id"]] for (u, v) in graph.arrows],
    }
