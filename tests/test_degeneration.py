import hashlib
import importlib
from collections import Counter

import numpy as np
import pytest

import random

from conftest import per_extension_closed_reps_bfs, snf_diagonal
from qpoints.adequacy import enumerate_adequate
from qpoints.cli import main
from qpoints.degeneration import (
    DegNode,
    _closed_reps_bfs,
    build_graph,
    enumerate_nodes,
    graph_json_dict,
    node_ids,
    sinks,
    to_dot,
)
from qpoints.gallery import pentagonal_good_set, sign_matrix
from qpoints.lattice import (
    TORSION_SEARCH_LIMIT,
    SubLattice,
    closure,
    node_label,
    num_pairs,
    pair_list,
    smith_normal_form,
    triple_char,
)
from qpoints.realize import SolutionFamily, forced_solutions, generic_point_of_node, realize_all
from qpoints.triples import (
    TripleSet,
    all_triples,
    canonical_mask,
    canonical_mask_orbit,
    mask_images,
    num_triples,
)
from qpoints.variety import components, good_triples

# Reference classification of the five-variable degeneration graph:
# sixteen classes keyed by display id, and the reduced arrow diagram.
P4_TYPES = {
    "0": (1, 0, 0, 0),
    "1a": (0, 1, 2, 0), "1b": (0, 0, 5, 0), "1c": (0, 2, 0, 1),
    "2a": (0, 0, 4, 0), "2b": (0, 0, 4, 2), "2c": (0, 1, 1, 2), "2d": (0, 0, 4, 1),
    "3a": (0, 0, 3, 3), "3b": (0, 1, 0, 4), "3c": (0, 0, 3, 3), "3d": (0, 0, 3, 2),
    "4a": (0, 0, 2, 5), "4b": (0, 0, 2, 4),
    "5": (0, 0, 1, 7), "6": (0, 0, 0, 10),
}
P4_EDGES = [
    ("6", "5"), ("5", "4a"), ("5", "4b"),
    ("4a", "3c"), ("4a", "3b"), ("4a", "3a"), ("4a", "3d"),
    ("4b", "3c"), ("4b", "3d"),
    ("3c", "2c"), ("3c", "2b"), ("3c", "2d"), ("3b", "2c"),
    ("3a", "2c"), ("3a", "2a"),
    ("3d", "2c"), ("3d", "2a"), ("3d", "2d"),
    ("2c", "1c"), ("2c", "1a"), ("2b", "1c"), ("2a", "1a"),
    ("2d", "1c"), ("2d", "1b"), ("2d", "1a"),
    ("1c", "0"), ("1b", "0"), ("1a", "0"),
]


def scan_closed_reps(n: int) -> list[DegNode]:
    """All closed triple sets by full subset scan, grouped into orbits: the
    reference enumerator for the closure-lattice traversal."""
    nt = num_triples(n)
    chars = [triple_char(t, n) for t in all_triples(n)]
    by_canon: dict[int, tuple[TripleSet, int]] = {}
    for mask in range(1 << nt):
        lat = SubLattice.span((chars[i] for i in range(nt) if mask >> i & 1), num_pairs(n))
        if any(not mask >> i & 1 and lat.contains(chars[i]) for i in range(nt)):
            continue  # not closed
        cm = canonical_mask(n, mask)
        rep, count = by_canon.get(cm, (TripleSet(n, mask), 0))
        by_canon[cm] = (rep, count + 1)
    nodes = []
    for J, count in by_canon.values():
        cm, orbit = canonical_mask_orbit(n, J.mask)
        if orbit != count:
            raise RuntimeError(f"orbit of {J} has {orbit} images but the scan met {count}")
        nodes.append(DegNode(TripleSet(n, cm), node_label(J), components(J).type_vector, orbit))
    nodes.sort(key=lambda node: (node.label, node.closed_set.mask))
    return nodes


def all_pairs_arrows(nodes) -> set[tuple[int, int]]:
    """Reference arrows: test every ordered pair of classes for strict
    inclusion under all permutations, then drop each pair that factors
    through a third class (inclusion is transitive)."""
    n = nodes[0].n
    masks = [node.closed_set.mask for node in nodes]
    sizes = [len(node.closed_set) for node in nodes]
    rel = set()
    for u in range(len(nodes)):
        images = np.unique(mask_images(n, masks[u]))
        for v in range(len(nodes)):
            if sizes[u] < sizes[v] and bool(np.any((images & masks[v]) == images)):
                rel.add((u, v))
    return {
        (u, v)
        for (u, v) in rel
        if not any((u, w) in rel and (w, v) in rel for w in range(len(nodes)))
    }


def label_of(fig_id: str) -> int:
    return int(fig_id.rstrip("abcd"))


def check_graph_matches_reference(graph) -> bool:
    """Match computed nodes to reference ids by (label, type); the only
    ambiguity is the pair of label-3 nodes sharing a type, so try both."""
    assert len(graph.nodes) == len(P4_TYPES)
    computed = list(range(len(graph.nodes)))
    keyed: dict[tuple, list[int]] = {}
    for i in computed:
        node = graph.nodes[i]
        keyed.setdefault((node.label, node.type_vector), []).append(i)
    fig_keyed: dict[tuple, list[str]] = {}
    for fid, tv in P4_TYPES.items():
        fig_keyed.setdefault((label_of(fid), tv), []).append(fid)
    if {k: len(v) for k, v in keyed.items()} != {
        k: len(v) for k, v in fig_keyed.items()
    }:
        return False
    edges = set(graph.arrows)

    def try_assignment(mapping: dict[str, int]) -> bool:
        mapped = {(mapping[a], mapping[b]) for (a, b) in P4_EDGES}
        return mapped == edges

    ambiguous = [k for k, v in fig_keyed.items() if len(v) == 2]
    base = {
        fig_keyed[k][0]: keyed[k][0]
        for k in fig_keyed
        if len(fig_keyed[k]) == 1
    }
    if not ambiguous:
        return try_assignment(base)
    (k,) = ambiguous
    f1, f2 = fig_keyed[k]
    c1, c2 = keyed[k]
    for assign in ({f1: c1, f2: c2}, {f1: c2, f2: c1}):
        if try_assignment({**base, **assign}):
            return True
    return False


class TestNodes:
    def test_two_variables(self):
        nodes = enumerate_nodes(2)
        assert [(n.label, n.type_vector) for n in nodes] == [
            (0, (1, 0)),
            (1, (0, 3)),
        ]

    def test_three_variables_table(self):
        nodes = enumerate_nodes(3)
        assert [(n.label, n.type_vector) for n in nodes] == [
            (0, (1, 0, 0)),
            (1, (0, 2, 1)),
            (2, (0, 1, 3)),
            (3, (0, 0, 6)),
        ]

    def test_four_variables_table(self):
        nodes = enumerate_nodes(4)
        assert len(nodes) == 16
        assert Counter((n.label, n.type_vector) for n in nodes) == Counter(
            (label_of(fid), tv) for fid, tv in P4_TYPES.items()
        )

    def test_nodes_are_closed_and_canonical(self):
        for n in (2, 3, 4):
            for node in enumerate_nodes(n):
                assert closure(node.closed_set) == node.closed_set
                assert node.closed_set.canonical() == node.closed_set
                assert node.label >= 0

    def test_commutative_and_generic_nodes_exist(self):
        for n in (2, 3, 4):
            nodes = enumerate_nodes(n)
            assert any(
                node.label == 0 and node.closed_set == TripleSet.full(n)
                for node in nodes
            )
            assert any(len(node.closed_set) == 0 for node in nodes)

    def test_enumeration_paths_agree(self):
        for n in (0, 1, 2, 3, 4):
            assert enumerate_nodes(n) == tuple(scan_closed_reps(n))

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="n <= 5"):
            enumerate_nodes(6)

    def test_scan_rejects_inconsistent_orbit(self, monkeypatch):
        real = canonical_mask_orbit

        def miscounted(n, mask):
            cm, orbit = real(n, mask)
            return cm, orbit + 1

        monkeypatch.setitem(scan_closed_reps.__globals__, "canonical_mask_orbit", miscounted)
        with pytest.raises(RuntimeError, match="orbit"):
            scan_closed_reps(2)

    def test_traversal_matches_per_extension_oracle(self):
        # the batched traversal meets the same classes and the same raw
        # one-step inclusions, before any sorting or transitive reduction
        def key(node):
            return node.closed_set.mask, node.label, node.type_vector, node.orbit_size

        for n in range(6):
            nodes, steps = _closed_reps_bfs(n)
            ref_nodes, ref_steps = per_extension_closed_reps_bfs(n)
            assert sorted(map(key, nodes)) == sorted(map(key, ref_nodes))
            assert len(nodes) == len(ref_nodes)
            assert steps == ref_steps

    def test_nodes_are_the_realizable_catalog_classes(self):
        # the two consumers of lattice.traverse agree: a collection is
        # realizable iff its complement is closed, so the complements of
        # the nodes are the catalog classes that realize, orbit for orbit
        for n in range(6):
            nodes = enumerate_nodes(n)
            complements = {(node.closed_set.complement().canonical().mask, node.orbit_size) for node in nodes}
            catalog, results = enumerate_adequate(n), realize_all(n)
            realizable = {
                (rep.mask, size)
                for rep, size, result in zip(catalog.representatives, catalog.orbit_sizes, results)
                if result.success
            }
            assert complements == realizable
            assert len(complements) == len(nodes)
        assert (len(nodes), len(catalog)) == (174, 175)
        assert [i for i, result in enumerate(results) if not result.success] == [106]

    def test_ids_disambiguate(self):
        nodes = enumerate_nodes(4)
        ids = node_ids(nodes)
        assert len(set(ids)) == 16
        assert "0" in ids and "6" in ids
        assert sum(1 for i in ids if i.startswith("3_")) == 4


class TestGraph:
    def test_chain_for_three_variables(self):
        graph = build_graph(3)
        ids = graph.ids()
        assert [(ids[u], ids[v]) for (u, v) in graph.arrows] == [
            ("1", "0"),
            ("2", "1"),
            ("3", "2"),
        ]

    def test_two_variable_chain(self):
        graph = build_graph(2)
        assert len(graph.nodes) == 2 and len(graph.arrows) == 1

    def test_reference_diagram_isomorphism(self):
        graph = build_graph(4)
        assert len(graph.arrows) == 28
        assert check_graph_matches_reference(graph)

    def test_arrows_match_all_pairs_inclusion(self):
        for n in (2, 3, 4, 5):
            graph = build_graph(n)
            assert set(graph.arrows) == all_pairs_arrows(graph.nodes)

    def test_unique_source_is_generic_node(self):
        for n in (2, 3, 4):
            graph = build_graph(n)
            targets = {v for (_, v) in graph.arrows}
            sources = [i for i in range(len(graph.nodes)) if i not in targets]
            assert len(sources) == 1
            assert len(graph.nodes[sources[0]].closed_set) == 0


class TestSinks:
    def test_unique_below_five(self):
        assert len(sinks(3)) == 1
        assert len(sinks(4)) == 1
        assert sinks(3)[0].closed_set == TripleSet.full(3)

    def test_five_has_two_including_both_known(self):
        found = sinks(5)
        masks = {node.closed_set.mask for node in found}
        assert len(found) >= 2
        assert TripleSet.full(5).canonical().mask in masks
        assert pentagonal_good_set().canonical().mask in masks

    def test_five_label_zero_differs_from_arrowless(self):
        # the sign-matrix node's closed set sits strictly inside the
        # commutative one, so it keeps an outgoing inclusion arrow even
        # though its stratum already has the minimal dimension; endpoints
        # are therefore defined by label 0, not by missing arrows
        graph = build_graph(5)
        with_out = {u for (u, _) in graph.arrows}
        arrowless = [i for i in range(len(graph.nodes)) if i not in with_out]
        assert len(arrowless) == 1
        assert len(sinks(5)) == 2
        pent = pentagonal_good_set().canonical().mask
        pent_idx = next(
            i for i, node in enumerate(graph.nodes)
            if node.closed_set.mask == pent
        )
        full_idx = next(
            i for i, node in enumerate(graph.nodes)
            if node.closed_set == TripleSet.full(5)
        )
        assert (pent_idx, full_idx) in set(graph.arrows)


class TestForcedSolutions:
    def test_pentagonal_system_has_two_sign_solutions(self):
        family = forced_solutions(
            pentagonal_good_set(), [(i, 5) for i in range(5)]
        )
        assert family.is_finite and family.count == 2
        sols = family.solutions()
        # pinned and forced-to-one parameters vanish in both solutions
        for sol in sols:
            for pair in [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]:
                assert sol[pair].is_one
            for i in range(5):
                assert sol[(i, 5)].is_one
        trivial, signed = sorted(sols, key=lambda s: 0 if s[(0, 1)].is_one else 1)
        assert all(v.is_one for v in trivial.values())
        a = signed[(0, 1)]
        assert not a.is_one and (a * a).is_one
        assert signed[(2, 3)] == a
        for pair in [(1, 2), (3, 4), (0, 4)]:
            assert signed[pair] == a.inverse()
        # the nontrivial solution is the stored sign matrix
        M = sign_matrix()
        assert all(M.entry(i, j) == v for (i, j), v in signed.items())

    def test_full_system_pins_to_commutative(self):
        family = forced_solutions(TripleSet.full(5), [(i, 5) for i in range(5)])
        assert family.count == 1
        assert all(v.is_one for v in family.solutions()[0].values())

    def test_empty_system_is_full_torus(self):
        family = forced_solutions(TripleSet.empty(5))
        assert not family.is_finite
        assert family.free_rank == 15
        assert "dimension 15" in family.describe()

    def test_positive_dimensional_family_lists_no_solutions(self):
        with pytest.raises(ValueError, match="positive-dimensional"):
            forced_solutions(TripleSet.empty(2)).solutions()

    def test_matches_unreduced_system(self):
        # oracle: the Smith normal form of one row per good triple plus one
        # per pin, without the echelon reduction
        rng = random.Random(63)
        for _ in range(60):
            n = rng.randint(2, 6)
            P = num_pairs(n)
            trips = all_triples(n)
            G = TripleSet.of(n, rng.sample(trips, rng.randint(0, len(trips))))
            pins = [(i, n) for i in range(n)]
            rows = [list(triple_char(t, n)) for t in G]
            rows += [[int(p == pin) for p in pair_list(n)] for pin in pins]
            D, V = smith_normal_form(rows)
            diag = snf_diagonal(D)
            orders = [diag[i] if i < len(diag) else 0 for i in range(P)]
            family = forced_solutions(G, pins)
            assert family.free_rank == orders.count(0)
            assert family.torsion_orders == tuple(d for d in orders if d > 1)
            W = family.quotient.V
            assert tuple(
                tuple(W[p][i] % d for p in range(P)) for i, d in family.quotient.torsion
            ) == tuple(
                tuple(V[p][i] % d for p in range(P)) for i, d in enumerate(orders) if d > 1
            )

    def test_solution_listing_is_bounded(self, monkeypatch):
        def family(*orders):
            # finite family over the three pairs of n = 2 whose quotient
            # has the given torsion orders
            diag = orders + (1,) * (3 - len(orders))
            rows = [[d * (p == i) for p in range(3)] for i, d in enumerate(diag)]
            return SolutionFamily(2, SubLattice.span(rows, 3).quotient())

        big = family(1000, 1000)
        assert big.torsion_orders == (1000, 1000)
        assert big.count > TORSION_SEARCH_LIMIT
        with pytest.raises(ValueError, match="listing limit"):
            big.solutions()
        realize_module = importlib.import_module("qpoints.realize")
        monkeypatch.setattr(realize_module, "TORSION_SEARCH_LIMIT", 4)
        assert len(family(2, 2).solutions()) == 4
        with pytest.raises(ValueError, match="listing limit of 4"):
            family(2, 3).solutions()

    def test_families_compare_by_value(self):
        G = pentagonal_good_set()
        pins = [(i, G.n) for i in range(G.n)]
        a, b = forced_solutions(G, pins), forced_solutions(G, pins)
        assert a == b and hash(a) == hash(b)
        assert a != forced_solutions(G, pins[:-1])

    def test_bad_normalization_rejected(self):
        with pytest.raises(ValueError):
            forced_solutions(TripleSet.empty(3), [(1, 1)])
        with pytest.raises(ValueError):
            forced_solutions(TripleSet.empty(3), [(0, 1), (0, 1)])


class TestOutputs:
    def test_dot_is_stable_and_captioned(self):
        graph = build_graph(3)
        dot = to_dot(graph)
        assert dot == to_dot(build_graph(3))
        assert 'digraph deg3 {' in dot
        assert '"0" [label="0 (1,0,0)"];' in dot
        assert '"3" -> "2";' in dot

    def test_json_dump_matches_dot_content(self):
        graph = build_graph(3)
        data = graph_json_dict(graph)
        assert data["n"] == 3
        assert [node["id"] for node in data["nodes"]] == ["0", "1", "2", "3"]
        assert ["3", "2"] in data["arrows"]
        assert data["nodes"][0]["orbit_size"] == 1

    # SHA-256 of the stdout of `graph 5 --long --json`; a change to any
    # node, orbit size, display id or arrow shows up here
    GRAPH_5_LONG_JSON = "3c1d52952fcd5733c2c619f4f70af0f8ae3bf4835dc87a27aced1d0c8bf5c78b"

    def test_graph_5_json_output(self, capsys):
        assert main(["graph", "5", "--long", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GRAPH_5_LONG_JSON


class TestSemanticRoundTrip:
    def test_generic_realization_per_node(self):
        # every node's closed set is exactly the good set of its generic point
        for n in (2, 3, 4):
            for node in enumerate_nodes(n):
                Q = generic_point_of_node(node.closed_set)
                assert good_triples(Q) == node.closed_set

    def test_pentagonal_node_generic_point(self):
        closed = pentagonal_good_set()
        Q = generic_point_of_node(closed)
        assert good_triples(Q) == closed
        # the free part is trivial here: the family is torsion on the nose
        assert any(s.torsion for s in Q.upper.values())
