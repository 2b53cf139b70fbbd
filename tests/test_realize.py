import hashlib
import importlib
import json
import random

import pytest

from conftest import apply_perm
from qpoints.adequacy import is_dense
from qpoints.cli import main
from qpoints.lattice import closure, quartet_saturate
from qpoints.gallery import (
    block_matrix,
    p3_two_planes_collection,
    pentagonal_collection,
    pentagonal_good_set,
    sign_matrix,
    transversal_collection,
)
from qpoints.realize import (
    NotAdequateError,
    generic_point_of_node,
    realize,
    realize_all,
)
from qpoints.triples import TripleSet, all_triples, permutations
from qpoints.variety import good_triples

# The one six-variable class whose complement is not character-closed: a
# seven-term identity forces P(0,1,2) into any point variety avoiding the
# other excluded planes, so no algebra realizes it exactly.
OBSTRUCTED = TripleSet.of(
    5,
    [
        (0, 1, 2), (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 5), (0, 3, 5),
        (0, 4, 5), (1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 4, 5), (2, 3, 4),
        (2, 3, 5),
    ],
)


def beyond_catalog_draws(n: int) -> list[TripleSet]:
    """Thirty seeded adequate collections of dimension n: complements of
    quartet-closed sets, every other one containing the octahedron behind
    OBSTRUCTED."""
    rng = random.Random(n)
    draws = []
    for k in range(30):
        picks = rng.sample(all_triples(n), rng.randint(0, n))
        if k % 2:
            picks += list(OBSTRUCTED.complement())
        draws.append(quartet_saturate(TripleSet.of(n, picks)).complement())
    return draws


class TestRealize:
    def test_reference_collection(self):
        C = p3_two_planes_collection()
        result = realize(C)
        assert result.success and result.method == "generic-point"
        assert good_triples(result.matrix).complement() == C
        # same shape as the worked example: a rank-one block on {0,1,2}
        assert result.matrix.b((0, 1, 2)).is_one
        assert result.matrix.b((1, 2, 3)).is_one

    def test_empty_collection_gives_rank_one(self):
        result = realize(TripleSet.empty(4))
        assert result.success and result.method == "generic-point"
        assert good_triples(result.matrix) == TripleSet.full(4)

    def test_stored_collections(self):
        # the stored gallery matrices are independent oracles for the two
        # non-dense classes; realize reaches both through the generic point
        for C, stored in (
            (transversal_collection(), block_matrix()),
            (pentagonal_collection(), sign_matrix()),
        ):
            assert good_triples(stored).complement() == C
            result = realize(C)
            assert result.success and result.method == "generic-point"
            assert good_triples(result.matrix).complement() == C

    def test_stored_collections_up_to_symmetry(self):
        perm = permutations(5)[123]
        C = apply_perm(transversal_collection(), perm)
        result = realize(C)
        assert result.success and result.method == "generic-point"
        assert good_triples(result.matrix).complement() == C

    def test_not_adequate_rejected(self):
        with pytest.raises(NotAdequateError):
            realize(TripleSet.of(3, [(0, 1, 2)]))

    def test_dimension_guard(self):
        # the solver bound of forced_solutions, checked before adequacy
        with pytest.raises(ValueError, match="n <= 50, got n = 51"):
            realize(TripleSet.empty(51))

    def test_genericity_is_witnessed(self):
        result = realize(p3_two_planes_collection())
        for t in result.target:
            assert not result.matrix.b(t).is_one

    def test_obstructed_class_reported(self):
        result = realize(OBSTRUCTED)
        assert not result.success
        assert result.method == "obstructed"
        assert "(0, 1, 2)" in result.detail
        assert list(closure(OBSTRUCTED.complement()) & OBSTRUCTED) == [(0, 1, 2)]

    def test_generic_point_failure_is_reported(self, monkeypatch):
        # the package re-exports realize(), which shadows the submodule name
        realize_module = importlib.import_module("qpoints.realize")

        def no_point(closed):
            raise realize_module.GenericPointError("component group too large")

        monkeypatch.setattr(realize_module, "generic_point_of_node", no_point)
        result = realize(p3_two_planes_collection())
        assert not result.success and result.matrix is None
        assert result.method == "generic-point"
        assert "component group too large" in result.detail

    def test_search_limit_is_reported(self, monkeypatch):
        realize_module = importlib.import_module("qpoints.realize")
        monkeypatch.setattr(realize_module, "TORSION_SEARCH_LIMIT", 0)
        result = realize(p3_two_planes_collection())
        assert not result.success and result.method == "generic-point"
        assert "component group too large to search" in result.detail
        assert "torsion characters exceed the listing limit of 0" in result.detail

    def test_obstructed_class_is_adequate_and_dense(self):
        from qpoints.adequacy import is_adequate

        assert is_adequate(OBSTRUCTED)
        assert is_dense(OBSTRUCTED)


class TestRealizeAll:
    def test_all_classes_below_five(self):
        for n, expected in ((2, 2), (3, 4), (4, 16)):
            results = realize_all(n)
            assert len(results) == expected
            assert sum(r.success for r in results) == expected
            for result in results:
                assert good_triples(result.matrix).complement() == result.target

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_round_trip_beyond_the_catalog(self, n):
        # the complement of a quartet-closed set is adequate; every other
        # draw contains the octahedron behind OBSTRUCTED, so both outcomes
        # occur: an exact realization, or the forced planes of C named
        for C in beyond_catalog_draws(n):
            result = realize(C)
            if result.success:
                assert good_triples(result.matrix).complement() == C
            else:
                forced = list(closure(C.complement()) & C)
                assert result.method == "obstructed" and forced
                assert str(forced) in result.detail

    def test_five_variables_has_single_obstruction(self):
        results = realize_all(5)
        assert len(results) == 175
        assert sum(r.success for r in results) == 174
        failures = [r for r in results if not r.success]
        assert len(failures) == 1
        assert failures[0].method == "obstructed"
        assert failures[0].target.canonical() == OBSTRUCTED.canonical()



class TestGenericPoint:
    def test_full_set_gives_rank_one_structure(self):
        Q = generic_point_of_node(TripleSet.full(3))
        assert good_triples(Q) == TripleSet.full(3)

    def test_empty_set_fully_generic(self):
        Q = generic_point_of_node(TripleSet.empty(3))
        assert good_triples(Q) == TripleSet.empty(3)
        assert len(Q.table.names) == 6  # one free generator per parameter

    def test_rejects_unclosed_input(self):
        J = TripleSet.of(3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        with pytest.raises(ValueError):
            generic_point_of_node(J)

    def test_bounded_before_any_work(self, monkeypatch):
        def refuse(n):
            pytest.fail("characters built above the solver bound")

        for module in ("qpoints.lattice", "qpoints.realize"):
            monkeypatch.setattr(importlib.import_module(module), "triple_chars", refuse)
        with pytest.raises(ValueError, match="n <= 50, got n = 51"):
            generic_point_of_node(TripleSet.full(51))

    def test_deterministic(self):
        a = generic_point_of_node(TripleSet.full(4))
        b = generic_point_of_node(TripleSet.full(4))
        assert a == b


class TestPinnedOutputs:
    # SHA-256 digests of CLI stdout; a change to any realized matrix or
    # forced solution shows up here even when it still verifies
    REALIZE_CLASS_5 = "76b6b5904d6290a7058b7aa7c70b7fb1424a4b5e5822ede803c46a991e60d960"
    FORCED_PENTAGONAL = "3954ff0e730859c0c9001283141b3bbd1e1894cfb1dd3e57c64515c45ac82a72"
    REALIZE_BEYOND_CATALOG = {
        6: "2f47845c3539af0ed5bf909ec57ba64c503caa7bd27655d634598108335cfec6",
        7: "840771a4ed48646eb48e9d58fb25c5d99ca5cf384494a35c9d10a5d37fe7160a",
        8: "9a1ab8b0cc4abad35979d2a86926d131b4b6bee357469c698dcf7c0847f649f6",
    }
    REALIZE_EMPTY_12 = "30d0d24444aced2e62da7dcfd1b5ea3af57b67edede4b9df95b4ac4d5d353599"

    def test_realize_class_5_outputs(self, capsys):
        digest = hashlib.sha256()
        for k in range(175):
            code = main(["realize", "--class", "5", str(k)])
            digest.update(f"{k} {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.REALIZE_CLASS_5

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_realize_beyond_the_catalog_outputs(self, n, tmp_path, capsys):
        # realize FILE on the seeded round-trip draws pins V beyond n = 5
        digest = hashlib.sha256()
        path = tmp_path / "collection.json"
        for k, C in enumerate(beyond_catalog_draws(n)):
            path.write_text(json.dumps({"n": n, "triples": [list(t) for t in C]}))
            code = main(["realize", str(path)])
            captured = capsys.readouterr()
            digest.update(f"{k} {code}\n{captured.out}{captured.err}".encode())
        assert digest.hexdigest() == self.REALIZE_BEYOND_CATALOG[n]

    def test_realize_empty_collection_n12_output(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 12, "triples": []}))
        assert main(["realize", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.REALIZE_EMPTY_12

    def test_forced_pentagonal_output(self, tmp_path, capsys):
        G = pentagonal_good_set()
        path = tmp_path / "good.json"
        path.write_text(json.dumps({"n": G.n, "triples": [list(t) for t in G]}))
        assert main(["forced", str(path)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.FORCED_PENTAGONAL
