import dataclasses
import hashlib
import importlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from conftest import apply_perm, full_image_generic_point
from qpoints.adequacy import enumerate_adequate, is_adequate, is_dense
from qpoints.cli import main
from qpoints.lattice import closure, quartet_saturate, traverse
from qpoints.gallery import (
    block_matrix,
    p3_two_planes_collection,
    p3_two_planes_matrix,
    pentagonal_collection,
    pentagonal_good_set,
    sign_matrix,
    transversal_collection,
)
from qpoints.scalars import GroupScalar
from qpoints.realize import (
    GenericPointError,
    NotAdequateError,
    NotClosedError,
    RealizationResult,
    forced_solutions,
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

# The 6-vertex RP^2, the torsion node at n = 5, and three relabelings of it
# into nine coordinates: vertex v goes to entry v of each list.
RP2 = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]
RP2_RELABELINGS = [[7, 1, 8, 5, 2, 3], [3, 7, 6, 2, 4, 0], [0, 1, 6, 5, 7, 8]]


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


def second_obstruction_node() -> TripleSet:
    """The n = 8 closed set with no generic point: the closure of the three
    relabelings of RP^2."""
    return closure(TripleSet.of(8, [tuple(sorted(m[v] for v in t)) for m in RP2_RELABELINGS for t in RP2]))


def rational_closure(K: TripleSet) -> TripleSet:
    """K plus every triple whose character is a rational combination of K's
    characters, by Fraction elimination over plain character vectors."""
    pairs = list(itertools.combinations(range(K.n + 1), 2))

    def char(t):
        i, j, k = t
        return [Fraction((p == (i, j)) + (p == (j, k)) - (p == (i, k))) for p in pairs]

    # pivot column -> row that is 1 there and 0 at every other pivot
    basis: dict[int, list[Fraction]] = {}

    def reduce(v):
        for c, row in basis.items():
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    for t in K:
        v = reduce(char(t))
        c = next((c for c, a in enumerate(v) if a), None)
        if c is not None:
            v = [a / v[c] for a in v]
            for d, row in basis.items():
                f = row[c]
                basis[d] = [a - f * b for a, b in zip(row, v)]
            basis[c] = v
    return K | [t for t in all_triples(K.n) if t not in K and not any(reduce(char(t)))]


def generic_point_outcome(solve, closed: TripleSet) -> tuple:
    """What a generic-point solver makes of a set: its matrix, the forced
    triples of NotClosedError, or the message of GenericPointError."""
    try:
        return "matrix", solve(closed)
    except NotClosedError as exc:
        return "not closed", exc.forced
    except GenericPointError as exc:
        return "no generic point", str(exc)


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

    def test_not_adequate_names_a_one_face_tetrahedron(self):
        # adequate means no tetrahedron has exactly one face in C; the error
        # names one, checked against a count of faces over every tetrahedron
        rng = random.Random(4)
        named = 0
        for n in range(3, 10):
            triples = all_triples(n)
            for _ in range(30):
                density = rng.random()
                C = TripleSet.of(n, [t for t in triples if rng.random() < density])
                one_face = [
                    q
                    for q in itertools.combinations(range(n + 1), 4)
                    if sum(f in C for f in itertools.combinations(q, 3)) == 1
                ]
                assert is_adequate(C) == (not one_face)
                if not one_face:
                    continue
                with pytest.raises(NotAdequateError) as info:
                    realize(C)
                found = re.fullmatch(
                    r"collection is not adequate: the tetrahedron \((\d+),(\d+),(\d+),(\d+)\) has exactly one face in it, \((\d+),(\d+),(\d+)\)",
                    str(info.value),
                )
                numbers = tuple(map(int, found.groups()))
                quartet, face = numbers[:4], numbers[4:]
                assert quartet in one_face
                assert [f for f in itertools.combinations(quartet, 3) if f in C] == [face]
                named += 1
        assert named > 100

    def test_success_is_read_off_the_matrix(self):
        C = p3_two_planes_collection()
        assert [f.name for f in dataclasses.fields(RealizationResult)] == ["matrix", "target", "method", "detail"]
        with pytest.raises(TypeError):
            RealizationResult(None, C, "obstructed", success=True)
        assert not RealizationResult(None, C, "obstructed").success
        assert realize(C).success

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

    def test_closed_complement_without_generic_point(self, tmp_path, capsys):
        # the second obstruction, from n = 8: the closure K of the three
        # RP^2 copies has torsion (Z/2)^2 in H_1, and the pure order-2 images
        # of the excluded planes fall on all three of its nonzero elements,
        # so no torsion character keeps every excluded plane obstructed
        K = closure(TripleSet.of(8, [tuple(sorted(m[v] for v in t)) for m in RP2_RELABELINGS for t in RP2]))
        C = K.complement()
        assert (len(K), len(C)) == (29, 55)
        assert is_adequate(C) and closure(C.complement()) == C.complement()
        path = tmp_path / "second_obstruction.json"
        path.write_text(json.dumps({"n": 8, "triples": [list(t) for t in C]}))
        assert main(["realize", str(path)]) == 5
        assert capsys.readouterr() == (
            "",
            "realization failed: no generic point: no torsion character separates "
            "the closed set; 37 torsion-coset triples obstruct\n",
        )

    def test_matrix_path_builds_no_group_scalar(self, tmp_path, capsys, monkeypatch):
        # matrices are built and written from exponent entries; only the
        # solutions that forced prints are GroupScalars
        built = []
        post_init = GroupScalar.__post_init__
        monkeypatch.setattr(GroupScalar, "__post_init__", lambda q: built.append(q) or post_init(q))
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 7, "triples": []}))
        assert main(["realize", "--class", "5", "12"]) == main(["realize", str(path)]) == 0
        p3_two_planes_matrix(), block_matrix(), sign_matrix()
        assert built == []
        path.write_text(json.dumps({"n": 5, "triples": [list(t) for t in pentagonal_good_set()]}))
        assert main(["forced", str(path)]) == 0
        assert len(built) == 30

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
        def refuse(n, b):
            pytest.fail("characters built above the solver bound")

        monkeypatch.setattr(importlib.import_module("qpoints.lattice"), "_boundary_char", refuse)
        with pytest.raises(ValueError, match="n <= 50, got n = 51"):
            generic_point_of_node(TripleSet.full(51))

    def test_agrees_with_the_full_image_solve(self):
        # screening the excluded planes on the free columns and writing only
        # nonzero exponents change nothing the solve returns
        nodes = [C.complement() for n in range(6) for C in enumerate_adequate(n).representatives]
        nodes += [C.complement() for n in (6, 7, 8) for C in beyond_catalog_draws(n)]
        rng = random.Random(2517)
        for n in (6, 7, 8, 9):
            for _ in range(12):
                picks = rng.sample(all_triples(n), rng.randint(0, 3 * n))
                nodes.append(closure(TripleSet.of(n, picks)))
        nodes.append(second_obstruction_node())
        kinds, phased = Counter(), 0
        for closed in nodes:
            outcome = generic_point_outcome(generic_point_of_node, closed)
            assert outcome == generic_point_outcome(full_image_generic_point, closed)
            kinds[outcome[0]] += 1
            phased += outcome[0] == "matrix" and outcome[1].phases.any()
        assert set(kinds) == {"matrix", "not closed", "no generic point"}
        assert phased  # the torsion path writes phases too

    def test_trivial_character_point_is_the_rational_closure(self):
        # the screen of generic_point_of_node: with the trivial torsion
        # character, a triple is good exactly when its character lies in the
        # rational span of the set's characters, closed or not
        sets = [TripleSet(n, mask) for n in range(6) for mask in traverse(n)[0]]
        sets += [C.complement() for n in (6, 7, 8) for C in beyond_catalog_draws(n)]
        sets.append(second_obstruction_node())
        for K in sets:
            family = forced_solutions(K)
            gens = {i: f"g{k}" for k, i in enumerate(family.quotient.free, 1)}
            assert good_triples(family.point((), gens)) == rational_closure(K)
        assert sum(closure(K) != K for K in sets[:199]) == 1  # class 106
        assert len(rational_closure(sets[-1]) - sets[-1]) == 37

    def test_one_good_set_check_unless_the_character_is_nontrivial(self, monkeypatch):
        # the trivial-character point is the screen of every n = 5 class and
        # the result of all but the torsion class, which builds a second one
        calls = []
        monkeypatch.setattr(
            importlib.import_module("qpoints.realize"),
            "good_triples",
            lambda Q: calls.append(Q) or good_triples(Q),
        )
        assert sum(r.success for r in realize_all(5)) == 174
        assert len(calls) == 176

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
    # the exit code, a newline and stdout of realize --class N all
    REALIZE_CLASS_ALL = {
        0: "daf429f4a8aa7a251280692af84443345a4138513b2314052042c3c56e7914e0",
        1: "daf429f4a8aa7a251280692af84443345a4138513b2314052042c3c56e7914e0",
        2: "d4b271dfd805cb5ce187938cf710d3384f818bf11302b85dd2c093e8434eba06",
        3: "995c96b8e913d135fe5b68028efb2a6ae5b2ca6d30b9dbd015b0184cdf12c957",
        4: "297c4d2e511c5def78200928ef4e635c2a2d2eb431526d4d1a7e70468391bfd5",
        5: "c9e79e4fac3e450bd360a8435c8fc5a94576b566f12322d286dbdab913a0b138",
    }

    def test_realize_class_5_outputs(self, capsys):
        digest = hashlib.sha256()
        for k in range(175):
            code = main(["realize", "--class", "5", str(k)])
            digest.update(f"{k} {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.REALIZE_CLASS_5

    @pytest.mark.parametrize("n", range(6))
    def test_realize_class_all_output(self, n, capsys):
        code = main(["realize", "--class", str(n), "all"])
        digest = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.REALIZE_CLASS_ALL[n]

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
