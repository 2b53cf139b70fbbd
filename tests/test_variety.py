import dataclasses
import itertools
import json
import random
from math import comb

import pytest

from conftest import (
    is_rank_one,
    monomial_variety_check,
    qmatrix_of_scalars,
    random_qmatrix,
    random_structured_qmatrix,
    transversal_family,
)
from qpoints import variety
from qpoints.gallery import (
    all_ones_matrix,
    block_matrix,
    p3_two_planes_matrix,
    pentagonal_collection,
    pentagonal_good_set,
    sign_matrix,
    transversal_collection,
)
from qpoints.scalars import GeneratorTable, GroupScalar, QMatrix, qmatrix_from_json
from qpoints.triples import TripleSet, all_triples
from qpoints.variety import Configuration, _type_vectors, components, good_triples, ideal_generators


def brute_force_components(good: TripleSet):
    """Oracle for components(): fill a table over all 2^(n+1) subsets, then
    keep the flats that no single point extends."""
    size = good.n + 1
    flat = [True] * (1 << size)
    for mask in range(1 << size):
        if mask.bit_count() < 3:
            continue
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        bits = [i for i in range(top) if rest >> i & 1]
        flat[mask] = flat[rest] and all(
            (a, b, top) in good.triples for a, b in itertools.combinations(bits, 2)
        )
    maximal = sorted(
        tuple(i for i in range(size) if mask >> i & 1)
        for mask in range(1, 1 << size)
        if flat[mask]
        and not any(not mask >> v & 1 and flat[mask | 1 << v] for v in range(size))
    )
    counts = [sum(len(c) == d + 1 for c in maximal) for d in range(good.n, 0, -1)]
    return tuple(maximal), tuple(counts)


def oracle_good_triples(Q):
    """Oracle for good_triples(): one obstruction scalar per triple."""
    return TripleSet.of(Q.n, (t for t in all_triples(Q.n) if Q.b(t).is_one))


def matrix(n, entries, modulus=2, names=None):
    """QMatrix from {pair: (exponents, torsion)}; other pairs are 1."""
    upper = {
        (i, j): GroupScalar.from_dict(*entries.get((i, j), ({}, 0)), modulus)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    }
    return qmatrix_of_scalars(n, upper, None if names is None else GeneratorTable(names, modulus))


def skeleton_weight(config) -> int:
    """Total number of coordinate-line slots the components offer; at least
    the number of coordinate lines, with equality iff components pairwise
    meet in at most a point."""
    return sum(comb(len(c), 2) for c in config.components)


class TestGoodTriples:
    def test_reference_matrix(self):
        assert good_triples(p3_two_planes_matrix()) == TripleSet.of(
            3, [(0, 1, 2), (1, 2, 3)]
        )

    def test_commutative_all_good(self):
        for n in (2, 3, 4):
            assert good_triples(all_ones_matrix(n)) == TripleSet.full(n)

    def test_sign_matrix_ten_planes(self):
        assert good_triples(sign_matrix()) == pentagonal_good_set()

    def test_block_matrix(self):
        assert good_triples(block_matrix()).complement() == transversal_collection()

    def test_matches_per_triple_oracle(self):
        rng = random.Random(61)
        for n in range(10):
            for Q in (
                random_qmatrix(rng, n),
                random_qmatrix(rng, n, torsion=False),
                random_structured_qmatrix(rng, n),
            ):
                assert good_triples(Q) == oracle_good_triples(Q)

    def test_blocks_and_chunks_match_oracle(self, monkeypatch):
        # a tiny step splits the generators into column blocks and the
        # triples into chunks, which the small matrices never need
        rng = random.Random(62)
        matrices = [random_qmatrix(rng, n) for n in range(2, 8)]
        matrices += [random_structured_qmatrix(rng, n) for n in range(2, 8)]
        expected = [oracle_good_triples(Q) for Q in matrices]
        monkeypatch.setattr(variety, "_STEP_ENTRIES", 5)
        assert [good_triples(Q) for Q in matrices] == expected

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_exponent_sums_never_wrap(self, bits):
        # 2^(k-2) + 2^(k-2) + 2^(k-1) = 2^k, which is 0 in k-bit integers
        half, quarter = 2 ** (bits - 1), 2 ** (bits - 2)
        Q = matrix(3, {(0, 1): ({"a": quarter}, 0), (1, 2): ({"a": quarter}, 0),
                       (0, 2): ({"a": -half}, 0)})
        assert (0, 1, 2) not in good_triples(Q)
        assert good_triples(Q) == oracle_good_triples(Q)

    @pytest.mark.parametrize("bits", [8, 16, 32, 64])
    def test_torsion_sums_never_wrap(self, bits):
        # phases 5*2^(k-4) twice: 5*2^(k-3) wraps to -3*2^(k-3) in k-bit
        # integers, a multiple of the modulus 3*2^(k-3), although 5*2^(k-3)
        # is not
        m = 3 * 2 ** (bits - 3)
        Q = matrix(3, {(0, 1): ({}, 5 * 2 ** (bits - 4)), (1, 2): ({}, 5 * 2 ** (bits - 4))}, m)
        assert (0, 1, 2) not in good_triples(Q)
        assert good_triples(Q) == oracle_good_triples(Q)
        Q = matrix(3, {(0, 1): ({}, m - 1), (1, 2): ({}, m - 1), (0, 2): ({}, m - 2)}, m)
        assert (0, 1, 2) in good_triples(Q)
        assert good_triples(Q) == oracle_good_triples(Q)

    def test_exponents_beyond_int64(self):
        Q = matrix(3, {(0, 1): ({"a": 2**64}, 0), (1, 2): ({"a": -(2**66)}, 0),
                       (0, 2): ({"a": 2**64 - 2**66}, 0), (2, 3): ({"b": 2**63}, 0)})
        assert good_triples(Q) == oracle_good_triples(Q)
        assert good_triples(Q) == TripleSet.of(3, [(0, 1, 2)])

    def test_torsion_modulus_one(self):
        Q = matrix(3, {(0, 1): ({"a": 1}, 5), (1, 2): ({}, 7)}, 1)
        assert good_triples(Q) == oracle_good_triples(Q)
        assert good_triples(Q) == TripleSet.of(3, [(0, 2, 3), (1, 2, 3)])
        assert good_triples(QMatrix.ones(3, modulus=1)) == TripleSet.full(3)

    def test_unused_table_generators(self):
        Q = matrix(3, {(0, 1): ({"b": 1}, 0), (0, 2): ({"b": 1}, 1)}, 2, ("a", "b", "z"))
        assert good_triples(Q) == oracle_good_triples(Q)
        assert good_triples(Q) == TripleSet.of(3, [(1, 2, 3)])

    def test_unused_names_scatter_no_block(self, monkeypatch):
        # names that no entry uses, interleaved among the used ones, leave
        # the good set as it is, and with one column per block only the
        # columns some entry uses are scattered
        rng = random.Random(63)
        matrices = [random_qmatrix(rng, n) for n in range(2, 8)]
        matrices += [random_structured_qmatrix(rng, n) for n in range(2, 8)]
        expected = [good_triples(Q) for Q in matrices]
        padded = []
        for Q in matrices:
            names = [x for k, g in enumerate(Q.table.names) for x in (f"unused{k}", g, f"unused{k}_")]
            padded.append(QMatrix(Q.n, GeneratorTable(tuple(names), Q.table.torsion_modulus), Q._entries()))
        scattered = []
        zeros = variety.np.zeros

        def counted_zeros(*args, **kwargs):
            scattered.append(args[0])
            return zeros(*args, **kwargs)

        monkeypatch.setattr(variety, "_STEP_ENTRIES", 1)
        monkeypatch.setattr(variety.np, "zeros", counted_zeros)
        for Q, good in zip(padded, expected):
            scattered.clear()
            assert good_triples(Q) == good
            assert len(scattered) == len(set(Q.cols.tolist())) < len(Q.table.names)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_smallest_dimensions(self, n):
        assert good_triples(QMatrix.ones(n)) == TripleSet.full(n)
        Q = matrix(n, {(0, n): ({"a": 1}, 0)} if n else {})
        assert good_triples(Q) == oracle_good_triples(Q)


class TestIsRankOne:
    def test_small_sets_always_rank_one(self, rng):
        Q = random_qmatrix(rng, 4)
        for size in (1, 2):
            for S in itertools.combinations(range(5), size):
                assert is_rank_one(Q, S)

    def test_reference_values(self):
        Q = p3_two_planes_matrix()
        assert is_rank_one(Q, (0, 1, 2))
        assert not is_rank_one(Q, (0, 1, 2, 3))
        assert not is_rank_one(Q, (0, 1, 3))

    def test_equivalence_with_good_triples(self, rng):
        # rank-one block <=> every triple inside is good, for all subsets
        for _ in range(12):
            n = rng.randint(2, 5)
            Q = random_structured_qmatrix(rng, n) if rng.random() < 0.5 else random_qmatrix(rng, n)
            good = good_triples(Q)
            for size in range(1, n + 2):
                for S in itertools.combinations(range(n + 1), size):
                    expected = all(
                        t in good.triples for t in itertools.combinations(S, 3)
                    )
                    assert is_rank_one(Q, S) == expected


class TestComponents:
    def test_reference_configuration(self):
        config = components(TripleSet.of(3, [(0, 1, 2), (1, 2, 3)]))
        assert config.components == ((0, 1, 2), (0, 3), (1, 2, 3))
        assert config.type_vector == (0, 2, 1)

    def test_type_vector_is_read_off_the_components(self):
        config = components(TripleSet.of(3, [(0, 1, 2), (1, 2, 3)]))
        assert [f.name for f in dataclasses.fields(Configuration)] == ["n", "components"]
        with pytest.raises(TypeError):
            Configuration(3, config.components, (1, 0, 0))
        assert Configuration(3, config.components) == config

    def test_empty_good_set_gives_skeleton(self):
        config = components(TripleSet.empty(3))
        assert config.type_vector == (0, 0, 6)
        assert all(len(c) == 2 for c in config.components)
        assert len(config.components) == 6

    def test_block_collection_components(self):
        config = components(good_triples(block_matrix()))
        assert config.components == ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5))
        assert config.type_vector == (0, 0, 3, 0, 0)

    def test_whole_space(self):
        config = components(TripleSet.full(4))
        assert config.is_whole_space()
        assert config.type_vector == (1, 0, 0, 0)

    def test_single_point(self):
        config = components(TripleSet.empty(0))
        assert config.components == ((0,),)
        assert config.is_whole_space()

    def test_matches_brute_force_on_random_triple_sets(self):
        rng = random.Random(20261018)
        for n in range(1, 10):
            trips = all_triples(n)
            sets, brute = [], []
            for _ in range(40 if n < 8 else 8):
                density = rng.random()
                good = TripleSet.of(n, [t for t in trips if rng.random() < density])
                config = components(good)
                sets.append(good.mask)
                brute.append(brute_force_components(good))
                assert (config.components, config.type_vector) == brute[-1]
            if n <= 6:
                assert _type_vectors(n, sets) == [tv for _, tv in brute]

    def test_matches_brute_force_on_structured_matrices(self, rng):
        for _ in range(25):
            good = good_triples(random_structured_qmatrix(rng, rng.randint(1, 7)))
            config = components(good)
            brute = brute_force_components(good)
            assert (config.components, config.type_vector) == brute
            if good.n <= 6:
                assert _type_vectors(good.n, [good.mask]) == [brute[1]]

    def test_component_invariants(self, rng):
        for _ in range(15):
            n = rng.randint(2, 5)
            Q = random_structured_qmatrix(rng, n)
            good = good_triples(Q)
            config = components(good)
            comps = [set(c) for c in config.components]
            # pairwise incomparable
            for a, b in itertools.combinations(comps, 2):
                assert not a <= b and not b <= a
            # every pair of indices is covered
            for pair in itertools.combinations(range(n + 1), 2):
                assert any(set(pair) <= c for c in comps)
            # triples inside components reproduce exactly the good set
            covered = {
                t
                for c in config.components
                for t in itertools.combinations(c, 3)
            }
            assert covered == set(good.triples)
            # line-coverage inequality, tight iff components meet in points
            meet_in_points = all(
                len(a & b) <= 1 for a, b in itertools.combinations(comps, 2)
            )
            assert skeleton_weight(config) >= comb(n + 1, 2)
            assert (skeleton_weight(config) == comb(n + 1, 2)) == meet_in_points


class TestSizeBounds:
    def test_good_triples_refuses_n_beyond_the_bound(self):
        n = variety.VARIETY_MAX_N + 1
        with pytest.raises(ValueError, match=f"n <= {variety.VARIETY_MAX_N}, got n = {n}"):
            good_triples(QMatrix.ones(n))

    def test_components_refuses_n_beyond_the_bound(self):
        n = variety.VARIETY_MAX_N + 1
        with pytest.raises(ValueError, match=f"n <= {variety.VARIETY_MAX_N}"):
            components(TripleSet.empty(n))

    def test_type_vectors_refuse_n_beyond_six(self):
        with pytest.raises(ValueError, match="n <= 6, got n = 7"):
            _type_vectors(7, [0])

    @pytest.mark.parametrize("parts", [3, 4, 5])
    def test_transversal_family_components(self, parts):
        # from three parts on, the transversals are planes or larger
        config = components(good_triples(qmatrix_from_json(json.dumps(transversal_family(parts)))))
        transversals = [c for c in config.components if len(c) == parts]
        assert len(transversals) == 3 ** parts
        assert all(len({i // 3 for i in c}) == parts for c in transversals)
        assert len(config.components) == 3 ** parts + 3 * parts


class TestIdealGenerators:
    def test_whole_space_has_no_generators(self):
        assert ideal_generators(TripleSet.full(3)) == []

    def test_reference_matrix(self):
        good = good_triples(p3_two_planes_matrix())
        assert ideal_generators(good) == [(0, 1, 3), (0, 2, 3)]

    def test_sign_matrix_generators(self):
        good = good_triples(sign_matrix())
        assert ideal_generators(good) == list(pentagonal_collection())


class TestMonomialVarietyCheck:
    def test_whole_space(self):
        assert monomial_variety_check(TripleSet.full(3))

    def test_reference_good_set(self):
        assert monomial_variety_check(good_triples(p3_two_planes_matrix()))

    def test_empty_n2(self):
        assert monomial_variety_check(TripleSet.empty(2))

    def test_structured_samples(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            Q = random_structured_qmatrix(rng, n)
            assert monomial_variety_check(good_triples(Q), samples=20)
