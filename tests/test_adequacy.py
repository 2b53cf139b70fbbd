import hashlib
import itertools
import random
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    apply_perm,
    canonical_masks,
    links_is_dense,
    non_dense_adequate,
    random_qmatrix,
    random_structured_qmatrix,
    row_sweep_adequate_masks,
)
from qpoints.adequacy import (
    OrbitCatalog,
    _witness_masks,
    adequate_masks,
    enumerate_adequate,
    is_adequate,
    is_dense,
)
from qpoints.cli import main
from qpoints.gallery import pentagonal_collection, transversal_collection
from qpoints.triples import TripleSet, all_triples, num_triples, permutations
from qpoints.variety import good_triples


def orbit_of(C):
    """Full orbit of a collection under coordinate permutations."""
    return {apply_perm(C, p) for p in permutations(C.n)}


def collections(n, max_size=6):
    trips = all_triples(n)
    return st.builds(
        lambda idxs: TripleSet.of(n, [trips[i] for i in idxs]),
        st.sets(st.integers(0, len(trips) - 1), max_size=max_size),
    )


class TestIsAdequate:
    def test_empty_is_adequate(self):
        assert is_adequate(TripleSet.empty(4))

    def test_singleton_not_adequate(self):
        assert not is_adequate(TripleSet.of(3, [(0, 1, 2)]))

    def test_two_disjoint_members_not_adequate(self):
        # take i = 3 against the member (0, 1, 2)
        assert not is_adequate(TripleSet.of(4, [(0, 1, 2), (0, 3, 4)]))

    def test_n3_all_but_singletons(self):
        # in four variables every collection except the singletons is adequate
        trips = all_triples(3)
        count = 0
        for r in range(len(trips) + 1):
            for sub in itertools.combinations(trips, r):
                if is_adequate(TripleSet.of(3, sub)):
                    count += 1
                else:
                    assert len(sub) == 1
        assert count == 12

    def test_exceptional_collections_adequate(self):
        assert is_adequate(transversal_collection())
        assert is_adequate(pentagonal_collection())

    def test_complement_of_good_set_is_adequate(self, rng):
        for _ in range(30):
            n = rng.randint(2, 5)
            Q = random_structured_qmatrix(rng, n) if rng.random() < 0.5 else random_qmatrix(rng, n)
            assert is_adequate(good_triples(Q).complement())


class TestIsDense:
    def test_exceptional_collections_not_dense(self):
        assert not is_dense(transversal_collection())
        assert not is_dense(pentagonal_collection())

    def test_reference_collection_dense(self):
        # the line P(0, 3) lies in both members, and 2 >= n - 2 = 1
        assert is_dense(TripleSet.of(3, [(0, 1, 3), (0, 2, 3)]))

    def test_trivial_thresholds(self):
        assert is_dense(TripleSet.empty(2))
        assert is_dense(TripleSet.of(2, [(0, 1, 2)]))

    def test_single_line_is_dense(self):
        # n = 1: no triples, and the one line lies in 0 >= n - 2 members
        assert is_dense(TripleSet.empty(1))
        assert not is_dense(TripleSet.empty(0))

    @pytest.mark.parametrize("n", range(6))
    def test_agrees_with_links_on_the_catalog(self, n):
        for rep in enumerate_adequate(n).representatives:
            assert is_dense(rep) == links_is_dense(rep), rep

    @pytest.mark.parametrize("n", range(10))
    def test_agrees_with_links_on_random_sets(self, n):
        rng = random.Random(n)
        nt = num_triples(n)
        for _ in range(200):
            # densities from sparse to full, so both answers occur
            density = rng.random()
            mask = sum(1 << t for t in range(nt) if rng.random() < density)
            C = TripleSet(n, mask)
            assert is_dense(C) == links_is_dense(C), C


class TestSymmetryInvariance:
    @settings(max_examples=40, deadline=None)
    @given(collections(4), st.integers(0, factorial(5) - 1))
    def test_predicates_invariant(self, C, pidx):
        perm = permutations(4)[pidx]
        image = apply_perm(C, perm)
        assert is_adequate(C) == is_adequate(image)
        assert is_dense(C) == is_dense(image)


class TestCanonicalForm:
    def test_relabeling_example(self):
        assert TripleSet.of(4, [(2, 3, 4)]).canonical() == TripleSet.of(
            4, [(0, 1, 2)]
        )

    def test_empty(self):
        assert TripleSet.empty(3).canonical() == TripleSet.empty(3)

    @settings(max_examples=40, deadline=None)
    @given(collections(4))
    def test_idempotent_and_orbit_constant(self, C):
        canon = C.canonical()
        assert canon.canonical() == canon
        perm = permutations(4)[17]
        assert apply_perm(C, perm).canonical() == canon


class TestEnumeration:
    def test_counts_n3(self):
        catalog = enumerate_adequate(3)
        assert catalog.total == 12
        assert len(catalog) == 4
        assert sorted(catalog.orbit_sizes) == [1, 1, 4, 6]

    def test_counts_n4(self):
        catalog = enumerate_adequate(4)
        assert catalog.total == 314
        assert len(catalog) == 16

    def test_sweep_matches_predicate_exhaustively(self):
        for n in (2, 3, 4):
            masks = set(int(m) for m in adequate_masks(n))
            for mask in range(1 << len(all_triples(n))):
                assert (mask in masks) == is_adequate(TripleSet(n, mask))

    def test_sweep_matches_row_sweep(self):
        for n in range(6):
            assert adequate_masks(n).tolist() == row_sweep_adequate_masks(n).tolist()

    def test_walk_matches_batch_canonicalization(self):
        for n in range(6):
            masks = adequate_masks(n)
            reps, counts = np.unique(canonical_masks(n, masks), return_counts=True)
            catalog = enumerate_adequate(n)
            assert [rep.mask for rep in catalog.representatives] == reps.tolist()
            assert list(catalog.orbit_sizes) == counts.tolist()
            assert catalog.total == len(masks)

    def test_witness_terms_fit_one_word(self):
        # the sweep packs one bit per witness term into a uint64 word
        admitted = [n for n in range(8) if num_triples(n) <= 25]
        assert admitted == list(range(6))
        assert all(len(_witness_masks(n)) <= 64 for n in admitted)
        with pytest.raises(ValueError):
            adequate_masks(6)

    def test_orbit_sizes_divide_group_order(self):
        for n in (3, 4):
            catalog = enumerate_adequate(n)
            for rep, size in zip(catalog.representatives, catalog.orbit_sizes):
                assert factorial(n + 1) % size == 0
                assert len(orbit_of(rep)) == size

    def test_representatives_are_canonical_and_adequate(self):
        catalog = enumerate_adequate(4)
        for rep in catalog.representatives:
            assert rep.canonical() == rep
            assert is_adequate(rep)

    def test_adequate_nonempty_implies_dense_below_five(self):
        for n in (2, 3, 4):
            for rep in enumerate_adequate(n).representatives:
                if len(rep):
                    assert is_dense(rep)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match=r"\(n = 6\) is out of budget"):
            enumerate_adequate(6)

    def test_catalog_rejects_inconsistent_orbits(self):
        reps = (TripleSet.empty(3),)
        with pytest.raises(ValueError, match="divide"):
            OrbitCatalog(3, reps, (5,))


class TestNonDense:
    def test_empty_below_five(self):
        for n in (2, 3, 4):
            assert non_dense_adequate(n) == []

    def test_exactly_two_classes_at_five(self):
        found = non_dense_adequate(5)
        expected = {
            transversal_collection().canonical().mask,
            pentagonal_collection().canonical().mask,
        }
        assert {c.mask for c in found} == expected

    def test_records_have_dense_flags(self):
        recs = enumerate_adequate(4).records()
        assert all(rec["dense"] or not rec["triples"] for rec in recs)
        assert sum(rec["orbit_size"] for rec in recs) == 314


class TestPinnedCatalog:
    # SHA-256 of the stdout of `enumerate N --adequate`, N = 0..5; a change
    # to any class, orbit size or the catalog order shows up here
    ENUMERATE_ADEQUATE = "5a11dca2e7d7a929268119640c4de743d9fc5c1e77316b553f0ef7da70cd74d2"

    def test_enumerate_adequate_outputs(self, capsys):
        digest = hashlib.sha256()
        for n in range(6):
            code = main(["enumerate", str(n), "--adequate"])
            digest.update(f"{n} {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.ENUMERATE_ADEQUATE
