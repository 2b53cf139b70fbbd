import time

import numpy as np
import pytest

from conftest import apply_perm, canonical_masks, find_permutation_to, permutation_links, permute_triple
from qpoints.triples import (
    TripleSet,
    _perm_mask_tables,
    all_triples,
    canonical_mask,
    canonical_mask_orbit,
    check_triple,
    mask_images,
    num_triples,
    permutations,
    triple_rank,
)


class TestTripleValidation:
    def test_accepts_sorted(self):
        assert check_triple((0, 2, 5), 5) == (0, 2, 5)

    def test_rejects_unsorted_and_out_of_range(self):
        with pytest.raises(ValueError):
            check_triple((2, 1, 0), 5)
        with pytest.raises(ValueError):
            check_triple((0, 1, 6), 5)
        with pytest.raises(ValueError):
            check_triple((0, 1), 5)

    def test_counts(self):
        assert len(all_triples(5)) == num_triples(5) == 20

    def test_rank_is_lexicographic_position(self):
        for n in range(9):
            assert [triple_rank(t, n) for t in all_triples(n)] == list(range(num_triples(n)))

    def test_of_rejects_bad_triples(self):
        with pytest.raises(ValueError):
            TripleSet.of(3, [(0, 1, 4)])
        with pytest.raises(ValueError):
            TripleSet.of(3, [(1, 0, 2)])


class TestMasks:
    def test_mask_roundtrip(self, rng):
        # bit i is all_triples(n)[i]; iteration follows bit order
        for _ in range(30):
            n = rng.randint(2, 5)
            trips = all_triples(n)
            sample = rng.sample(trips, rng.randint(0, len(trips)))
            J = TripleSet.of(n, sample)
            assert J.mask == sum(1 << trips.index(t) for t in sample)
            assert tuple(J) == tuple(sorted(sample)) == tuple(sorted(J.triples))
            assert len(J) == len(sample)
            assert all((t in J) == (t in sample) for t in trips)
            assert TripleSet(n, J.mask) == J

    def test_membership_agrees_with_iteration(self, rng):
        # membership reads the bit at triple_rank; only a tuple of three
        # integers 0 <= i < j < k <= n can be a member
        for n in range(9):
            trips = all_triples(n)
            for _ in range(5):
                J = TripleSet(n, rng.getrandbits(len(trips)))
                members = set(J)
                assert [t in J for t in trips] == [t in members for t in trips]
        full = TripleSet.full(4)
        for t in [(0, 1), (0, 1, 2, 3), (1, 0, 2), (0, 0, 1), (-1, 0, 1), (2, 3, 5),
                  (0, 1, 2.5), ("0", 1, 2), (0, 1, float("inf")), [0, 1, 2], "012", None]:
            assert t not in full
        assert (0, 1, 2.0) in full and (np.int64(0), 1, 2) in full

    def test_membership_at_large_n(self):
        # no table of all C(n+1, 3) triples is built
        start = time.perf_counter()
        J = TripleSet.of(900, [(0, 1, 2), (898, 899, 900)])
        assert (0, 1, 2) in J and (898, 899, 900) in J
        assert (0, 1, 3) not in J and (0, 1, 901) not in J
        assert time.perf_counter() - start < 1.0

    def test_set_operations(self):
        a = TripleSet.of(3, [(0, 1, 2), (0, 1, 3)])
        b = TripleSet.of(3, [(0, 1, 3), (1, 2, 3)])
        assert tuple(a | b) == ((0, 1, 2), (0, 1, 3), (1, 2, 3))
        assert tuple(a & b) == ((0, 1, 3),)
        assert tuple(a - b) == ((0, 1, 2),)
        assert a.complement() | a == TripleSet.full(3)


class TestLinks:
    def test_matches_the_permutation_walk(self, rng):
        for n in range(13):
            nt = num_triples(n)
            sets = [TripleSet.empty(n), TripleSet.full(n)]
            sets += [TripleSet(n, rng.getrandbits(nt)) for _ in range(4)]
            sets += [TripleSet(n, rng.getrandbits(nt) & rng.getrandbits(nt) & rng.getrandbits(nt)) for _ in range(4)]
            for J in sets:
                assert J.links() == permutation_links(J)


class TestCanonicalization:
    def test_matches_brute_force(self, rng):
        # the chunked lookup tables agree with directly permuting triples
        for _ in range(25):
            n = rng.randint(2, 5)
            trips = all_triples(n)
            J = TripleSet.of(n, rng.sample(trips, rng.randint(0, min(6, len(trips)))))
            brute = min(apply_perm(J, p).mask for p in permutations(n))
            assert J.canonical().mask == brute

    def test_orbit_size_matches_enumeration(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            trips = all_triples(n)
            J = TripleSet.of(n, rng.sample(trips, rng.randint(0, len(trips))))
            orbit = {apply_perm(J, p).mask for p in permutations(n)}
            assert canonical_mask_orbit(n, J.mask)[1] == len(orbit)

    def test_matches_brute_force_at_n6(self, rng):
        # five 7-bit chunk tables; the orbit size divides 7! = 5040
        perms = permutations(6)
        for _ in range(3):
            J = TripleSet.of(6, rng.sample(all_triples(6), rng.randint(1, 34)))
            images = {apply_perm(J, p).mask for p in perms}
            canon, orbit = canonical_mask_orbit(6, J.mask)
            assert canonical_mask(6, J.mask) == canon == min(images)
            assert orbit == len(images) and 5040 % orbit == 0
        assert TripleSet.full(6).canonical() == TripleSet.full(6)

    def test_batch_matches_single(self, rng):
        # one gather over an int64 array, as the degeneration traversal
        # canonicalizes, and the blocked batch oracle; the empty mask and
        # masks with the top triple bit (bit 34 at n = 6) included
        for n in range(7):
            nt = num_triples(n)
            masks = [0] + [rng.getrandbits(nt) for _ in range(20)]
            if nt:
                masks += [1 << nt - 1, (1 << nt) - 1, rng.getrandbits(nt) | 1 << nt - 1]
            single = [canonical_mask(n, m) for m in masks]
            array = np.array(masks, dtype=np.int64)
            assert mask_images(n, array).min(axis=1).tolist() == single
            assert canonical_masks(n, array).tolist() == single

    def test_table_sizes(self):
        # the fewest chunks of at most 8 bits, in the narrowest mask type
        assert [t.shape for t in _perm_mask_tables(4)] == [(32, 120)] * 2
        assert [t.shape for t in _perm_mask_tables(5)] == [(128, 720), (128, 720), (64, 720)]
        assert [t.shape for t in _perm_mask_tables(6)] == [(128, 5040)] * 5
        for n in range(7):
            assert {t.dtype for t in _perm_mask_tables(n)} == {np.dtype(np.int32 if n <= 5 else np.int64)}

    def test_n7_refused_before_building(self):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            TripleSet.full(7).canonical()
        with pytest.raises(ValueError):
            mask_images(7, 0)
        assert time.perf_counter() - start < 1.0

    def test_find_permutation(self, rng):
        for _ in range(15):
            n = rng.randint(2, 5)
            trips = all_triples(n)
            J = TripleSet.of(n, rng.sample(trips, rng.randint(1, min(6, len(trips)))))
            perm = permutations(n)[rng.randrange(len(permutations(n)))]
            image = apply_perm(J, perm)
            found = find_permutation_to(J, image)
            assert found is not None
            assert apply_perm(J, found) == image

    def test_find_permutation_fails_across_orbits(self):
        a = TripleSet.of(3, [(0, 1, 2)])
        b = TripleSet.of(3, [(0, 1, 2), (0, 1, 3)])
        assert find_permutation_to(a, b) is None

    def test_permute_triple_sorts(self):
        perm = (3, 0, 1, 2)
        assert permute_triple(perm, (1, 2, 3)) == (0, 1, 2)
