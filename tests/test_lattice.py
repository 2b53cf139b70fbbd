import random
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    DenseSubLattice,
    dense_smith_normal_form,
    fixed_point_quartet_saturate,
    hermite_basis,
    kernel_rank,
    quotient_image,
    snf_diagonal,
)
from qpoints.adequacy import enumerate_adequate, is_adequate
from qpoints.degeneration import enumerate_nodes
from qpoints.lattice import (
    CHARS_MAX_N,
    SubLattice,
    _closure_label,
    _quartet_add,
    closure,
    node_label,
    num_pairs,
    pair_index,
    quartet_saturate,
    smith_normal_form,
    span,
    triple_char,
    triple_chars,
)
from qpoints.realize import generic_point_of_node
from qpoints.triples import TripleSet, all_triples, num_triples, quartet_masks
from qpoints.variety import good_triples


def closure_rule_gap(n):
    """Triple sets where the four-index rule saturates to less than the full
    character closure, found by scanning all 2^C(n+1,3) sets.  Empty for
    n = 3; any nonempty answer documents that the rule is weaker than span
    membership for that dimension."""
    gaps = []
    for mask in range(1 << num_triples(n)):
        J = TripleSet(n, mask)
        if quartet_saturate(J) != closure(J):
            gaps.append(J)
    return gaps


def random_set(rng, n, density):
    """Seeded triple set holding each triple with the given probability."""
    return TripleSet(n, sum(1 << b for b in range(num_triples(n)) if rng.random() < density))


def vec_add(*vs):
    return tuple(sum(c) for c in zip(*vs))


class TestTripleChar:
    def test_smallest_case(self):
        # pairs of n=2 in order (0,1), (0,2), (1,2)
        assert triple_char((0, 1, 2), 2) == (1, -1, 1)

    def test_four_term_identity(self):
        lhs = vec_add(triple_char((0, 1, 2), 3), triple_char((0, 2, 3), 3))
        rhs = vec_add(triple_char((0, 1, 3), 3), triple_char((1, 2, 3), 3))
        assert lhs == rhs

    def test_sparse_positions(self):
        v = triple_char((1, 3, 5), 5)
        idx = pair_index(5)
        expected = {idx[(1, 3)]: 1, idx[(3, 5)]: 1, idx[(1, 5)]: -1}
        for i, value in enumerate(v):
            assert value == expected.get(i, 0)


class TestSpan:
    def test_full_rank_n3(self):
        assert span(TripleSet.full(3)).rank == 3

    def test_empty(self):
        assert span(TripleSet.empty(3)).rank == 0

    def test_kernel_dimension_is_n(self):
        for n in (2, 3, 4, 5):
            assert kernel_rank(n) == num_pairs(n) - n


class TestMember:
    def test_four_term_membership(self):
        M = span(TripleSet.of(3, [(0, 1, 2), (0, 1, 3), (1, 2, 3)]))
        assert M.contains(triple_char((0, 2, 3), 3))

    def test_empty_span_contains_only_zero(self):
        M = span(TripleSet.empty(3))
        assert M.contains((0,) * 6)
        assert not M.contains(triple_char((0, 1, 2), 3))

    def test_single_span_excludes_others(self):
        M = span(TripleSet.of(3, [(0, 1, 2)]))
        assert not M.contains(triple_char((0, 1, 3), 3))

    def test_membership_is_exact_not_saturated(self):
        M = SubLattice.span([(2, 0, 0)], 3)
        assert M.contains((2, 0, 0)) and M.contains((-4, 0, 0))
        assert not M.contains((1, 0, 0))

    def test_basis_is_canonical(self, rng):
        for _ in range(20):
            vecs = [
                tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(4)
            ]
            a = SubLattice.span(vecs, 5)
            rng.shuffle(vecs)
            b = SubLattice.span(vecs, 5)
            assert hermite_basis(a) == hermite_basis(b)

    def test_membership_agrees_with_smith_solve(self, rng):
        # independent route: t in rowspan(A) iff t.V is divisible by the
        # Smith diagonal entrywise (zero beyond the rank)
        for _ in range(60):
            dim, k = rng.randint(2, 6), rng.randint(1, 5)
            vecs = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
            lat = SubLattice.span(vecs, dim)
            if rng.random() < 0.5:
                target = [
                    sum(rng.randint(-2, 2) * v[c] for v in vecs)
                    for c in range(dim)
                ]
            else:
                target = [rng.randint(-4, 4) for _ in range(dim)]
            D, V = smith_normal_form(vecs)
            diag = snf_diagonal(D)
            tv = [
                sum(target[p] * V[p][i] for p in range(dim))
                for i in range(dim)
            ]
            expected = all(
                (tv[i] % diag[i] == 0) if i < len(diag) and diag[i] else tv[i] == 0
                for i in range(dim)
            )
            assert lat.contains(target) == expected


class TestClosure:
    def test_three_generate_all_four(self):
        J = TripleSet.of(3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert closure(J) == TripleSet.full(3)

    def test_singleton_closed(self):
        J = TripleSet.of(3, [(0, 1, 2)])
        assert closure(J) == J

    def test_empty_closed(self):
        assert closure(TripleSet.empty(4)) == TripleSet.empty(4)

    @settings(max_examples=40, deadline=None)
    @given(st.sets(st.integers(0, 9), max_size=5))
    def test_closure_operator_laws(self, idxs):
        trips = all_triples(4)
        J = TripleSet.of(4, [trips[i] for i in idxs])
        K = J | [trips[(max(idxs) + 3) % 10]] if idxs else J
        cJ = closure(J)
        assert J.triples <= cJ.triples  # extensive
        assert closure(cJ) == cJ  # idempotent
        assert closure(J).triples <= closure(K).triples  # monotone

    def test_good_sets_are_closed(self, rng):
        from conftest import random_qmatrix

        for _ in range(20):
            good = good_triples(random_qmatrix(rng, rng.randint(2, 5)))
            assert closure(good) == good

    def test_refuses_n_above_the_table_bound_before_building_it(self, monkeypatch):
        def refuse(t, n):
            pytest.fail("a character built above the table bound")

        monkeypatch.setattr("qpoints.lattice.triple_char", refuse)
        n = CHARS_MAX_N + 1
        with pytest.raises(ValueError, match=f"n <= {CHARS_MAX_N}, got n = {n}"):
            closure(TripleSet(n, 1))


class TestQuartetSaturate:
    def test_adds_fourth_triple(self):
        J = TripleSet.of(3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert quartet_saturate(J) == TripleSet.full(3)

    def test_disjoint_pair_unchanged(self):
        J = TripleSet.of(4, [(0, 1, 2), (0, 3, 4)])
        assert quartet_saturate(J) == J

    def test_empty(self):
        assert quartet_saturate(TripleSet.empty(3)) == TripleSet.empty(3)

    def test_contained_in_closure(self, rng):
        trips = all_triples(5)
        for _ in range(25):
            J = TripleSet.of(5, rng.sample(trips, rng.randint(0, 6)))
            assert quartet_saturate(J).triples <= closure(J).triples

    def test_equals_closure_exhaustively_n3(self):
        assert closure_rule_gap(3) == []

    def test_gap_report_n4(self):
        # documents whether the four-index rule is complete in dimension 4
        gaps = closure_rule_gap(4)
        for J in gaps:
            assert quartet_saturate(J).triples < closure(J).triples
        assert gaps == [], (
            "four-index rule weaker than character closure for: %r" % gaps
        )

    def test_rule_incomplete_at_n5(self):
        # witness: these seven characters span (0,1,2)'s character through a
        # seven-term relation the four-index rule cannot see
        J = TripleSet.of(
            5,
            [(0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 3, 5), (2, 4, 5), (3, 4, 5)],
        )
        assert quartet_saturate(J) == J
        assert closure(J) == J | [(0, 1, 2)]

    def test_matches_fixed_point_oracle(self, rng):
        # seeded sets of every density, n = 0..8
        for n in range(9):
            for _ in range(40):
                J = random_set(rng, n, rng.random())
                assert quartet_saturate(J) == fixed_point_quartet_saturate(J)

    def test_worklist_step_from_a_closed_set(self, rng):
        # one step from a quartet-closed K is the full saturation of K + t
        for n in range(9):
            for _ in range(10):
                K = fixed_point_quartet_saturate(random_set(rng, n, rng.random() / 4))
                for b in range(num_triples(n)):
                    if not K.mask >> b & 1:
                        full = fixed_point_quartet_saturate(TripleSet(n, K.mask | 1 << b))
                        assert _quartet_add(n, K.mask, b) == full.mask

    def test_table_holds_the_faces_of_each_quartet(self):
        for n in range(8):
            table = quartet_masks(n)
            assert len(table) == comb(n + 1, 4)
            for quartet in table:
                faces = list(TripleSet(n, quartet))
                assert len(faces) == 4
                assert len(set().union(*faces)) == 4

    def test_adequacy_is_the_tetrahedron_rule(self, rng):
        # C is adequate iff its complement is closed under the four-index
        # rule: exhaustively for n <= 4, then at n = 5 on seeded masks and
        # on every adequate class representative
        def agrees(C):
            rest = C.complement()
            return is_adequate(C) == (quartet_saturate(rest) == rest)

        for n in range(5):
            assert all(agrees(TripleSet(n, m)) for m in range(1 << num_triples(n)))
        seeded = [TripleSet(5, rng.getrandbits(num_triples(5))) for _ in range(3000)]
        assert all(map(agrees, seeded + list(enumerate_adequate(5).representatives)))


class TestNodeLabel:
    def test_generic_node(self):
        assert node_label(TripleSet.empty(3)) == 3

    def test_commutative_node(self):
        assert node_label(TripleSet.full(3)) == 0

    def test_closure_label_is_one_span(self, rng):
        for _ in range(40):
            n = rng.randint(0, 6)
            J = random_set(rng, n, rng.random() / 2)
            assert _closure_label(J) == (closure(J), node_label(J))

    def test_single_plane_in_p4(self):
        assert node_label(TripleSet.of(4, [(0, 1, 2)])) == 5


class TestSmithNormalForm:
    def _det(self, M):
        # Bareiss, exact integer determinant
        M = [row[:] for row in M]
        n = len(M)
        sign, prev = 1, 1
        for k in range(n - 1):
            if M[k][k] == 0:
                for i in range(k + 1, n):
                    if M[i][k]:
                        M[k], M[i] = M[i], M[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            prev = M[k][k]
        return sign * M[-1][-1]

    def test_random_matrices(self):
        # D = U.A.V for some unimodular U exactly when A.V and D have the
        # same row lattice, so U itself is not needed
        rng = random.Random(5)
        for _ in range(150):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            A = [[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)]
            D, V = smith_normal_form(A)
            for i in range(r):
                for j in range(c):
                    if i != j:
                        assert D[i][j] == 0
            d = snf_diagonal(D)
            for i in range(len(d) - 1):
                assert d[i] >= 0
                if d[i]:
                    assert d[i + 1] % d[i] == 0
                else:
                    assert d[i + 1] == 0
            assert abs(self._det(V)) == 1
            AV = [
                [sum(A[i][k] * V[k][j] for k in range(c)) for j in range(c)]
                for i in range(r)
            ]
            assert hermite_basis(SubLattice.span(AV, c)) == hermite_basis(SubLattice.span(D, c))


@st.composite
def vector_batches(draw):
    """A dimension, vectors to add, and probes: random vectors and small
    integer combinations of the added ones."""
    dim = draw(st.integers(1, 8))
    vector = st.lists(st.integers(-6, 6), min_size=dim, max_size=dim)
    vecs = draw(st.lists(vector, max_size=10))
    probes = draw(st.lists(vector, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(vecs), max_size=len(vecs)))
        probes.append([sum(q * v[c] for q, v in zip(coeffs, vecs)) for c in range(dim)])
    return dim, vecs, probes


@st.composite
def character_spans(draw):
    """A dimension n = 2..8 and a random list of its triple characters."""
    n = draw(st.integers(2, 8))
    chars = list(triple_chars(n).values())
    picks = draw(st.lists(st.integers(0, len(chars) - 1), max_size=3 * n))
    return n, [chars[b] for b in picks]


class TestSparseKernel:
    # the support-walking kernel against the dense reference copies in
    # conftest: the same integer operations, so identical rows, pivots,
    # answers, D and V

    def _check_spans_alike(self, dim, vecs, probes):
        lat, ref = SubLattice(dim), DenseSubLattice(dim)
        for v in vecs:
            assert lat.add(v) == ref.add(v)
            assert (lat.rows, lat.pivots) == (ref.rows, ref.pivots)
            assert lat.supports == [[c for c, x in enumerate(row) if x] for row in lat.rows]
        for v in probes:
            assert lat.contains(v) == ref.contains(v)
        return lat

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vector_batches())
    @example((2, [[4, 6], [6, 9], [0, 3]], [[2, 3], [0, 1]]))
    def test_random_vectors(self, batch):
        dim, vecs, probes = batch
        lat = self._check_spans_alike(dim, vecs, probes)
        rows = lat.rows or [[0] * dim]
        assert smith_normal_form(rows) == dense_smith_normal_form(rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 8).flatmap(
        lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=1, max_size=8)
    ))
    @example([[2, 0], [0, 3]])  # d_1 = 1 only after the offender row is added
    @example([[4, 6], [6, 4]])  # gcd rotations on both rows and columns
    # a divisible column step after a gcd column step in the same pass,
    # reading rows of V (and of A below the pivot) that the gcd step made
    # nonzero in the pivot column
    @example([[2, 3, 4]])
    @example([[2, 3, 4], [0, 5, 6]])
    def test_random_matrices_smith_form(self, A):
        assert smith_normal_form(A) == dense_smith_normal_form(A)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(character_spans())
    def test_character_spans(self, drawn):
        n, chars = drawn
        lat = self._check_spans_alike(num_pairs(n), chars, list(triple_chars(n).values()))
        rows = lat.rows or [[0] * lat.dim]
        assert smith_normal_form(rows) == dense_smith_normal_form(rows)


class TestQuotient:
    def test_membership_agrees_with_sublattice(self, rng):
        lattices = [SubLattice.span([(2, 0, 0)], 3), SubLattice(3)]
        for _ in range(60):
            dim, k = rng.randint(1, 6), rng.randint(1, 5)
            vecs = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(k)]
            lattices.append(SubLattice.span(vecs, dim))
        for lat in lattices:
            quotient = lat.quotient()
            for _ in range(40):
                v = [rng.randint(-4, 4) for _ in range(lat.dim)]
                if lat.rows and rng.random() < 0.5:
                    # a lattice vector plus a small perturbation
                    for row in lat.rows:
                        q = rng.randint(-2, 2)
                        v = [a + q * b for a, b in zip(v, row)]
                assert quotient.is_zero(quotient_image(quotient, v)) == lat.contains(v)

    def test_torsion_of_even_vectors(self):
        quotient = SubLattice.span([(2, 0, 0)], 3).quotient()
        assert quotient.torsion == ((0, 2),)
        assert len(quotient.free) == 2
        assert quotient.is_zero(quotient_image(quotient, (-4, 0, 0)))
        assert not quotient.is_zero(quotient_image(quotient, (1, 0, 0)))

    def test_free_rank_minus_n_is_node_label(self):
        for n in (2, 3, 4, 5):
            for node in enumerate_nodes(n):
                free = span(node.closed_set).quotient().free
                assert len(free) - n == node.label


class TestSemanticSoundness:
    def test_generic_point_matches_closure(self, rng):
        # a generic matrix built for closure(J) has exactly that good set,
        # so forcing J good forces all of closure(J) good
        trips = all_triples(4)
        for _ in range(15):
            J = TripleSet.of(4, rng.sample(trips, rng.randint(0, 5)))
            closed = closure(J)
            Q = generic_point_of_node(closed)
            good = good_triples(Q)
            assert good == closed
            assert J.triples <= good.triples
