import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import instantiate, prime_assignment, random_qmatrix, rational_b
from qpoints.gallery import all_ones_matrix, p3_two_planes_matrix, sign_matrix
from qpoints.scalars import (
    GeneratorTable,
    GroupScalar,
    MatrixFormatError,
    QMatrix,
    ScalarError,
    TableMismatchError,
    _is_generator_name,
    parse_scalar,
    qmatrix_from_json,
)
from qpoints.triples import TripleSet, all_triples
from qpoints.variety import good_triples


def q_entry(Q: QMatrix, i: int, j: int) -> GroupScalar:
    return Q.entry(i, j)


def b_scalar(Q: QMatrix, t) -> GroupScalar:
    return Q.b(t)


def s(text, m=2):
    return parse_scalar(text, m)


scalars = st.builds(
    GroupScalar.from_dict,
    st.dictionaries(st.sampled_from("abcd"), st.integers(-3, 3), max_size=3),
    st.integers(0, 1),
    st.just(2),
)


class TestGroupScalar:
    def test_canonical_form_drops_zero_exponents(self):
        assert GroupScalar.from_dict({"a": 0, "b": 1}) == GroupScalar.from_dict({"b": 1})

    def test_one(self):
        one = GroupScalar.one()
        assert one.is_one and not one.exponents and one.torsion == 0

    def test_inverse_pair_multiplies_to_one(self):
        x = s("x")
        assert (x * x.inverse()).is_one

    def test_torsion_squares_to_one(self):
        w = GroupScalar.root_of_unity(2)
        assert (w * w).is_one  # (-1) * (-1) = 1

    def test_exponent_addition(self):
        assert s("a*b^-1") * s("b*c") == s("a*c")

    def test_mismatched_moduli_rejected(self):
        with pytest.raises(TableMismatchError):
            s("a", 2) * s("a", 3)

    @given(scalars, scalars, scalars)
    def test_associative_commutative(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x

    @given(scalars)
    def test_inverse_and_canonical_equality(self, x):
        assert (x * x.inverse()).is_one
        assert x * GroupScalar.one() == x

    @given(scalars)
    def test_string_roundtrip(self, x):
        assert parse_scalar(str(x)) == x

    def test_bad_names_rejected(self):
        with pytest.raises(ScalarError):
            GroupScalar.from_dict({"w": 1})
        with pytest.raises(ScalarError):
            parse_scalar("3a*b")

    def test_name_rule_matches_the_name_syntax(self):
        # every string of up to three characters over letters, _, digits,
        # the reserved w, whitespace, a sign and non-ASCII letters and
        # digits that str.isidentifier alone would take
        syntax = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
        alphabet = "aZ_09w\n -\u00e9\u0663\u2168"
        names = ["".join(p) for k in range(4) for p in itertools.product(alphabet, repeat=k)]
        assert len(names) == 1885
        wrong = [name for name in names if _is_generator_name(name) != (name != "w" and bool(syntax.match(name)))]
        assert wrong == []

    @pytest.mark.parametrize("text", ["a^", "w^", "a^1_0", "a^\u0661", "a^--1", "a^+", "b*a^ "])
    def test_bad_exponents_rejected(self, text):
        # an exponent is ASCII digits with an optional sign, as int() alone
        # would also take underscores and other scripts' digits
        with pytest.raises(ScalarError, match="bad exponent in token"):
            parse_scalar(text)

    def test_signed_exponents_accepted(self):
        assert parse_scalar("a^+2*b^-1*w^3", 4) == parse_scalar("a ^ 2*b^-1*w^-1", 4)


class TestQMatrix:
    def test_entries_of_reference_matrix(self):
        Q = p3_two_planes_matrix()
        assert Q.entry(0, 1) == s("a")
        assert Q.entry(1, 0) == s("a^-1")
        assert Q.entry(2, 2).is_one

    def test_q_entry_alias(self):
        Q = p3_two_planes_matrix()
        assert q_entry(Q, 0, 3) == s("x")

    def test_entry_out_of_range(self):
        with pytest.raises(IndexError):
            p3_two_planes_matrix().entry(0, 4)

    def test_b_commutative_is_one(self):
        Q = all_ones_matrix(4)
        assert all(Q.b(t).is_one for t in all_triples(4))

    def test_b_reference_values(self):
        Q = p3_two_planes_matrix()
        assert Q.b((0, 1, 2)).is_one
        assert b_scalar(Q, (0, 1, 3)) == s("a*c*x^-1")
        assert not Q.b((0, 1, 3)).is_one

    def test_b_four_index_identity(self, rng):
        # b_ijk * b_ikl == b_ijl * b_jkl for any matrix
        import itertools

        for _ in range(40):
            n = rng.randint(3, 5)
            Q = random_qmatrix(rng, n)
            for (i, j, k, l) in itertools.combinations(range(n + 1), 4):
                lhs = Q.b((i, j, k)) * Q.b((i, k, l))
                rhs = Q.b((i, j, l)) * Q.b((j, k, l))
                assert lhs == rhs

    def test_incomplete_upper_rejected(self):
        with pytest.raises(ScalarError):
            QMatrix(2, {(0, 1): GroupScalar.one()})

    def test_missing_table_generator_rejected(self):
        table = GeneratorTable(("a",), 2)
        upper = {
            (0, 1): s("a"), (0, 2): s("q"), (1, 2): s("a"),
        }
        with pytest.raises(TableMismatchError):
            QMatrix(2, upper, table)


class TestInstantiate:
    def test_direct_substitution(self):
        Q = p3_two_planes_matrix()
        M = instantiate(Q, {"a": 2, "b": 3, "c": 5, "x": 7})
        assert M[0][3] == 7
        assert M[3][0] == Fraction(1, 7)
        assert M[1][2] == Fraction(3, 2)

    def test_sign_matrix_instantiates_to_sign_grid(self):
        M = instantiate(sign_matrix(), {})
        expected = [
            [1, -1, 1, 1, -1, 1],
            [-1, 1, -1, 1, 1, 1],
            [1, -1, 1, -1, 1, 1],
            [1, 1, -1, 1, -1, 1],
            [-1, 1, 1, -1, 1, 1],
            [1, 1, 1, 1, 1, 1],
        ]
        assert M == [[Fraction(v) for v in row] for row in expected]

    def test_special_value_creates_rank_one(self):
        # at x = a*c the whole matrix collapses to rank one numerically
        Q = p3_two_planes_matrix()
        M = instantiate(Q, {"a": 2, "b": 3, "c": 5, "x": 10})
        assert rational_b(M, (0, 1, 3)) == 1
        assert not Q.b((0, 1, 3)).is_one  # still generic symbolically

    def test_missing_assignment(self):
        with pytest.raises(ScalarError):
            instantiate(p3_two_planes_matrix(), {"a": 2})

    def test_large_torsion_rejected(self):
        table = GeneratorTable((), 3)
        upper = {(0, 1): GroupScalar.root_of_unity(3)}
        Q = QMatrix(1, upper, table)
        with pytest.raises(ScalarError):
            instantiate(Q, {})

    def test_oracle_equivalence_sample(self, rng):
        # symbolic b == 1 iff rational b == 1 at distinct primes
        for _ in range(50):
            n = rng.randint(2, 5)
            Q = random_qmatrix(rng, n)
            M = instantiate(Q, prime_assignment(Q))
            for t in all_triples(n):
                assert Q.b(t).is_one == (rational_b(M, t) == 1)


class TestJson:
    def test_roundtrip(self):
        Q = p3_two_planes_matrix()
        assert qmatrix_from_json(Q.to_json()) == Q

    def test_compact_string_form_accepted(self):
        data = {
            "n": 2,
            "torsion_modulus": 2,
            "generators": ["a"],
            "upper": {"0,1": "a", "0,2": "a^-1*w", "1,2": "1"},
        }
        Q = qmatrix_from_json(json.dumps(data))
        assert Q.entry(0, 2) == GroupScalar.from_dict({"a": -1}, 1, 2)
        assert Q.entry(1, 2).is_one

    def test_sign_matrix_roundtrip(self):
        Q = sign_matrix()
        assert qmatrix_from_json(Q.to_json()) == Q

    BIG = 2**63  # one past the int64 range

    @pytest.mark.parametrize(
        "head, strings, objects, names",
        [
            (  # a cancels, so an inferred table drops it
                {},
                {"0,1": "a*a^-1*b", "0,2": "b", "1,2": "1"},
                {"0,1": {"exponents": {"a": 0, "b": 1}}, "0,2": {"exponents": {"b": 1}}, "1,2": {}},
                ("b",),
            ),
            (  # w^2 is 1 under modulus 2
                {"torsion_modulus": 2},
                {"0,1": "a*w^2", "0,2": "w^3", "1,2": "w"},
                {"0,1": {"exponents": {"a": 1}, "torsion": 2}, "0,2": {"torsion": 3}, "1,2": {"torsion": 1}},
                ("a",),
            ),
            (  # a given table keeps its unused name z
                {"generators": ["b", "a", "z"]},
                {"0,1": "a", "0,2": "b^2", "1,2": "a^-1*b^2"},
                {"0,1": {"exponents": {"a": 1}}, "0,2": {"exponents": {"b": 2}}, "1,2": {"exponents": {"a": -1, "b": 2}}},
                ("b", "a", "z"),
            ),
            (  # every phase is 0 under modulus 1
                {"torsion_modulus": 1},
                {"0,1": "w", "0,2": "a*w^5", "1,2": "a"},
                {"0,1": {"torsion": 1}, "0,2": {"exponents": {"a": 1}, "torsion": 5}, "1,2": {"exponents": {"a": 1}}},
                ("a",),
            ),
            (  # exponents beyond int64, with the one triple good
                {},
                {"0,1": f"a^{BIG}", "0,2": f"a^{BIG}*b^{-BIG - 1}", "1,2": f"b^{-BIG - 1}"},
                {"0,1": {"exponents": {"a": BIG}}, "0,2": {"exponents": {"a": BIG, "b": -BIG - 1}}, "1,2": {"exponents": {"b": -BIG - 1}}},
                ("a", "b"),
            ),
        ],
        ids=["cancelled-name", "w-squared-mod-2", "unused-name", "modulus-1", "beyond-int64"],
    )
    def test_string_and_object_forms_agree(self, head, strings, objects, names):
        from_strings = qmatrix_from_json(json.dumps({"n": 2, "upper": strings} | head))
        from_objects = qmatrix_from_json(json.dumps({"n": 2, "upper": objects} | head))
        modulus = head.get("torsion_modulus", 2)
        from_scalars = QMatrix(
            2,
            {tuple(map(int, k.split(","))): parse_scalar(v, modulus) for k, v in strings.items()},
            GeneratorTable(names, modulus),
        )
        assert from_strings.table.names == names
        assert from_strings == from_objects == from_scalars
        assert all(
            from_strings.entry(i, j) == from_objects.entry(i, j) for i in range(3) for j in range(3)
        )
        assert from_strings.to_json() == from_objects.to_json()
        assert qmatrix_from_json(from_strings.to_json()) == from_strings
        oracle = TripleSet.of(2, [t for t in all_triples(2) if from_strings.b(t).is_one])
        assert good_triples(from_strings) == good_triples(from_objects) == oracle

    @pytest.mark.parametrize("other", [" 0, 1", "0,+1", "00,1"])
    def test_keys_naming_one_pair_rejected(self, other):
        # the reader would otherwise keep whichever key came last
        for upper in ({"0,1": "a", other: "b"}, {other: "b", "0,1": "a"}):
            first, second = (repr(k) for k in upper)
            message = f"pair keys {first} and {second} both name the pair 0,1"
            with pytest.raises(MatrixFormatError, match=re.escape(message)):
                qmatrix_from_json(json.dumps({"n": 1, "upper": upper}))
