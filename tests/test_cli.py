import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qpoints
from conftest import transversal_family
from qpoints import cli, scalars, variety
from qpoints.cli import EXIT_BROKEN_PIPE, INPUT_MAX_BYTES, _build_parser, _json_text, main
from qpoints.gallery import (
    all_ones_matrix,
    block_matrix,
    p3_two_planes_collection,
    p3_two_planes_matrix,
    pentagonal_good_set,
)
from qpoints.triples import TripleSet, num_triples


def write_matrix(tmp_path, Q, name="matrix.json"):
    path = tmp_path / name
    path.write_text(Q.to_json())
    return str(path)


def write_collection(tmp_path, C, name="collection.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"n": C.n, "triples": [list(t) for t in C]}))
    return str(path)


class TestPts:
    def test_reference_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, p3_two_planes_matrix())
        assert main(["pts", path]) == 0
        out = capsys.readouterr().out
        assert "good triples: P(0,1,2) P(1,2,3)" in out
        assert "components: P(0,1,2) P(0,3) P(1,2,3)" in out
        assert "type: (0,2,1)" in out
        assert "ideal generators: u0*u1*u3 u0*u2*u3" in out

    def test_commutative_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, all_ones_matrix(3))
        assert main(["pts", path]) == 0
        assert "point variety = P^3" in capsys.readouterr().out

    def test_block_matrix(self, tmp_path, capsys):
        path = write_matrix(tmp_path, block_matrix())
        assert main(["pts", path]) == 0
        out = capsys.readouterr().out
        assert "components: P(0,1,2,3) P(0,1,4,5) P(2,3,4,5)" in out

    def test_json_output(self, tmp_path, capsys):
        path = write_matrix(tmp_path, p3_two_planes_matrix())
        assert main(["pts", path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["components"] == [[0, 1, 2], [0, 3], [1, 2, 3]]
        assert data["type"] == [0, 2, 1]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pts", str(path)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["pts", "/nonexistent/matrix.json"]) == 2

    def test_invariant_violation_exits_3(self, tmp_path, capsys):
        data = p3_two_planes_matrix().to_json_dict()
        del data["upper"]["0,1"]  # incomplete upper triangle
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        assert main(["pts", str(path)]) == 3

    def test_non_integer_exponent_exits_3(self, tmp_path, capsys):
        data = p3_two_planes_matrix().to_json_dict()
        data["upper"]["0,1"] = "a^1_0"
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(data))
        assert main(["pts", str(path)]) == 3
        assert "bad exponent in token 'a^1_0'" in capsys.readouterr().err

    def test_single_point_is_p0(self, tmp_path, capsys):
        path = tmp_path / "p0.json"
        path.write_text(json.dumps({"n": 0, "upper": {}}))
        assert main(["pts", str(path)]) == 0
        assert "point variety = P^0" in capsys.readouterr().out

    def test_huge_n_fails_fast_with_exit_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1000000000, "upper": {}}))
        assert main(["pts", str(path)]) == 3

    def test_beyond_size_bound_exits_3_naming_it(self, tmp_path, capsys):
        # refused before the boundary table of C(n+1, 3) triples is built
        n = variety.VARIETY_MAX_N + 1
        upper = {f"{i},{j}": "1" for i in range(n + 1) for j in range(i + 1, n + 1)}
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"n": n, "upper": upper}))
        assert main(["pts", str(path)]) == 3
        assert f"n <= {variety.VARIETY_MAX_N}, got n = {n}" in capsys.readouterr().err

    def test_beyond_size_bound_refused_before_rows_are_built(self, tmp_path, capsys, monkeypatch):
        def unbuilt(*args):
            raise AssertionError("the matrix entries were read")

        n = variety.VARIETY_MAX_N + 1
        upper = {f"{i},{j}": "1" for i in range(n + 1) for j in range(i + 1, n + 1)}
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"n": n, "upper": upper}))
        monkeypatch.setattr(scalars, "_parse_terms", unbuilt)
        monkeypatch.setattr(scalars.QMatrix, "__init__", unbuilt)
        assert main(["pts", str(path)]) == 3
        bound = f"invalid input: point varieties are computed for n <= {variety.VARIETY_MAX_N}, got n = {n}\n"
        assert capsys.readouterr() == ("", bound)

    def test_components_beyond_limit_exit_3_naming_it(self, tmp_path, capsys, monkeypatch):
        # five parts of three: 3^5 = 243 transversals and 15 lines
        path = tmp_path / "parts.json"
        path.write_text(json.dumps(transversal_family(5)))
        monkeypatch.setattr(variety, "COMPONENTS_LIMIT", 258)
        assert main(["pts", str(path), "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["components"]) == 258
        monkeypatch.setattr(variety, "COMPONENTS_LIMIT", 257)
        assert main(["pts", str(path), "--json"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "invalid input: the point variety has more than 257 components\n")

    def test_non_object_upper_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"n": 2, "upper": []}))
        assert main(["pts", str(path)]) == 2
        assert "upper" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"upper": {"0,1": {"exponents": {"a": 1.5}}}}, "exponent of 'a'"),
            ({"n": 1.9}, "n"),
            ({"n": True}, "n"),
            ({"torsion_modulus": 2.5}, "torsion_modulus"),
            ({"upper": {"0,1": {"torsion": True}}}, "torsion of pair"),
            ({"generators": "ab"}, "generators"),
        ],
        ids=["float-exponent", "float-n", "bool-n", "float-modulus", "bool-torsion", "string-generators"],
    )
    def test_non_integer_number_exits_2(self, tmp_path, capsys, change, field):
        # matrix files follow the collection-file rule: numbers are JSON
        # integers, never bools, floats or strings cut down by int()
        path = tmp_path / "strict.json"
        path.write_text(json.dumps({"n": 1, "upper": {"0,1": "a"}} | change))
        assert main(["pts", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data, code, message",
        [
            ({"n": 1, "upper": {"1,0": "a"}}, 3, "invalid input: upper triangle must hold exactly the pairs i < j"),
            ({"n": 1, "upper": {"0,1": "a"}, "torsion_modulus": 0}, 3, "invalid input: torsion modulus must be >= 1"),
            ([{"n": 1, "upper": {"0,1": "a"}}], 2, "parse error: matrix JSON must be an object"),
            ({"n": 1, "upper": {"0,1": {"exponents": {"1a": 1}}}}, 3, "invalid input: bad generator name '1a'"),
        ],
        ids=["lower-pair-key", "zero-modulus", "top-level-array", "bad-object-name"],
    )
    def test_malformed_matrix_exits_naming_reason(self, tmp_path, capsys, data, code, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["pts", str(path)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message + "\n")

    def test_keys_naming_one_pair_exit_2(self, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"n": 1, "upper": {"0,1": "a", " 0, 1": "b"}}))
        assert main(["pts", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "parse error: pair keys '0,1' and ' 0, 1' both name the pair 0,1\n"

    def test_rank_one_25_variables_is_one_component(self, tmp_path, capsys):
        # q_ij = a_i^-1 * a_j makes every triple good, so the point variety
        # is all of P^24: far too many subsets (2^25) to visit one by one.
        n = 24
        upper = {
            f"{i},{j}": f"a{i}^-1*a{j}" for i in range(n + 1) for j in range(i + 1, n + 1)
        }
        path = tmp_path / "rank_one.json"
        path.write_text(json.dumps({"n": n, "upper": upper}))
        start = time.perf_counter()
        assert main(["pts", str(path), "--json"]) == 0
        elapsed = time.perf_counter() - start
        data = json.loads(capsys.readouterr().out)
        assert data["components"] == [list(range(n + 1))]
        assert data["type"] == [1] + [0] * (n - 1)
        assert elapsed < 2.0


# the rank-one matrix of test_rank_one_25_variables_is_one_component
RANK_ONE_24 = {f"{i},{j}": f"a{i}^-1*a{j}" for i in range(25) for j in range(i + 1, 25)}

# a torsion matrix whose "generators" list is given (and names an unused
# generator), so the table is read from the file rather than inferred
TORSION_MATRIX = {
    "n": 4,
    "torsion_modulus": 4,
    "generators": ["a", "b", "c", "d"],
    "upper": {
        "0,1": "a*w", "0,2": "a*b", "0,3": "w^2", "0,4": "c^-1",
        "1,2": "b*w^3", "1,3": "a^-1*w", "1,4": "1", "2,3": "w^3",
        "2,4": "b^2*c", "3,4": {"exponents": {"a": 2, "c": 0}, "torsion": 5},
    },
}


class TestPinnedPts:
    # SHA-256 of the stdout and exit code of `pts FILE` and `pts FILE --json`
    # over the gallery matrices, the rank-one n = 24 matrix (table inferred)
    # and a torsion matrix with its own generator list
    PTS_OUTPUTS = "3ddf5ce47c075ee46517d72d8b9d6946c475c1b86d4ed3c5d93272e600571020"

    def test_pts_outputs(self, tmp_path, capsys):
        inputs = {
            "p3_two_planes": p3_two_planes_matrix().to_json(),
            "block": block_matrix().to_json(),
            "all_ones_3": all_ones_matrix(3).to_json(),
            "rank_one_24": json.dumps({"n": 24, "upper": RANK_ONE_24}),
            "torsion": json.dumps(TORSION_MATRIX),
        }
        digest = hashlib.sha256()
        for name, text in inputs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            for flags in ([], ["--json"]):
                code = main(["pts", str(path)] + flags)
                digest.update(f"{name} {flags} {code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == self.PTS_OUTPUTS


def _json_values():
    edge_cases = [None, True, False, -1, 0, 1, 2, 10**9, 10**30, 1.5, 1e300]
    edge_cases += [float("inf"), float("-inf"), float("nan")]
    edge_cases += ["", "a", "a^-1*w", "b^2", "w^3", "a^x", "1", "0,1"]
    scalars = st.sampled_from(edge_cases) | st.integers() | st.floats() | st.text(max_size=8)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["exponents", "torsion", "a", "b", "0,1"]), inner, max_size=3),
        max_leaves=6,
    )


def _triple_set_cases():
    """Empty and full sets, and seeded random masks for n <= 8."""
    cases = [(f"empty-n{n}", TripleSet.empty(n)) for n in (0, 1, 2, 5)]
    cases += [(f"full-n{n}", TripleSet.full(n)) for n in range(2, 7)]
    rng = random.Random(3401)
    for n in range(9):
        for k in range(3):
            cases.append((f"random-n{n}-{k}", TripleSet(n, rng.getrandbits(num_triples(n)))))
    return cases


def _nested(value, kinds):
    """value wrapped in a dict or a list per entry of kinds, innermost first."""
    for kind in kinds:
        value = {"n": 1, "set": value, "z": [2]} if kind == "dict" else [3, value, [4]]
    return value


class TestJsonText:
    # the CLI writes its indented JSON without json.dumps; it must agree
    # with json.dumps(value, indent=2) byte for byte on any value
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value=_json_values())
    def test_matches_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [], {}, [[]], [{}], [[], []], [[1], []], [[[]]], {"a": []}, {"a": {}}, {"a": [[], {}]},
            [True, 1, False, 0], [[1, True], [0, 2]], [[True]], {"t": True, "f": False, "i": 1},
            [1, [2, 3], 4], [[1, 2], [3]], [[-1, 0], [1]], (1, 2), [(1, 2), [3]],
            [2**63, -(2**63) - 1, 10**40], [[2**64, -(2**80)]],
            [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, 1e300], {"x": [1.5, float("nan")]},
            ["\u00e9", "\u2603", "\n\t\"\\", "\x00\x1f", "\ud800", "\U0001f600"],
            {"\u00e9": "\u00df", '"': 1, "a\nb": [1, 2]},
            {1: [2, 3]}, {None: 1, "a": [{2.5: [1]}]}, [{True: [1, 2]}], {"k": {False: {}}},
            None, True, False, 7, -7, 1.5, "", "s",
        ],
    )
    def test_explicit_cases(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("triple_set", [case for _, case in _triple_set_cases()], ids=[name for name, _ in _triple_set_cases()])
    def test_triple_set_matches_json_dumps_of_its_list(self, triple_set):
        # a TripleSet is written as json.dumps writes the list of its
        # triples, alone and nested in dicts and lists at depths 0 to 3
        as_list = [list(t) for t in triple_set]
        for depth in range(4):
            for kinds in itertools.product(["dict", "list"], repeat=depth):
                assert _json_text(_nested(triple_set, kinds)) == json.dumps(_nested(as_list, kinds), indent=2)

    @pytest.mark.parametrize("value", [[1, object()], {"a": {1, 2}}, {(1, 2): 3}])
    def test_unserializable_raises_like_json_dumps(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            _json_text(value)


class TestParserReuse:
    # main builds its parser once per process; a sequence of calls must
    # answer each command as a freshly built parser does
    SEQUENCE = [
        ["realize"],
        ["pts", "MATRIX", "--json"],
        ["realize", "MATRIX", "--class", "3", "0"],
        ["graph", "3", "--json"],
        ["enumerate", "3", "--adequate"],
        ["graph", "3"],
    ]

    @staticmethod
    def _run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    def test_calls_do_not_leak_state(self, tmp_path, capsys):
        assert _build_parser() is _build_parser()
        path = write_matrix(tmp_path, p3_two_planes_matrix())
        sequence = [[path if a == "MATRIX" else a for a in argv] for argv in self.SEQUENCE]
        shared = [self._run(argv, capsys) for argv in sequence]
        alone = []
        for argv in sequence:
            _build_parser.cache_clear()
            alone.append(self._run(argv, capsys))
        assert shared == alone
        assert [code for code, _ in shared] == [2, 0, 2, 0, 0, 0]


class TestFileErrors:
    # a file that cannot be read or written exits 2, naming the path and
    # the reason, whether it is an input or an --out target
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["pts", "DIR"], "DIR"),
            (["realize", "DIR"], "DIR"),
            (["forced", "DIR"], "DIR"),
            (["graph", "3", "--out", "DIR"], "DIR"),
            (["enumerate", "3", "--adequate", "--out", "DIR"], "DIR"),
            (["realize", "--class", "3", "all", "--out", "DIR"], "DIR"),
            (["graph", "3", "--out", "DIR/missing/x.dot"], "DIR/missing/x.dot"),
            (["pts", "DIR/missing.json"], "DIR/missing.json"),
        ],
    )
    def test_exits_2_naming_path_and_reason(self, tmp_path, capsys, argv, target):
        argv = [a.replace("DIR", str(tmp_path)) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        reason = "No such file or directory" if "missing" in target else "Is a directory"
        assert captured.err == f"error: {target.replace('DIR', str(tmp_path))}: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_failed_write_exits_2_naming_path(self, capsys):
        # a write that fails after the open, unlike a failed open, carries
        # no file name of its own
        assert main(["enumerate", "3", "--adequate", "--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: /dev/full: No space left on device\n")
        assert not os.path.exists("/dev/full.manifest.json")

    @pytest.mark.parametrize("command", ["pts", "realize", "forced"])
    def test_undecodable_input_exits_2_naming_path(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "upper": {"0,1": "\xff"}}')
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {path}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize(
        "command, text",
        [
            ("pts", "[" * 200_000),
            ("realize", "[" * 200_000),
            ("forced", "[" * 200_000),
            ("pts", '{"n": 1, "upper": {"0,1": ' + "[" * 200_000 + "]" * 200_000 + "}}"),
        ],
        ids=["pts", "realize", "forced", "pts-nested-entry"],
    )
    def test_deeply_nested_input_exits_2(self, tmp_path, capsys, command, text):
        # the decoder recurses once per level, so nesting past the
        # interpreter's recursion limit is invalid JSON, not a traceback
        path = tmp_path / "nested.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: invalid JSON") and captured.err.count("\n") == 1

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
    @pytest.mark.parametrize("command", ["pts", "realize", "forced"])
    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys, command):
        # the decoder cannot convert an integer past the interpreter's digit
        # limit, so the file is invalid JSON, not an invariant violation
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text('{"n": ' + "9" * (limit + 1) + ', "triples": [], "upper": {}}')
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"parse error: invalid JSON: an integer has more than {limit} digits\n")

    @pytest.mark.parametrize(
        "command, data",
        [
            ("realize", {"n": 3, "triples": ["x" * 10**6]}),
            ("realize", {"n": "x" * 10**6, "triples": []}),
            ("pts", {"n": 1, "upper": {"0,1": {"exponents": {"a": "x" * 10**6}}}}),
            ("pts", {"n": 1, "upper": {"x" * 10**6: "1"}}),
        ],
        ids=["triple", "n", "exponent", "pair-key"],
    )
    def test_huge_value_is_echoed_cut_short(self, tmp_path, capsys, command, data):
        # a message shows an input value cut to a fixed length, so a 1 MB
        # value does not come back as a 1 MB line
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) < 300

    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["realize", "FILE"], '{"n": DIGITS, "triples": []}', 3),
            (["forced", "FILE"], '{"n": DIGITS, "triples": []}', 3),
            (["realize", "FILE"], '{"n": 3, "triples": [[0, 1, DIGITS]]}', 3),
            (["pts", "FILE"], '{"n": DIGITS, "upper": {}}', 3),
            (["enumerate", "DIGITS", "--adequate"], "", 3),
            (["graph", "DIGITS"], "", 3),
            (["forced", "--pin", "0,DIGITS", "FILE"], '{"n": 3, "triples": []}', 3),
            (["realize", "--class", "x" * 4000, "0"], "", 2),
            (["pts", "FILE"], '{"n": 2, "upper": {"0,DIGITS": "1", " 0,DIGITS": "1"}}', 2),
        ],
        ids=["realize-n", "forced-n", "realize-index", "pts-n", "enumerate-n", "graph-n", "forced-pin", "class-n", "pair-keys"],
    )
    def test_long_value_is_echoed_cut_short(self, tmp_path, capsys, argv, text, code):
        # a 4,000-digit number, well inside the digit limit, is echoed cut
        # to a fixed length wherever a message names it
        path = tmp_path / "long.json"
        path.write_text(text.replace("DIGITS", "9" * 4000))
        assert main([a.replace("FILE", str(path)).replace("DIGITS", "9" * 4000) for a in argv]) == code
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1 and len(lines[0].encode()) < 300

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                "9" * 5000,
                marks=pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit"),
                id="digits",
            ),
            pytest.param("x" * 5000, id="letters"),
        ],
    )
    @pytest.mark.parametrize("argv", [["graph", "N"], ["enumerate", "N", "--adequate"], ["sinks", "N"]], ids=lambda a: a[0])
    def test_long_int_argument_is_echoed_cut_short(self, capsys, argv, text):
        # argparse's usage error for an N that is no int echoes it cut to a
        # fixed length; a short value keeps argparse's own wording
        for value, limit in ((text, 300), ("abc", None)):
            with pytest.raises(SystemExit) as exc:
                main([value if a == "N" else a for a in argv])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            last = captured.err.splitlines()[-1]
            assert captured.out == ""
            if limit:
                assert len(last.encode()) < limit
            else:
                assert last == f"qpoints {argv[0]}: error: argument n: invalid int value: 'abc'"

    @pytest.mark.parametrize(
        "data, err",
        [
            ({"n": 3, "triples": [[0, 1, 9], [0, 1]]}, "parse error: triple must have three indices: [0, 1]"),
            ({"n": -3, "triples": [[0, 1, 2], [1, True, 2]]}, "parse error: triple index must be an integer, got True"),
            ({"n": 2.0, "triples": [[0, 1, 9]]}, "parse error: n must be an integer, got 2.0"),
            ({"n": -1, "triples": [[0, 1, 9]]}, "invalid input: dimension index must be >= 0"),
            ({"n": 3, "triples": [[2, 1, 0], [9, 1, 0], [1, 1, 2]]}, "invalid input: triple (0, 1, 9) violates 0 <= i < j < k <= 3"),
        ],
        ids=["triple-before-range", "triple-before-n", "n-before-range", "negative-n-before-range", "first-stray"],
    )
    def test_collection_faults_are_named_in_order(self, tmp_path, capsys, data, err):
        # of several faults in one collection file, a malformed triple is
        # named first, then a bad n, then the first triple out of range
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(data))
        for command in ("realize", "forced"):
            assert main([command, str(path)]) == (2 if err.startswith("parse") else 3)
            assert capsys.readouterr().err == err + "\n"

    @pytest.mark.parametrize("command", ["pts", "realize", "forced"])
    def test_oversized_input_exits_3_naming_path_and_size(self, tmp_path, capsys, command):
        # sparse files of zero bytes: truncate writes no data to disk
        path, size = tmp_path / "big.json", INPUT_MAX_BYTES + 1
        path.touch()
        os.truncate(path, size)
        assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {path}: more than the input bound of {INPUT_MAX_BYTES} bytes\n"
        # at the bound the file is read, and its zero bytes are not JSON
        os.truncate(path, INPUT_MAX_BYTES)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
    @pytest.mark.parametrize("command", ["pts", "realize", "forced"])
    def test_endless_device_exits_3_once_past_the_bound(self, monkeypatch, capsys, command):
        # a device reports size 0, so only the bytes read can bound it
        monkeypatch.setattr(cli, "INPUT_MAX_BYTES", 1000)
        assert main([command, "/dev/zero"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "invalid input: /dev/zero: more than the input bound of 1000 bytes\n")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_read_up_to_the_bound(self, monkeypatch, capsys):
        # both writes fit the pipe's buffer, so no writer thread is needed
        monkeypatch.setattr(cli, "INPUT_MAX_BYTES", 1000)
        text = p3_two_planes_matrix().to_json().encode()
        for padding, code in ((1000 - len(text), 0), (1001 - len(text), 3)):
            read_end, write_end = os.pipe()
            os.write(write_end, text + b" " * padding)
            os.close(write_end)
            try:
                assert main(["pts", f"/dev/fd/{read_end}"]) == code
            finally:
                os.close(read_end)
            captured = capsys.readouterr()
            assert captured.err.count("\n") == (code != 0)


_PAIR_KEYS = st.one_of(
    st.sampled_from(["0,1", "2,3", "3,4", "1,0", "0,0", "0,9", "-1,2", "0,1,2", "a,b", " 0, 1", ""]),
    st.text(max_size=5),
)


@st.composite
def _mutated_matrix(draw):
    """A valid matrix JSON object with one to three structural mutations."""
    base = p3_two_planes_matrix().to_json_dict() if draw(st.booleans()) else {
        "n": 2,
        "torsion_modulus": 3,
        "generators": ["a", "b"],
        "upper": {"0,1": "a", "0,2": "b*w", "1,2": "a^-1*b"},
    }
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "drop", "n", "add_pair", "drop_pair", "set_pair", "set_field"]))
        upper = data.get("upper")
        if kind == "set":
            data[draw(st.sampled_from(["n", "upper", "torsion_modulus", "generators"]))] = draw(_json_values())
        elif kind == "drop":
            data.pop(draw(st.sampled_from(["n", "upper", "torsion_modulus", "generators"])), None)
        elif kind == "n":
            data["n"] = draw(st.sampled_from([-5, -1, 0, 1, 4, 25, 10**6, 10**9, 10**18]) | st.integers())
        elif isinstance(upper, dict) and kind == "add_pair":
            upper[draw(_PAIR_KEYS)] = draw(_json_values() | st.sampled_from(["a", "1"]))
        elif isinstance(upper, dict) and upper and kind == "drop_pair":
            upper.pop(draw(st.sampled_from(sorted(upper))))
        elif isinstance(upper, dict) and upper and kind == "set_pair":
            upper[draw(st.sampled_from(sorted(upper)))] = draw(_json_values())
        elif isinstance(upper, dict) and upper and kind == "set_field":
            entry = upper[draw(st.sampled_from(sorted(upper)))]
            if isinstance(entry, dict):
                entry[draw(st.sampled_from(["exponents", "torsion"]))] = draw(_json_values())
    return data


class TestPtsFuzz:
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=_mutated_matrix(), as_json=st.booleans())
    @example(data={"n": float("inf"), "upper": {}}, as_json=False)
    @example(data={"n": 1, "upper": {"0,1": {"torsion": float("inf")}}}, as_json=True)
    @example(data={"n": 1, "upper": {"0,1": {"exponents": {"a": float("-inf")}}}}, as_json=True)
    def test_loader_exits_cleanly(self, tmp_path, data, as_json):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        code = main(["pts", str(path)] + (["--json"] if as_json else []))
        assert code in (0, 2, 3)


@st.composite
def _mutated_collection(draw):
    """A valid collection JSON object with one to three structural mutations."""
    base = p3_two_planes_collection() if draw(st.booleans()) else pentagonal_good_set()
    data = {"n": base.n, "triples": [list(t) for t in base]}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["set", "drop", "n", "add", "drop_triple", "set_triple", "set_index"]))
        triples = data.get("triples")
        if kind == "set":
            data[draw(st.sampled_from(["n", "triples"]))] = draw(_json_values())
        elif kind == "drop":
            data.pop(draw(st.sampled_from(["n", "triples"])), None)
        elif kind == "n":
            data["n"] = draw(st.sampled_from([-5, -1, 0, 1, 2, 4, 25, 10**6, 10**9, 10**18]) | st.integers())
        elif isinstance(triples, list) and kind == "add":
            triples.append(draw(st.lists(st.integers(-2, 7), min_size=3, max_size=3) | _json_values()))
        elif isinstance(triples, list) and triples and kind == "drop_triple":
            triples.pop(draw(st.integers(0, len(triples) - 1)))
        elif isinstance(triples, list) and triples and kind == "set_triple":
            triples[draw(st.integers(0, len(triples) - 1))] = draw(_json_values())
        elif isinstance(triples, list) and triples and kind == "set_index":
            entry = triples[draw(st.integers(0, len(triples) - 1))]
            if isinstance(entry, list) and entry:
                entry[draw(st.integers(0, len(entry) - 1))] = draw(_json_values())
    return data


class TestCollectionFuzz:
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=_mutated_collection(), command=st.sampled_from(["realize", "forced"]))
    @example(data={"n": 3, "triples": [[0, 1, float("inf")]]}, command="realize")
    @example(data={"n": 3, "triples": [[0, 1, float("inf")]]}, command="forced")
    @example(data={"n": 3, "triples": 5}, command="realize")
    @example(data={"n": 3, "triples": 5}, command="forced")
    def test_loader_exits_cleanly(self, tmp_path, data, command):
        path = tmp_path / "fuzz.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) in (0, 2, 3, 4, 5)


class TestEnumerate:
    def test_adequate_summary(self, capsys):
        assert main(["enumerate", "3", "--adequate"]) == 0
        out = capsys.readouterr().out
        assert "total=12 orbits=4" in out
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(lines) == 4
        assert all("orbit_size" in json.loads(l) for l in lines)

    def test_adequate_summary_n4(self, capsys):
        assert main(["enumerate", "4", "--adequate"]) == 0
        assert "total=314 orbits=16" in capsys.readouterr().out

    def test_nodes_n4(self, capsys):
        assert main(["enumerate", "4", "--nodes"]) == 0
        assert "nodes=16" in capsys.readouterr().out

    def test_nodes_n5_needs_long(self, capsys):
        assert main(["enumerate", "5", "--nodes"]) == 2

    def test_out_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "catalog.jsonl"
        assert main(["enumerate", "3", "--adequate", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        manifest = json.loads((tmp_path / "catalog.jsonl.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]
        assert "qpoints" in manifest["versions"]


class TestNodesBeyondRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "6", "--long"],
            ["sinks", "6", "--long"],
            ["enumerate", "6", "--nodes", "--long"],
        ],
    )
    def test_exits_3_without_long_hint(self, capsys, argv):
        # --long cannot lift the n <= 5 limit, so it is not suggested
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "n <= 5" in err
        assert "use --long" not in err


class TestNodesAtFiveNeedLong:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "5", "--nodes"],
            ["graph", "5"],
            ["graph", "5", "--json"],
            ["sinks", "5"],
        ],
    )
    def test_exits_2_naming_the_flag(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: n = 5 node enumeration requires the long flag (use --long)\n")


class TestNegativeN:
    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "-1"],
            ["sinks", "-1"],
            ["enumerate", "-1", "--nodes"],
            ["enumerate", "-1", "--adequate"],
            ["graph", "-2", "--long"],
        ],
    )
    def test_exits_3_naming_n(self, capsys, argv):
        assert main(argv) == 3
        assert f"n must be >= 0, got {argv[1]}" in capsys.readouterr().err


#: Every combination of the flags of each dimension-taking command.
FLAG_COMBINATIONS = [
    (command, flags)
    for command, names in (
        ("enumerate", ("--adequate", "--nodes", "--long", "--out")),
        ("graph", ("--json", "--long", "--out")),
        ("sinks", ("--long",)),
    )
    for k in range(len(names) + 1)
    for flags in itertools.combinations(names, k)
]


class TestDimensionFuzz:
    @pytest.mark.parametrize("command,flags", FLAG_COMBINATIONS)
    @settings(
        max_examples=6,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(n=st.integers(-5, 8))
    @example(n=-1)
    @example(n=6)
    def test_exits_cleanly(self, tmp_path, capsys, command, flags, n):
        argv = [command, str(n)]
        for flag in flags:
            argv.append(flag)
            if flag == "--out":
                argv.append(str(tmp_path / "out"))
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        elapsed = time.perf_counter() - start
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err
        one_mode = command != "enumerate" or ("--adequate" in flags) != ("--nodes" in flags)
        needs_long = n == 5 and "--long" not in flags and "--adequate" not in flags
        if one_mode and 0 <= n <= 5 and not needs_long:
            assert code == 0
        else:
            assert code != 0
            assert elapsed < 2.0


class TestGraph:
    def test_dot_stdout(self, capsys):
        assert main(["graph", "3"]) == 0
        out = capsys.readouterr().out
        assert "digraph deg3 {" in out
        assert "nodes=4 arrows=3" in out

    def test_dot_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["graph", "4", "--out", str(a)]) == 0
        assert main(["graph", "4", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("->") == 28

    def test_json_graph(self, capsys):
        assert main(["graph", "2", "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out[: out.rindex("}") + 1])
        assert len(data["nodes"]) == 2


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self):
        # the body (about 130 kB) overfills the pipe, so the writer is still
        # blocked on it when the reader closes after the first line
        src = Path(qpoints.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "qpoints.cli", "graph", "5", "--long", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
        assert stderr == b""


class TestStartupModules:
    # hashlib maps OpenSSL (about 3.6 MB of RSS); only a manifest that
    # hashes an input file needs it
    SCRIPT = """
import contextlib, io, json, sys
loaded = lambda: sorted({"hashlib", "_hashlib"} & set(sys.modules))
from qpoints.cli import main
seen = [["import qpoints.cli", loaded()]]
matrix, out = sys.argv[1:]
for argv in (["pts", matrix], ["enumerate", "3", "--adequate"], ["graph", "3"],
             ["realize", "--class", "3", "all"], ["enumerate", "3", "--adequate", "--out", out]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    seen.append([" ".join(argv), code, loaded()])
print(json.dumps(seen))
"""

    def test_no_hashlib_unless_an_input_is_hashed(self, tmp_path):
        src = Path(qpoints.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        matrix = write_matrix(tmp_path, p3_two_planes_matrix())
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, matrix, str(tmp_path / "catalog.jsonl")],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (_, at_import), *runs = json.loads(proc.stdout)
        assert at_import == []
        assert len(runs) == 5
        assert all(code == 0 and modules == [] for _, code, modules in runs), runs
        assert (tmp_path / "catalog.jsonl.manifest.json").exists()


class TestFailedStdout:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_stdout_exits_2_naming_stdout(self):
        # the flush at interpreter exit must not fail a second time
        src = Path(qpoints.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "qpoints.cli", "enumerate", "3", "--adequate"],
                stdout=full,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        assert (proc.returncode, proc.stderr) == (2, b"error: stdout: No space left on device\n")


class TestOut:
    @pytest.mark.parametrize(
        "argv, summary",
        [
            (["enumerate", "3", "--adequate"], "total=12 orbits=4"),
            (["graph", "4"], "nodes=16 arrows=28"),
            (["graph", "4", "--json"], "nodes=16 arrows=28"),
            (["realize", "--class", "3", "all"], "realized 4/4"),
            (["realize", "--class", "3", "3"], "verified: achieved collection matches target"),
        ],
    )
    def test_out_holds_the_printed_body(self, tmp_path, capsys, argv, summary):
        # --out moves the body from stdout to the file, next to a manifest;
        # the summary line stays on stdout
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "body"
        assert main(argv + ["--out", str(out)]) == 0
        kept = capsys.readouterr().out
        assert kept.startswith(summary) and kept.count("\n") == 1
        assert out.read_text() + kept == printed
        manifest = json.loads((tmp_path / "body.manifest.json").read_text())
        assert manifest["outputs"] == [str(out)]

    def test_manifest_records_the_parsed_command(self, tmp_path, capsys):
        # the argv main parsed, not the host process's sys.argv
        out = str(tmp_path / "cat alog.jsonl")
        assert main(["enumerate", "3", "--adequate", "--out", out]) == 0
        manifest = json.loads(Path(out + ".manifest.json").read_text())
        assert manifest["command"] == "qpoints enumerate 3 --adequate --out " + shlex.quote(out)

    def test_manifest_hashes_the_input(self, tmp_path, capsys):
        path = write_collection(tmp_path, p3_two_planes_collection())
        out = tmp_path / "matrix.json"
        assert main(["realize", path, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "matrix.json.manifest.json").read_text())
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        assert manifest["inputs"] == [{"path": path, "sha256": digest}]
        assert manifest["outputs"] == [str(out)]

    def test_realize_all_writes_one_line_per_class(self, tmp_path, capsys):
        out = tmp_path / "classes.txt"
        assert main(["realize", "--class", "3", "all", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "realized 4/4\n"
        assert out.read_text() == "".join(f"class {i}: ok (generic-point)\n" for i in range(4))


class TestRealize:
    def test_reference_collection(self, tmp_path, capsys):
        path = write_collection(tmp_path, p3_two_planes_collection())
        assert main(["realize", path]) == 0
        out = capsys.readouterr().out
        assert "verified: achieved collection matches target" in out

    def test_matrix_output_parses_and_verifies(self, tmp_path, capsys):
        from qpoints.scalars import qmatrix_from_json
        from qpoints.variety import good_triples

        C = p3_two_planes_collection()
        path = write_collection(tmp_path, C)
        out_path = tmp_path / "realized.json"
        assert main(["realize", path, "--out", str(out_path)]) == 0
        Q = qmatrix_from_json(out_path.read_text())
        assert good_triples(Q).complement() == C

    def test_not_adequate_exits_4(self, tmp_path, capsys):
        from qpoints.triples import TripleSet

        path = write_collection(tmp_path, TripleSet.of(3, [(0, 1, 2)]))
        assert main(["realize", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: collection is not adequate: the tetrahedron (0,1,2,3) has exactly one face in it, (0,1,2)\n"
        )

    def test_class_index(self, capsys):
        assert main(["realize", "--class", "3", "0"]) == 0

    @pytest.mark.parametrize(
        "n, index, message",
        # a negative index must not wrap around to a class from the end
        [("5", i, "class index must be 0..174 or 'all'") for i in ("-1", "-175", "175", "x")]
        + [(n, "0", f"class dimension N must be an integer, got {n!r}") for n in ("x", "5.0", "")],
    )
    def test_bad_class_exits_2(self, capsys, n, index, message):
        assert main(["realize", "--class", n, index]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("n, classes", [(3, 4), (4, 16), (5, 175)])
    def test_class_index_ranges_over_the_catalog(self, capsys, n, classes):
        # the range is the catalog's classes, not 0..N-1
        assert main(["realize", "--class", str(n), str(classes)]) == 2
        assert capsys.readouterr() == ("", f"error: class index must be 0..{classes - 1} or 'all'\n")

    @pytest.mark.parametrize("n, index", [("+5", "0"), (" 5", "0"), ("5", "+0"), ("5", " 0")])
    def test_class_reads_integers_as_int_arguments_do(self, capsys, n, index):
        # N and INDEX follow the rule of the n of enumerate, graph and sinks
        assert main(["realize", "--class", "5", "0"]) == 0
        expected = capsys.readouterr()
        assert main(["realize", "--class", n, index]) == 0
        assert capsys.readouterr() == expected

    def test_class_all_reports_obstruction(self, capsys):
        assert main(["realize", "--class", "5", "all"]) == 5
        out = capsys.readouterr().out
        assert "realized 174/175" in out
        assert out.count("FAILED (obstructed)") == 1
        class_lines = [line for line in out.splitlines() if line.startswith("class ")]
        assert len(class_lines) == 175
        failed = [line for line in class_lines if "FAILED" in line]
        assert failed == ["class 106: FAILED (obstructed)"]
        for line in class_lines:
            if line not in failed:
                assert line.endswith(" (generic-point)"), line

    def test_huge_n_fails_fast_with_exit_3(self, tmp_path, capsys):
        # the loader ranks triples arithmetically, with no table of all
        # triples, and the solver bound is checked before adequacy
        for n, triples in itertools.product((51, 1000000000), ([], [[0, 1, 2]])):
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({"n": n, "triples": triples}))
            start = time.perf_counter()
            assert main(["realize", str(path)]) == 3
            assert time.perf_counter() - start < 2.0
            assert f"supports n <= 50, got n = {n}" in capsys.readouterr().err

    def test_class_beyond_catalog_budget_exits_3(self, capsys):
        start = time.perf_counter()
        assert main(["realize", "--class", "6", "0"]) == 3
        assert time.perf_counter() - start < 2.0
        assert "(n = 6) is out of budget" in capsys.readouterr().err

    def test_collection_and_class_exit_2(self, tmp_path, capsys):
        # a file next to --class would be ignored, so the call is refused
        from qpoints.triples import TripleSet

        path = write_collection(tmp_path, TripleSet.of(3, [(0, 1, 2)]))
        with pytest.raises(SystemExit) as exc:
            main(["realize", path, "--class", "3", "0"])
        assert exc.value.code == 2
        assert "not both" in capsys.readouterr().err

    def test_triple_beyond_mask_limit_exits_3(self, tmp_path, capsys):
        top = 1000000000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": top, "triples": [[top - 2, top - 1, top]]}))
        start = time.perf_counter()
        assert main(["realize", str(path)]) == 3
        assert time.perf_counter() - start < 2.0
        assert "mask limit" in capsys.readouterr().err

    def test_missing_argument(self, capsys):
        with pytest.raises(SystemExit):
            main(["realize"])


class TestSinksAndForced:
    def test_sinks_three(self, capsys):
        assert main(["sinks", "3"]) == 0
        assert "sinks=1" in capsys.readouterr().out

    def test_forced_pentagonal(self, tmp_path, capsys):
        path = write_collection(tmp_path, pentagonal_good_set(), "good.json")
        assert main(["forced", path]) == 0
        out = capsys.readouterr().out
        assert "solution set: Z/2" in out
        assert "solution 0: all q = 1" in out
        assert "q[0,1]=w" in out

    @pytest.mark.parametrize("n", [-1, 51, 1000000000])
    def test_forced_out_of_range_n_exits_3(self, tmp_path, capsys, n):
        for triples in ([], [[0, 1, 2]]):
            path = tmp_path / "range.json"
            path.write_text(json.dumps({"n": n, "triples": triples}))
            start = time.perf_counter()
            assert main(["forced", str(path)]) == 3
            assert time.perf_counter() - start < 2.0
            err = capsys.readouterr().err
            assert n < 0 or f"supports n <= 50, got n = {n}" in err

    def test_forced_explicit_pins(self, tmp_path, capsys):
        path = write_collection(tmp_path, pentagonal_good_set(), "good.json")
        assert main(["forced", path, "--pin", "0,5 1,5 2,5 3,5 4,5"]) == 0
        assert "solution set: Z/2" in capsys.readouterr().out

    @pytest.mark.parametrize("chunk", ["0,1,2", "a,b", "0"])
    def test_forced_malformed_pin_exits_2(self, tmp_path, capsys, chunk):
        path = write_collection(tmp_path, pentagonal_good_set(), "good.json")
        assert main(["forced", path, "--pin", f"0,5 {chunk}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert repr(chunk) in captured.err

    @pytest.mark.parametrize("pin", ["", " ", ";"])
    def test_forced_empty_pin_pins_nothing(self, tmp_path, capsys, pin):
        # an empty --pin pins no pair; the default pins (i, n) for every i
        from qpoints.triples import TripleSet

        path = write_collection(tmp_path, TripleSet.empty(3), "good.json")
        assert main(["forced", path, "--pin", pin]) == 0
        assert "solution set: torus of dimension 6" in capsys.readouterr().out
        assert main(["forced", path]) == 0
        assert "solution set: torus of dimension 3" in capsys.readouterr().out

    def test_forced_single_point(self, tmp_path, capsys):
        from qpoints.triples import TripleSet

        path = write_collection(tmp_path, TripleSet.empty(0), "good.json")
        assert main(["forced", path]) == 0
        assert capsys.readouterr().out == "solution set: a single point\nsolution 0: all q = 1\n"

    def test_forced_out_of_range_pin_exits_3(self, tmp_path, capsys):
        path = write_collection(tmp_path, pentagonal_good_set(), "good.json")
        assert main(["forced", path, "--pin", "0,9"]) == 3
        assert "bad normalization pair" in capsys.readouterr().err
