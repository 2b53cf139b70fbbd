import json

import pytest

from qpoints.cli import main
from qpoints.gallery import (
    all_ones_matrix,
    block_matrix,
    p3_two_planes_collection,
    p3_two_planes_matrix,
    pentagonal_good_set,
)


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


class TestGraph:
    def test_dot_stdout(self, capsys):
        assert main(["graph", "3"]) == 0
        out = capsys.readouterr().out
        assert "digraph deg3 {" in out
        assert "nodes=4 arrows=3" in out

    def test_dot_file_deterministic(self, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        assert main(["graph", "4", "--dot", str(a)]) == 0
        assert main(["graph", "4", "--dot", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().count("->") == 28

    def test_json_graph(self, capsys):
        assert main(["graph", "2", "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out[: out.rindex("}") + 1])
        assert len(data["nodes"]) == 2


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

    def test_class_index(self, capsys):
        assert main(["realize", "--class", "3", "0"]) == 0

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

    def test_forced_explicit_pins(self, tmp_path, capsys):
        path = write_collection(tmp_path, pentagonal_good_set(), "good.json")
        assert main(["forced", path, "--pin", "0,5 1,5 2,5 3,5 4,5"]) == 0
        assert "solution set: Z/2" in capsys.readouterr().out
