"""Tests of the benchmark's own code: the pts oracle, the output checks and a
reduced pass of every workload.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import ptsgen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from qpoints.cli import main as cli_main  # noqa: E402
from qpoints.gallery import block_matrix, p3_two_planes_matrix, sign_matrix  # noqa: E402
from qpoints.scalars import qmatrix_from_json_dict  # noqa: E402
from qpoints.variety import good_triples  # noqa: E402


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("make", [p3_two_planes_matrix, block_matrix, sign_matrix])
def test_oracle_agrees_on_gallery(make):
    Q = make()
    expected = [list(t) for t in good_triples(Q)]
    assert ptsgen.oracle_good_triples(Q.to_json_dict()) == expected
    compact = {
        "n": Q.n,
        "torsion_modulus": Q.table.torsion_modulus,
        "upper": {f"{i},{j}": str(s) for (i, j), s in Q.upper.items()},
    }
    assert ptsgen.oracle_good_triples(compact) == expected


def test_oracle_agrees_on_generated_matrices():
    rng = random.Random(7)
    for slot, (n, largest, torsion) in enumerate(ptsgen.SCHEDULE[:20]):
        data, facts = ptsgen.make_matrix(rng, n, largest, torsion, slot % 2 == 0, slot % 3 == 0)
        expected = [list(t) for t in good_triples(qmatrix_from_json_dict(data))]
        assert ptsgen.oracle_good_triples(data) == expected


def test_generator_is_seeded(tmp_path):
    first = ptsgen.generate(3, tmp_path / "a")
    second = ptsgen.generate(3, tmp_path / "b")
    other = ptsgen.generate(4, tmp_path / "c")
    texts = lambda paths: [p.read_text() for p in paths]  # noqa: E731
    assert texts(first[0]) == texts(second[0])
    assert texts(first[0]) != texts(other[0])
    assert first[2] == other[2]  # the mix is the schedule, whatever the seed
    assert first[2]["matrices"] == len(ptsgen.SCHEDULE)


def test_obstructed_class_is_the_documented_complement():
    code, out = cli(["enumerate", "5", "--adequate"])
    record = json.loads(out.splitlines()[checks.OBSTRUCTED_CLASS])
    excluded = {tuple(t) for t in record["triples"]}
    complement = set(checks.OBSTRUCTED_COMPLEMENT)
    images = (
        {tuple(sorted(p[i] for i in t)) for t in complement}
        for p in itertools.permutations(range(6))
    )
    everything = set(itertools.combinations(range(6), 3))
    assert any(everything - image == excluded for image in images)


def test_catalog_check_rejects_wrong_output():
    code, out = cli(["enumerate", "5", "--adequate"])
    assert checks.check_catalog5(code, out) == []
    lines = out.splitlines()
    a, b = json.loads(lines[0]), json.loads(lines[1])
    a["orbit_size"], b["orbit_size"] = b["orbit_size"], a["orbit_size"]
    swapped = "\n".join([json.dumps(a), json.dumps(b), *lines[2:]]) + "\n"
    assert checks.check_catalog5(code, swapped)
    assert checks.check_catalog5(code, out.replace("orbits=175", "orbits=174"))
    assert checks.check_catalog5(1, out)


def test_graph_checks_reject_wrong_output():
    code, out = cli(["graph", "4"])
    assert checks.check_graph4(code, out) == []
    assert checks.check_graph4(code, out.replace("arrows=28", "arrows=27"))
    code, out = cli(["graph", "5", "--long", "--json"])
    assert checks.check_graph5(code, out) == []
    body, _, summary = out.rstrip("\n").rpartition("\n")
    graph = json.loads(body)
    graph["arrows"] = graph["arrows"][:-1]
    assert checks.check_graph5(code, json.dumps(graph) + "\n" + summary + "\n")
    graph = json.loads(body)
    graph["nodes"][3]["orbit_size"] += 1
    assert checks.check_graph5(code, json.dumps(graph) + "\n" + summary + "\n")


def _realize_output(failed):
    lines = [f"class {i}: {'FAILED (obstructed)' if i in failed else 'ok (any-method)'}" for i in range(175)]
    return "\n".join(lines) + f"\nrealized {175 - len(failed)}/175\n"


def test_realize_check_rejects_wrong_output():
    right = _realize_output({checks.OBSTRUCTED_CLASS})
    assert checks.check_realize5(5, right) == []
    assert checks.check_realize5(0, right)
    assert checks.check_realize5(5, _realize_output({checks.OBSTRUCTED_CLASS - 1}))
    assert checks.check_realize5(5, _realize_output({checks.OBSTRUCTED_CLASS, 3}))
    assert checks.check_realize5(0, _realize_output(set()))


def test_pts_check_rejects_wrong_output(tmp_path):
    Q = p3_two_planes_matrix()
    path = tmp_path / "m.json"
    path.write_text(Q.to_json())
    facts = {"n": 3, "largest_flat": 3, "good_triples": ptsgen.oracle_good_triples(Q.to_json_dict())}
    code, out = cli(["pts", str(path), "--json"])
    assert checks.check_pts(code, out, facts) == []
    result = json.loads(out)
    for key, wrong in (
        ("good_triples", result["good_triples"][:-1]),
        ("components", result["components"][:-1]),
        ("ideal_generators", result["ideal_generators"] + [[1, 2, 3]]),
        ("type", [0, 1, 1]),
    ):
        assert checks.check_pts(code, json.dumps({**result, key: wrong}), facts), key
    assert checks.check_pts(code, out, {**facts, "largest_flat": 4})


def test_speed_clock_reads_nominal_seconds(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(speed, "time", SimpleNamespace(monotonic=lambda: now[0]))

    def half_speed_kernel():
        now[0] += 2 * speed.NOMINAL_S

    monkeypatch.setattr(speed, "kernel", half_speed_kernel)
    clock = speed.SpeedClock()
    clock._mark = now[0]
    clock.tick()
    start = clock.now()
    now[0] += 1.0
    clock.tick()  # the kernel's own time is left out
    now[0] += 1.0
    # Two wall seconds at half the nominal speed are one nominal second.
    assert clock.now() - start == pytest.approx(1.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke_pass(workload, tmp_path):
    commands, mix = run._commands(workload, 11, tmp_path)
    sample = run.run_sample(ROOT, commands, trace=workload == "catalog")
    assert sample["ok"], sample["problems"]
    assert sample["problems"] == []
    assert len(sample["jobs"]) == len(commands)
    assert 0 < sample["setup_s"] < 30 and sample["pass_s"] > 0 and sample["ticks"] > 0
    if workload == "catalog":
        layers = sample["layers"]
        assert layers["adequacy.sweep.masks"] == 1 << 20
        assert layers["adequacy.sweep.yield"] == pytest.approx(50334 / (1 << 20))
        names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        assert names - set(layers) == {"cli.output_bytes", "trace.overhead_ratio"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
