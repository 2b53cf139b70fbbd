"""Output checks for the benchmark commands.

Each check takes a command's exit code and captured stdout and returns a
list of problems; an empty list means the output is right.  The checks pin
mathematical content (counts, orbit sizes, digests of the records, the
obstructed class, good triples recomputed independently), not wording such
as realization method names.  Nothing here imports qpoints.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from math import comb

#: sha256 of the n=5 adequate catalog, one record per line, each record
#: dumped with sorted keys and compact separators.
CATALOG5_DIGEST = "0e968ab62a12f7b4458d8f2d2bd550cf59f71d5c04e23e32da270b99496db472"

#: sha256 of the n=5 degeneration graph JSON, dumped with sorted keys and
#: compact separators.
GRAPH5_DIGEST = "c4b2f47ef76eb466daa4b34cde34916af02c3ca4f54e1adb7c8598eca4b622a7"

#: Catalog index of the one six-variable class with no exact realization.
#: Its complement is a relabeling of OBSTRUCTED_COMPLEMENT, whose character
#: identity forces P(0,1,2) into every point variety containing it.  The
#: realize output names classes by index only, so this rests on the catalog
#: order that CATALOG5_DIGEST pins: a change to that order fails the
#: catalog check as well, and the index must then be looked up again.
OBSTRUCTED_CLASS = 106
OBSTRUCTED_COMPLEMENT = (
    (0, 1, 3), (0, 2, 4), (0, 3, 4), (1, 2, 5), (1, 3, 5), (2, 4, 5), (3, 4, 5),
)

EXIT_OK = 0
EXIT_REALIZE_FAILED = 5


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_adequate(n: int, triples: set[tuple[int, int, int]]) -> bool:
    """For every index i and member t not containing i, some pair of t
    extends through i to another member."""
    for i in range(n + 1):
        for t in triples:
            if i in t:
                continue
            a, b, c = t
            if not any(
                tuple(sorted((i, u, v))) in triples for u, v in ((a, b), (a, c), (b, c))
            ):
                return False
    return True


def check_catalog5(code: int, out: str) -> list[str]:
    """`enumerate 5 --adequate`: 50334 collections in 175 classes."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    lines = out.rstrip("\n").split("\n")
    problems = []
    if lines[-1] != "total=50334 orbits=175":
        problems.append(f"summary {lines[-1]!r}, expected 'total=50334 orbits=175'")
    try:
        records = [json.loads(line) for line in lines[:-1]]
    except json.JSONDecodeError as exc:
        return problems + [f"record is not JSON: {exc}"]
    if len(records) != 175:
        problems.append(f"{len(records)} records, expected 175")
    sizes = [r.get("orbit_size", 0) for r in records]
    if sum(sizes) != 50334 or any(not s or 720 % s for s in sizes):
        problems.append("orbit sizes do not sum to 50334 or do not divide 6!")
    if not all(is_adequate(5, {tuple(t) for t in r.get("triples", [])}) for r in records):
        problems.append("a catalog record is not adequate")
    if _digest("\n".join(_compact(r) for r in records)) != CATALOG5_DIGEST:
        problems.append("catalog digest differs")
    return problems


def check_graph4(code: int, out: str) -> list[str]:
    """`graph 4`: DOT output with 16 nodes and 28 arrows."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    lines = out.rstrip("\n").split("\n")
    problems = []
    if lines[-1] != "nodes=16 arrows=28":
        problems.append(f"summary {lines[-1]!r}, expected 'nodes=16 arrows=28'")
    node_lines = sum(1 for line in lines if "[label=" in line)
    arrow_lines = sum(1 for line in lines if "->" in line)
    if (node_lines, arrow_lines) != (16, 28):
        problems.append(f"DOT has {node_lines} nodes and {arrow_lines} arrows, expected 16 and 28")
    return problems


def check_graph5(code: int, out: str) -> list[str]:
    """`graph 5 --long --json`: 174 nodes, 810 arrows, each arrow from a
    smaller closed set to a larger one, and the pinned digest."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    body, _, summary = out.rstrip("\n").rpartition("\n")
    problems = []
    if summary != "nodes=174 arrows=810":
        problems.append(f"summary {summary!r}, expected 'nodes=174 arrows=810'")
    try:
        graph = json.loads(body)
        nodes = {node["id"]: node for node in graph["nodes"]}
        arrows = graph["arrows"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return problems + [f"graph JSON malformed: {exc}"]
    if (len(nodes), len(arrows)) != (174, 810):
        problems.append(f"graph has {len(nodes)} nodes and {len(arrows)} arrows")
    for u, v in arrows:
        if u not in nodes or v not in nodes or len(nodes[u]["closed_set"]) >= len(nodes[v]["closed_set"]):
            problems.append(f"arrow {u}->{v} does not enlarge the closed set")
            break
    if _digest(_compact(graph)) != GRAPH5_DIGEST:
        problems.append("graph digest differs")
    return problems


_CLASS_LINE = re.compile(r"class (\d+): (\S+)")


def check_realize5(code: int, out: str) -> list[str]:
    """`realize --class 5 all`: exit 5, 174 of 175 classes realized, the
    single failure being the obstructed class.  Exit 5 is the right answer
    here: one class has no exact realization."""
    problems = []
    if code != EXIT_REALIZE_FAILED:
        problems.append(f"exit code {code}, expected {EXIT_REALIZE_FAILED}")
    lines = out.rstrip("\n").split("\n")
    if lines[-1] != "realized 174/175":
        problems.append(f"summary {lines[-1]!r}, expected 'realized 174/175'")
    classes = [_CLASS_LINE.match(line) for line in lines[:-1]]
    if len(classes) != 175 or not all(classes):
        return problems + [f"expected 175 class lines, got {len(lines) - 1} lines"]
    if [int(m.group(1)) for m in classes] != list(range(175)):
        problems.append("class lines are not numbered 0..174")
    failed = [int(m.group(1)) for m in classes if m.group(2) != "ok"]
    if failed != [OBSTRUCTED_CLASS]:
        problems.append(
            f"non-ok classes {failed}, expected [{OBSTRUCTED_CLASS}] "
            "(the obstructed complement's index in the catalog order pinned by CATALOG5_DIGEST)"
        )
    return problems


def check_pts(code: int, out: str, facts: dict) -> list[str]:
    """`pts FILE --json` against the generator's facts: good triples from
    the exponent oracle, components that are maximal flats covering every
    good triple and every pair, the largest flat, and the ideal generators
    as the complement of the good set."""
    if code != EXIT_OK:
        return [f"exit code {code}, expected {EXIT_OK}"]
    try:
        result = json.loads(out)
        good_list = [tuple(t) for t in result["good_triples"]]
        comps = [tuple(c) for c in result["components"]]
        gens = [tuple(t) for t in result["ideal_generators"]]
        type_vector = list(result["type"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"pts JSON malformed: {exc}"]
    n = facts["n"]
    good = {tuple(t) for t in facts["good_triples"]}
    problems = []
    if good_list != sorted(good):
        problems.append("good triples differ from the exponent oracle")
    everything = set(itertools.combinations(range(n + 1), 3))
    if sorted(gens) != sorted(everything - good) or len(gens) != len(everything) - len(good):
        problems.append("ideal generators are not the complement of the good triples")

    def is_flat(s) -> bool:
        return all(t in good for t in itertools.combinations(sorted(s), 3))

    for c in comps:
        if len(c) < 2 or not is_flat(c):
            problems.append(f"component {c} is not a flat")
            break
        if any(is_flat(set(c) | {v}) for v in range(n + 1) if v not in c):
            problems.append(f"component {c} is not maximal")
            break
    covered = {t for c in comps for t in itertools.combinations(c, 3)}
    pairs = {p for c in comps for p in itertools.combinations(c, 2)}
    if not good <= covered or len(pairs) != comb(n + 1, 2):
        problems.append("components do not cover every good triple and every pair")
    if comps and max(len(c) for c in comps) != facts["largest_flat"]:
        problems.append(f"largest component has {max(len(c) for c in comps)} points, expected {facts['largest_flat']}")
    expected_type = [sum(1 for c in comps if len(c) - 1 == d) for d in range(n, 0, -1)]
    if type_vector != expected_type:
        problems.append("type vector does not count the components by dimension")
    return problems
